"""The vectorized ``eval3_table`` against the scalar ``eval3`` oracle.

For random predicates over random per-partition stats, the outcome masks
computed over the columnar view must equal the scalar outcome set of
every partition, including the partitions where the scalar code raises
``ValueError`` (``min > max``).  The stats cover the values where numpy
and Python disagree unless handled: NaN, ±inf, −0.0, ints beyond 2**53
against floats, int64 overflow in arithmetic, strings with a trailing
NUL or U+10FFFF, dates and datetimes, all-null and missing columns and
empty partitions.  NaN keeps the scalar answer (Python's ``<``).
"""
import datetime as dt

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.expr import (
    And,
    Arith,
    Cmp,
    Col,
    If,
    InList,
    IsNull,
    Like,
    Lit,
    Not,
    Or,
    StartsWith,
    eval3,
)
from repro.core.filter_pruning import classify_partition, prune_scan_set
from repro.core.join_pruning import RangeSummary, prune_probe_partitions
from repro.core.stats import ColStats, PartitionStats, StatsTable
from repro.core.topk_pruning import init_boundary, order_partitions
from repro.core.vexpr import eval3_table
from repro.lake.manifest import PartitionMeta
from .test_plan_equivalence import (
    pids,
    same_value,
    scalar_init_boundary,
    scalar_order,
    scalar_probe,
)

_INTS = [0, 1, -1, 7, 2**53, 2**53 + 1, -(2**53) - 1, 2**62, 2**63 - 1, -(2**63)]
_FLOATS = [0.0, -0.0, 1.5, -2.5, 7.0, float(2**53), float("nan"), float("inf"),
           float("-inf"), 1e308]
_STRS = ["", "a", "a\x00", "ab", "b", "Alp", "Alpine", "\U0010FFFF",
         "\U0010FFFFa", "a\U0010FFFF"]
_DATES = [dt.date(1, 1, 1), dt.date(2024, 1, 1), dt.date(2024, 1, 2),
          dt.date(9999, 12, 31)]
_DATETIMES = [dt.datetime(2024, 1, 1), dt.datetime(2024, 1, 1, 0, 0, 0, 1),
              dt.datetime(2024, 1, 2, 12)]

#: column -> (domain, pool of stats values)
_COLUMNS = {
    "i": ("num", _INTS),
    "f": ("num", _FLOATS),
    "m": ("num", _INTS + _FLOATS),
    "s": ("str", _STRS),
    "d": ("date", _DATES),
    "t": ("datetime", _DATETIMES),
}
_LITERALS = {
    "num": _INTS + _FLOATS,
    "str": _STRS,
    "date": _DATES,
    "datetime": _DATETIMES,
}
#: Generating many partitions per example is slow by design, not a bug.
_SLOW = [HealthCheck.too_slow]
_PATTERNS = ["a%", "a_%", "%", "ab", "a\\%b%", "Alp%", "\U0010FFFF%", "", "%b"]


# -- stats --------------------------------------------------------------------


@st.composite
def col_stats(draw, pool):
    shape = draw(st.sampled_from(["missing", "all_null"] + ["bounded"] * 4))
    if shape == "missing":
        return None
    nulls = draw(st.sampled_from([0, 0, 2]))
    if shape == "all_null":
        return ColStats(None, None, nulls)
    a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
    if draw(st.integers(0, 9)) > 0:  # mostly ordered; else possibly min > max
        a, b = min(a, b), max(a, b)
    return ColStats(a, b, nulls)


@st.composite
def partition_stats(draw):
    cols = {}
    for name, (_, pool) in _COLUMNS.items():
        cs = draw(col_stats(pool))
        if cs is not None:
            cols[name] = cs
    return PartitionStats(row_count=draw(st.sampled_from([0, 1, 5])), columns=cols)


# -- predicates ---------------------------------------------------------------


def value_expr(domain, depth):
    cols = [Col(c) for c, (d, _) in _COLUMNS.items() if d == domain]
    leaves = st.one_of(
        st.sampled_from(cols),
        st.sampled_from(_LITERALS[domain]).map(Lit),
        st.just(Lit(None)),
    )
    if domain != "num" or depth == 0:
        return leaves
    return st.one_of(
        leaves,
        st.builds(Arith, st.sampled_from("+-*/"), value_expr("num", depth - 1),
                  value_expr("num", depth - 1)),
        st.builds(If, predicate(depth - 1), value_expr("num", depth - 1),
                  value_expr("num", depth - 1)),
    )


def _domain():
    return st.sampled_from(["num", "num", "num", "str", "date", "datetime"])


def leaf_predicate(depth):
    def cmp(domain, other):
        # other: mostly the same domain; sometimes an ill-typed comparison
        return st.builds(Cmp, st.sampled_from(["<", "<=", ">", ">=", "=", "!="]),
                         value_expr(domain, depth), value_expr(other, depth))

    def inlist(domain):
        vals = st.lists(st.sampled_from(_LITERALS[domain] + [None]),
                        min_size=0, max_size=3).map(tuple)
        return st.builds(InList, value_expr(domain, depth), vals)

    return st.one_of(
        _domain().flatmap(lambda d: cmp(d, d)),
        st.tuples(_domain(), _domain()).flatmap(lambda ds: cmp(*ds)),
        _domain().flatmap(inlist),
        st.builds(Like, value_expr("str", depth), st.sampled_from(_PATTERNS)),
        st.builds(StartsWith, value_expr("str", depth), st.sampled_from(_STRS)),
        st.builds(Like, value_expr("num", depth), st.just("1%")),
        _domain().flatmap(lambda d: st.builds(IsNull, value_expr(d, depth))),
        st.sampled_from([Lit(True), Lit(False), Lit(None)]),
    )


def predicate(depth):
    if depth == 0:
        return leaf_predicate(0)
    sub = predicate(depth - 1)
    return st.one_of(
        leaf_predicate(depth),
        st.builds(Not, sub),
        st.lists(sub, min_size=2, max_size=3).map(lambda a: And(tuple(a))),
        st.lists(sub, min_size=2, max_size=3).map(lambda a: Or(tuple(a))),
    )


def vector_outcomes(pred, stats):
    """``eval3_table``'s masks as one outcome set per partition, ``None``
    where it reports the scalar ``ValueError``."""
    o = eval3_table(pred, StatsTable(list(stats)))
    return [None if e else frozenset(c for c, on in zip("TFN", tfn) if on)
            for *tfn, e in zip(o.t.tolist(), o.f.tolist(), o.n.tolist(),
                               o.err.tolist())]


def scalar_outcomes(pred, stats):
    """The oracle: scalar eval3 per partition, ``None`` where it raises
    ``ValueError``."""
    out = []
    for s in stats:
        try:
            out.append(eval3(pred, s))
        except ValueError:
            out.append(None)
    return out


# -- properties -----------------------------------------------------------------


@settings(max_examples=400, deadline=None, suppress_health_check=_SLOW)
@given(predicate(2), st.lists(partition_stats(), min_size=1, max_size=16))
def test_vectorized_eval3_equals_scalar(pred, stats):
    assert vector_outcomes(pred, stats) == scalar_outcomes(pred, stats)


@settings(max_examples=100, deadline=None, suppress_health_check=_SLOW)
@given(predicate(2), st.lists(partition_stats(), min_size=1, max_size=8))
def test_prune_scan_set_classes_equal_classify_partition(pred, stats):
    parts = [PartitionMeta(pid=i, path=f"mem://{i}", stats=s)
             for i, s in enumerate(stats)]
    got = prune_scan_set(parts, pred).classifications
    assert got == {p.pid: classify_partition(pred, p.stats) for p in parts}


@st.composite
def column_case(draw):
    """A column, random stats for it, and build-side keys of its domain."""
    name = draw(st.sampled_from(sorted(_COLUMNS)))
    stats = draw(st.lists(partition_stats(), min_size=1, max_size=8))
    parts = [PartitionMeta(pid=i, path=f"mem://{i}", stats=s)
             for i, s in enumerate(stats)]
    keys = draw(st.lists(st.sampled_from(_COLUMNS[name][1]), max_size=6))
    return name, parts, keys


@settings(max_examples=150, deadline=None, suppress_health_check=_SLOW)
@given(column_case(), st.sampled_from([1, 2, 64]), st.integers(1, 12),
       st.booleans())
def test_probe_order_and_boundary_equal_scalar(case, max_ranges, k, desc):
    name, parts, keys = case
    summary = RangeSummary.build(keys, max_ranges=max_ranges)
    assert pids(prune_probe_partitions(parts, name, summary).retained) == \
        pids(scalar_probe(parts, name, summary))
    assert pids(order_partitions(parts, name, desc=desc)) == \
        pids(scalar_order(parts, name, desc))
    assert same_value(init_boundary(parts, name, k, desc=desc),
                      scalar_init_boundary(parts, name, k, desc))


# -- hand-picked cases the strategies should never lose -------------------------


def _check(pred, *stats):
    assert vector_outcomes(pred, stats) == scalar_outcomes(pred, stats)


def test_int_beyond_2_53_against_float_literal():
    big = 2**53 + 1  # float(big) == 2**53
    s = PartitionStats(3, {"i": ColStats(big, big)})
    _check(Cmp(">", Col("i"), Lit(float(2**53))), s)
    _check(Cmp("=", Col("i"), Lit(float(2**53))), s)
    assert eval3(Cmp(">", Col("i"), Lit(float(2**53))), s) == frozenset("T")


def test_nan_keeps_the_scalar_answer():
    nan = float("nan")
    s = PartitionStats(4, {"f": ColStats(0.0, nan)})
    for op in ("<", "<=", ">", ">=", "=", "!="):
        _check(Cmp(op, Col("f"), Lit(1000.0)), s)
    _check(InList(Col("f"), (nan, 1.0)), s)


def test_trailing_nul_and_max_codepoint_strings():
    s = PartitionStats(2, {"s": ColStats("a\x00", "a\x00")})
    _check(Cmp("=", Col("s"), Lit("a")), s)
    _check(Cmp(">", Col("s"), Lit("a")), s)
    _check(StartsWith(Col("s"), "a\x00"), s,
           PartitionStats(1, {"s": ColStats("a", "a")}))
    t = PartitionStats(2, {"s": ColStats("a\U0010FFFF", "a\U0010FFFFz")})
    _check(StartsWith(Col("s"), "a\U0010FFFF"), t)
    _check(Like(Col("s"), "b%"), t)


def test_min_above_max_is_partial_for_the_whole_predicate():
    bad = PartitionStats(5, {"i": ColStats(9, 1), "f": ColStats(0.0, 1.0)})
    pred = Or((Cmp(">", Col("f"), Lit(-1.0)), Not(IsNull(Col("i")))))
    _check(pred, bad)
    parts = [PartitionMeta(pid=0, path="mem://0", stats=bad)]
    r = prune_scan_set(parts, pred)
    assert r.classifications == {0: classify_partition(pred, bad)}
    assert [p.pid for p in r.retained] == [0] and r.fully_matching == []


def test_null_in_list_on_mixed_column():
    # ints and floats in one column take the Python-value path
    mixed = [PartitionStats(3, {"m": ColStats(1, 2.5)}),
             PartitionStats(3, {"m": ColStats(0.5, 0.5)})]
    _check(InList(Col("m"), (None, 2)), *mixed)
    _check(InList(Col("m"), (0.5, None)), *mixed)


def test_nan_corners_in_products():
    nan, inf = float("nan"), float("inf")
    s = PartitionStats(2, {"f": ColStats(0.0, inf), "g": ColStats(nan, 1.0)})
    for op in "*/+-":
        for lit in (-1.0, 0.0, 1e300):
            _check(Cmp(">", Arith(op, Col("f"), Col("g")), Lit(lit)), s)
            _check(Cmp("<", Arith(op, Col("g"), Col("f")), Lit(lit)), s)


def test_int64_overflow_in_arithmetic():
    s = PartitionStats(1, {"i": ColStats(2**62, 2**63 - 1)})
    _check(Cmp(">", Arith("*", Col("i"), Col("i")), Lit(2**126)), s)
    _check(Cmp("<", Arith("+", Col("i"), Lit(2**63 - 1)), Lit(0)), s)
