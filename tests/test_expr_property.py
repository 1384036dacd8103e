"""Property tests: the soundness invariant everything rests on.

For *random* predicates over *random* partitioned data:

1. (no false negatives) a partition classified NOT_MATCHING holds no
   qualifying row;
2. (no false "fully" claims) a partition classified FULLY_MATCHING holds
   only qualifying rows;
3. the pandas-mask backend agrees row-for-row with DuckDB running the
   SQL rendering of the same predicate.
"""
import datetime as dt

import duckdb
import numpy as np
import pandas as pd
from hypothesis import given, settings, strategies as st

from repro.core.expr import (
    and_,
    between,
    col,
    isin,
    isnull,
    like,
    not_,
    or_,
    to_pandas_mask,
    to_sql,
)
from repro.core.filter_pruning import (
    FULLY_MATCHING,
    NOT_MATCHING,
    classify_partition,
)
from .helpers import brute_classify, partition_pandas

# -- data strategy ----------------------------------------------------------

_WORDS = ["Alpine Ibex", "Alpine Fox", "Bear", "Creek", "Marked-A", "Zebra"]


@st.composite
def frames(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(-20, 20, n).astype("float64")
    a[rng.random(n) < 0.15] = np.nan
    return pd.DataFrame(
        {
            "a": a,
            "b": rng.integers(0, 100, n),
            "s": rng.choice(_WORDS, n),
        }
    )


@st.composite
def leaf_preds(draw):
    kind = draw(st.sampled_from(
        ["cmp_a", "cmp_b", "cmp_ab", "like", "in", "between", "isnull"]
    ))
    if kind == "cmp_a":
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "=", "!="]))
        from repro.core.expr import Cmp, lit
        return Cmp(op, col("a"), lit(float(draw(st.integers(-25, 25)))))
    if kind == "cmp_b":
        from repro.core.expr import Cmp, lit
        op = draw(st.sampled_from(["<", ">", "="]))
        return Cmp(op, col("b"), lit(int(draw(st.integers(-5, 105)))))
    if kind == "cmp_ab":
        return col("a") < col("b")
    if kind == "like":
        pat = draw(st.sampled_from(["Alpine%", "Alpine% Ibex", "%ek", "Bear", "M%-A"]))
        return like(col("s"), pat)
    if kind == "in":
        vals = draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3))
        return isin(col("s"), vals)
    if kind == "between":
        lo = draw(st.integers(-20, 15))
        return between(col("a"), float(lo), float(lo + draw(st.integers(0, 20))))
    return isnull(col("a"))


def preds(depth: int = 2):
    base = leaf_preds()
    if depth == 0:
        return base
    sub = preds(depth - 1)
    return st.one_of(
        base,
        st.tuples(sub, sub).map(lambda t: and_(*t)),
        st.tuples(sub, sub).map(lambda t: or_(*t)),
        sub.map(not_),
    )


# -- properties -------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(pdf=frames(), pred=preds(), n_parts=st.integers(1, 5),
       cluster=st.sampled_from([None, "a", "b", "s"]))
def test_classification_soundness(pdf, pred, n_parts, cluster):
    metas, parts = partition_pandas(pdf, n_parts, cluster_by=cluster)
    for m in metas:
        c = classify_partition(pred, m.stats)
        truth = brute_classify(pred, parts[m.pid])
        if c == NOT_MATCHING:
            assert truth == NOT_MATCHING, (
                f"false negative: pruned partition with matches "
                f"({to_sql(pred)})"
            )
        if c == FULLY_MATCHING:
            assert truth == FULLY_MATCHING, (
                f"false 'fully': partition has failing rows ({to_sql(pred)})"
            )


@settings(max_examples=120, deadline=None)
@given(pdf=frames(), pred=preds())
def test_pandas_mask_matches_duckdb(pdf, pred):
    mask = to_pandas_mask(pred, pdf)
    con = duckdb.connect()
    try:
        con.register("t", pdf.reset_index(drop=True).reset_index())
        got = con.execute(
            f"SELECT index FROM t WHERE {to_sql(pred)} ORDER BY index"
        ).fetchdf()["index"].tolist()
    finally:
        con.close()
    assert mask[mask].index.tolist() == got, to_sql(pred)


@settings(max_examples=80, deadline=None)
@given(pdf=frames(), pred=preds())
def test_invert_mask_is_complement_of_non_null(pdf, pred):
    """The inverted predicate (§4.2: NOT p) and p select disjoint rows."""
    m = to_pandas_mask(pred, pdf)
    mi = to_pandas_mask(not_(pred), pdf)
    assert not (m & mi).any()
