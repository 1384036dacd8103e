"""§4.2's inverted pass: the inverted predicate is SQL NOT.

LIMIT pruning's fully-matching partitions are those where NOT p
provably matches no row.  ``classify_scan_set`` finds them in the same
three-valued evaluation as filter pruning; these tests check that this
evaluation of NOT p is the paper's inverted predicate.
"""
import pandas as pd
import pytest

from repro.core.expr import (
    always_match,
    and_,
    between,
    can_match,
    col,
    eval3,
    isin,
    like,
    lit,
    not_,
    or_,
    to_pandas_mask,
    to_sql,
)
from .helpers import meta
from .test_filter_pruning import FIG5_PRED, fig5_partitions

PREDS = [
    col("x") < 5,
    col("x").eq(5),
    col("x").ne(9),
    and_(col("x") > 2, col("y") < 5),
    or_(col("x") > 8, col("y") > 8),
    like(col("s"), "Alpine%"),
    isin(col("x"), [1, 15]),
    between(col("y"), 1.0, 8.0),
    not_(col("x") > 4),
    or_(and_(col("x") > 2, col("y") < 5), col("s").eq("Creek")),
]


#: Partitions over x, y (numbers, some with NULLs) and s (strings).
STATS = [
    meta(i, 10, x=x, y=y, s=sv).stats
    for i, (x, y, sv) in enumerate([
        ((0, 4), (0.0, 4.0), ("Alpine A", "Alpine Z")),
        ((5, 5), (5.0, 9.0), ("Bear", "Creek")),
        ((3, 8), (1.0, 6.0, 2), ("Alp", "Alpine B")),
        ((6, 20, 4), (5.0, 5.0), ("Alpine", "Zebra")),
        ((None, None, 10), (2.0, 3.0), ("A", "B", 5)),
    ])
]


def outcomes(pred):
    return [eval3(pred, s) for s in STATS]


class TestStructuralInversion:
    """The paper's inverted predicate (comparisons flipped, NOT pushed
    down by De Morgan) has, on every partition, the outcome set that the
    three-valued evaluation gives NOT p."""

    def test_cmp_flips(self):
        x = col("x")
        p = {"<": x < 5, "<=": x <= 5, ">": x > 5, ">=": x >= 5,
             "=": x.eq(5), "!=": x.ne(5)}
        for op, flipped in [("<", ">="), ("<=", ">"), (">", "<="),
                            (">=", "<"), ("=", "!="), ("!=", "=")]:
            assert outcomes(not_(p[op])) == outcomes(p[flipped]), op

    def test_de_morgan_and(self):
        assert outcomes(not_(and_(col("x") < 5, col("y") < 5))) == outcomes(
            or_(col("x") >= 5, col("y") >= 5))

    def test_de_morgan_or(self):
        assert outcomes(not_(or_(col("x") < 5, col("y") < 5))) == outcomes(
            and_(col("x") >= 5, col("y") >= 5))

    def test_double_negation(self):
        p = like(col("s"), "Alpine%")
        assert outcomes(not_(not_(p))) == outcomes(p)

    def test_like_wraps_in_not(self):
        flip = {"T": "F", "F": "T", "N": "N"}
        p = like(col("s"), "Alpine%")
        assert outcomes(not_(p)) == [
            frozenset(flip[o] for o in os) for os in outcomes(p)
        ]

    def test_literal(self):
        assert outcomes(not_(lit(True))) == outcomes(lit(False))
        assert outcomes(not_(lit(None))) == outcomes(lit(None))

    def test_paper_fig5_inversion(self):
        # species LIKE 'Alpine%' AND s >= 50
        #   -> species NOT LIKE 'Alpine%' OR s < 50   (§4.2): the inverted
        # pass proves no row of partition 3 matches it.
        inverted = or_(not_(like(col("species"), "Alpine%")), col("s") < 50)
        never = [
            p.pid for p in fig5_partitions()
            if p.stats.row_count and not can_match(eval3(inverted, p.stats))
        ]
        fully = [
            p.pid for p in fig5_partitions()
            if always_match(eval3(FIG5_PRED, p.stats))
        ]
        assert never == fully == [3]


class TestSemanticInversion:
    """On null-free data, NOT p selects exactly the complement of p."""

    FRAME = pd.DataFrame(
        {
            "x": [1, 5, 9, 15, 3],
            "y": [2.0, 0.5, 8.0, 1.0, 9.9],
            "s": ["Alpine Ibex", "Bear", "Alp", "Creek", "Alpine Fox"],
        }
    )

    @pytest.mark.parametrize("pred", PREDS, ids=lambda p: to_sql(p))
    def test_complement(self, pred):
        m = to_pandas_mask(pred, self.FRAME)
        mi = to_pandas_mask(not_(pred), self.FRAME)
        assert (m ^ mi).all(), "inversion must partition null-free rows"

    def test_nulls_fail_both(self):
        pdf = pd.DataFrame({"x": [1.0, None, 9.0]})
        p = col("x") > 5
        m, mi = to_pandas_mask(p, pdf), to_pandas_mask(not_(p), pdf)
        assert not m[1] and not mi[1]

