"""Unit tests for interval arithmetic (core of §3.1 range derivation)."""
import datetime as dt

import pytest

from repro.core import intervals as iv
from repro.core.intervals import TOP, Interval


class TestIntervalBasics:
    def test_point(self):
        p = iv.point(5)
        assert p.is_point and p.lo == p.hi == 5

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(3, 2)

    def test_unbounded_not_point(self):
        assert not TOP.is_point
        assert not Interval(None, 5).is_point

    def test_contains(self):
        i = Interval(1, 10)
        assert i.contains(1) and i.contains(10) and i.contains(5)
        assert not i.contains(0) and not i.contains(11)

    def test_contains_unbounded(self):
        assert TOP.contains(-1e18) and TOP.contains(1e18)
        assert Interval(None, 5).contains(-100)
        assert not Interval(None, 5).contains(6)
        assert Interval(5, None).contains(100)

    def test_string_interval(self):
        i = Interval("apple", "mango")
        assert i.contains("banana")
        assert not i.contains("zebra")

    def test_date_interval(self):
        i = Interval(dt.date(2024, 1, 1), dt.date(2024, 6, 1))
        assert i.contains(dt.date(2024, 3, 1))
        assert not i.contains(dt.date(2025, 1, 1))


class TestOverlap:
    def test_overlapping(self):
        assert Interval(1, 5).overlaps(Interval(5, 9))
        assert Interval(1, 5).overlaps(Interval(0, 2))

    def test_disjoint(self):
        assert not Interval(1, 5).overlaps(Interval(6, 9))
        assert not Interval(6, 9).overlaps(Interval(1, 5))

    def test_unbounded_overlap(self):
        assert TOP.overlaps(Interval(1, 2))
        assert Interval(None, 0).overlaps(Interval(0, None))
        assert not Interval(None, -1).overlaps(Interval(0, None))

    def test_entirely_lt(self):
        assert Interval(1, 2).entirely_lt(Interval(3, 4))
        assert not Interval(1, 3).entirely_lt(Interval(3, 4))
        assert not TOP.entirely_lt(Interval(3, 4))

    def test_entirely_le(self):
        assert Interval(1, 3).entirely_le(Interval(3, 4))
        assert not Interval(1, 5).entirely_le(Interval(3, 4))


class TestArithmetic:
    def test_add(self):
        assert iv.add(Interval(1, 2), Interval(10, 20)) == Interval(11, 22)

    def test_add_unbounded(self):
        assert iv.add(Interval(1, None), Interval(1, 2)) == Interval(2, None)

    def test_sub(self):
        assert iv.sub(Interval(10, 20), Interval(1, 2)) == Interval(8, 19)

    def test_mul_positive(self):
        assert iv.mul(Interval(2, 3), Interval(4, 5)) == Interval(8, 15)

    def test_mul_mixed_signs(self):
        assert iv.mul(Interval(-2, 3), Interval(-4, 5)) == Interval(-12, 15)

    def test_mul_scalar_scaling_paper_example(self):
        # §3.1: altit in [934, 7674] scaled by 0.3048.
        out = iv.mul(Interval(934, 7674), iv.point(0.3048))
        assert out.lo == pytest.approx(284.6832)
        assert out.hi == pytest.approx(2339.0352)

    def test_mul_unbounded_degrades(self):
        assert iv.mul(Interval(None, 3), Interval(1, 2)) == TOP

    def test_div(self):
        assert iv.div(Interval(10, 20), Interval(2, 5)) == Interval(2, 10)

    def test_div_by_zero_spanning(self):
        assert iv.div(Interval(10, 20), Interval(-1, 1)) == TOP

    def test_hull(self):
        assert iv.hull([Interval(1, 2), Interval(5, 9)]) == Interval(1, 9)

    def test_hull_unbounded(self):
        assert iv.hull([Interval(1, 2), Interval(None, 0)]) == Interval(None, 2)

    def test_hull_if_example(self):
        # §3.1: hull of scaled range and original range.
        out = iv.hull([Interval(284.6832, 2339.0352), Interval(934, 7674)])
        assert out == Interval(284.6832, 7674)


class TestPrefix:
    def test_successor_simple(self):
        assert iv.prefix_successor("abc") == "abd"

    def test_successor_carries(self):
        assert iv.prefix_successor("a" + chr(0x10FFFF)) == "b"

    def test_successor_none(self):
        assert iv.prefix_successor(chr(0x10FFFF)) is None
        assert iv.prefix_successor("") is None

    def test_prefix_overlap_hit(self):
        assert iv.prefix_overlap(Interval("Basecamp", "Unmarked"), "Marked-")

    def test_prefix_overlap_miss_above(self):
        assert not iv.prefix_overlap(Interval("Nest", "Zebra"), "Marked-")

    def test_prefix_overlap_miss_below(self):
        assert not iv.prefix_overlap(Interval("Alpha", "Creek"), "Marked-")

    def test_prefix_overlap_boundary(self):
        # max exactly equals prefix -> a value equal to the prefix matches.
        assert iv.prefix_overlap(Interval("Alpha", "Marked-"), "Marked-")

    def test_prefix_covers(self):
        assert iv.prefix_covers(
            Interval("Alpine Chamois", "Alpine Marmot"), "Alpine"
        )
        assert not iv.prefix_covers(Interval("Alpine", "Bear"), "Alpine")

    def test_prefix_covers_needs_both_bounds(self):
        assert not iv.prefix_covers(Interval(None, "Alpine Z"), "Alpine")
