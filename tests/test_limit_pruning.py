"""Tests for LIMIT pruning (§4): fully-matching identification + minimal
scan-set construction + Table 2 categorization."""
import pytest

from repro.core.expr import and_, col, like
from repro.core.filter_pruning import (
    FULLY_MATCHING,
    classify_partition,
    prune_scan_set,
)
from repro.core.limit_pruning import (
    ALREADY_MINIMAL,
    NO_FULLY_MATCHING,
    PRUNED_TO_1,
    PRUNED_TO_GT1,
    UNSUPPORTED_SHAPE,
    prune_for_limit,
)
from repro.lake.manifest import PartitionMeta
from .helpers import meta
from .test_filter_pruning import FIG5_PRED, fig5_partitions


class TestInvertedPass:
    """§4.2's inverted pass is the fully-matching class of the one
    three-valued evaluation; the vectorized scan-set classification and
    the per-partition ``classify_partition`` agree on it."""

    def test_fig5_identifies_partition3(self):
        parts = fig5_partitions()
        retained = prune_scan_set(parts, FIG5_PRED).retained
        fully = prune_scan_set(retained, FIG5_PRED).fully_matching
        assert [p.pid for p in fully] == [3]

    def test_agrees_with_classification(self):
        parts = [meta(i, 10, x=(i * 10, i * 10 + 9)) for i in range(10)]
        pred = col("x") >= 45
        direct = {p.pid for p in prune_scan_set(parts, pred).fully_matching}
        scalar = {
            p.pid for p in parts
            if classify_partition(pred, p.stats) == FULLY_MATCHING
        }
        assert direct == scalar == {5, 6, 7, 8, 9}

    def test_nulls_block_fully_matching(self):
        # All non-null values match but null rows fail the predicate.
        parts = [meta(0, 10, x=(50, 90, 3))]
        assert classify_partition(col("x") >= 45, parts[0].stats) != FULLY_MATCHING
        assert prune_scan_set(parts, col("x") >= 45).fully_matching == []


def ten_parts(rows=100):
    return [meta(i, rows, x=(i * 10, i * 10 + 9)) for i in range(10)]


class TestPruneForLimit:
    def test_paper_limit3_scenario(self):
        """§4.1: LIMIT 3 on Fig. 5 needs only partition 3."""
        out = prune_for_limit(fig5_partitions(), FIG5_PRED, 3)
        assert out.category == PRUNED_TO_1
        assert [p.pid for p in out.scan_set] == [3]

    def test_limit_exceeding_fully_rows_not_prunable(self):
        # Partition 3 holds 4 rows; k=5 exceeds them.
        out = prune_for_limit(fig5_partitions(), FIG5_PRED, 5)
        assert out.category == NO_FULLY_MATCHING
        # Fully-matching partitions lead the scan order (§4.1).
        assert out.scan_set[0].pid == 3

    def test_no_predicate_all_fully(self):
        out = prune_for_limit(ten_parts(), None, 150)
        assert out.category == PRUNED_TO_GT1
        assert len(out.scan_set) == 2

    def test_no_predicate_single_partition_enough(self):
        out = prune_for_limit(ten_parts(), None, 10)
        assert out.category == PRUNED_TO_1
        assert len(out.scan_set) == 1

    def test_limit_zero(self):
        out = prune_for_limit(ten_parts(), None, 0)
        assert out.category == PRUNED_TO_1
        assert out.scan_set == []

    def test_already_minimal(self):
        out = prune_for_limit(ten_parts(), col("x") >= 95, 5)
        assert out.category == ALREADY_MINIMAL
        assert len(out.scan_set) == 1

    def test_already_minimal_empty(self):
        out = prune_for_limit(ten_parts(), col("x") >= 1000, 5)
        assert out.category == ALREADY_MINIMAL
        assert out.scan_set == []

    def test_unsupported_shape(self):
        out = prune_for_limit(ten_parts(), None, 5, shape_supported=False)
        assert out.category == UNSUPPORTED_SHAPE
        assert len(out.scan_set) == 10  # scan set untouched

    def test_unsupported_reported_bucket(self):
        out = prune_for_limit(fig5_partitions(), FIG5_PRED, 5)
        assert out.reported_category == UNSUPPORTED_SHAPE

    def test_minimal_cover_uses_largest_partitions(self):
        parts = [
            meta(0, 30, x=(0, 9)),
            meta(1, 100, x=(0, 9)),
            meta(2, 60, x=(0, 9)),
        ]
        out = prune_for_limit(parts, col("x") >= 0, 120)
        assert out.category == PRUNED_TO_GT1
        assert [p.pid for p in out.scan_set] == [1, 2]

    def test_exact_k_boundary(self):
        parts = [meta(0, 50, x=(0, 9)), meta(1, 50, x=(0, 9))]
        out = prune_for_limit(parts, None, 50)
        assert out.category == PRUNED_TO_1
        out = prune_for_limit(parts, None, 51)
        assert out.category == PRUNED_TO_GT1

    def test_pruning_ratio(self):
        out = prune_for_limit(ten_parts(), None, 10)
        assert out.pruning_ratio == pytest.approx(0.9)

    def test_mixed_fully_and_partial(self):
        # Predicate x >= 45: partitions 5..9 fully, 4 partial.
        out = prune_for_limit(ten_parts(), col("x") >= 45, 100)
        assert out.category == PRUNED_TO_1
        assert len(out.scan_set) == 1
        out = prune_for_limit(ten_parts(), col("x") >= 45, 450)
        assert out.category == PRUNED_TO_GT1
        assert len(out.scan_set) == 5
        out = prune_for_limit(ten_parts(), col("x") >= 45, 501)
        assert out.category == NO_FULLY_MATCHING


class TestLargeScanSet:
    """LIMIT pruning over 10⁴ partitions never compares partitions with
    ``==`` (a list-membership test made it quadratic)."""

    @staticmethod
    def greedy(parts, fully_pids, k):
        fully = sorted((p for p in parts if p.pid in fully_pids),
                       key=lambda p: -p.row_count)
        chosen, covered = [], 0
        for p in fully:
            if covered >= k:
                break
            chosen.append(p.pid)
            covered += p.row_count
        return chosen

    @pytest.mark.parametrize("with_pred", [False, True])
    def test_biggest_first_greedy_without_eq(self, monkeypatch, with_pred):
        parts = [meta(i, 1 + (i * 7919) % 97, x=(i, i + 1)) for i in range(10_000)]
        pred = col("x") >= 5_000 if with_pred else None
        fully_pids = {p.pid for p in parts if not with_pred or p.pid >= 5_000}
        k = 20_000
        expected = self.greedy(parts, fully_pids, k)

        def no_eq(self, other):
            raise AssertionError("PartitionMeta compared with ==")

        monkeypatch.setattr(PartitionMeta, "__eq__", no_eq)
        out = prune_for_limit(parts, pred, k)
        assert out.category == PRUNED_TO_GT1
        assert [p.pid for p in out.scan_set] == expected

    def test_partial_partitions_follow_fully_ones(self, monkeypatch):
        parts = [meta(i, 10, x=(i, i + 1)) for i in range(10_000)]
        monkeypatch.setattr(PartitionMeta, "__eq__", lambda s, o: 1 / 0)
        out = prune_for_limit(parts, col("x") >= 9_990, 10_000)
        assert out.category == NO_FULLY_MATCHING
        # 9990..9999 fully (x in [i, i+1] >= 9990), 9989 partial.
        assert [p.pid for p in out.scan_set] == list(range(9_990, 10_000)) + [9_989]
