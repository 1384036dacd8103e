"""LIMIT pruning (§4): scan only enough fully-matching partitions.

If the fully-matching partitions together hold at least ``k`` rows,
the scan set shrinks to the minimal number of fully-matching partitions
covering ``k`` — globally IO-optimal for supported queries.
Otherwise the scan set is merely *reordered* to start with
fully-matching partitions (faster time-to-k, §4.1).

Fully-matching partitions are §4.2's inverted pass: those where the
inverted predicate provably matches no row.  They come out of the same
three-valued evaluation as filter pruning (``classify_scan_set``): a
partition is fully-matching iff TRUE is its only possible row outcome,
so FALSE (a row the inverted predicate matches) and NULL (a row that
fails the predicate and its inversion alike) are both ruled out.

Outcome categories mirror Table 2 of the paper.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .expr import Expr
from .filter_pruning import PruneResult, classify_scan_set

# Table 2 outcome categories (NO_FULLY_MATCHING is folded into
# "unsupported shapes" when reporting, matching the paper's text).
ALREADY_MINIMAL = "already_minimal"
UNSUPPORTED_SHAPE = "unsupported_shape"
NO_FULLY_MATCHING = "no_fully_matching"
PRUNED_TO_1 = "pruned_to_1"
PRUNED_TO_GT1 = "pruned_to_gt1"


@dataclass
class LimitPruneOutcome:
    """Result of LIMIT pruning one table scan."""

    category: str
    scan_set: List  # ordered: fully-matching first when not pruned
    filter_result: PruneResult
    k: int

    @property
    def reported_category(self) -> str:
        """Table 2 bucket (merges the two non-prunable reasons)."""
        if self.category == NO_FULLY_MATCHING:
            return UNSUPPORTED_SHAPE
        return self.category

    @property
    def pruning_ratio(self) -> float:
        """Partitions removed relative to the post-filter scan set."""
        before = len(self.filter_result.retained)
        return 1.0 - len(self.scan_set) / before if before else 0.0


def prune_for_limit(
    partitions: Sequence,
    pred: Optional[Expr],
    k: int,
    *,
    shape_supported: bool = True,
) -> LimitPruneOutcome:
    """Apply LIMIT pruning after filter pruning (§4.1's algorithm).

    ``shape_supported=False`` models queries where the LIMIT cannot be
    pushed down to this table scan (aggregations, most joins, …; §4.3).
    """
    parts, keep, is_fully = classify_scan_set(partitions, pred)
    fr = PruneResult.from_masks(parts, keep, is_fully)
    # Positions in ``parts``: fully-matching partitions biggest first
    # (stable), then the partially-matching ones in scan order.
    fully_idx = np.flatnonzero(is_fully)
    rows = parts.table.row_count[fully_idx]
    fully_idx = fully_idx[np.argsort(-rows, kind="stable")]
    partial_idx = np.flatnonzero(keep & ~is_fully)

    if not shape_supported:
        scan = parts.take(np.concatenate([fully_idx, partial_idx]))
        return LimitPruneOutcome(UNSUPPORTED_SHAPE, scan, fr, k)

    if len(fr.retained) <= 1:
        return LimitPruneOutcome(ALREADY_MINIMAL, parts.take(np.flatnonzero(keep)),
                                 fr, k)

    covered = np.cumsum(parts.table.row_count[fully_idx])
    if (covered[-1] if len(covered) else 0) >= k:
        # Minimal number of fully-matching partitions covering k rows:
        # biggest-first greedy is optimal for a count-coverage objective.
        n_chosen = int(np.searchsorted(covered, k, side="left")) + 1 if k > 0 else 0
        chosen = parts.take(fully_idx[:n_chosen])
        cat = PRUNED_TO_1 if len(chosen) <= 1 else PRUNED_TO_GT1
        return LimitPruneOutcome(cat, chosen, fr, k)

    scan = parts.take(np.concatenate([fully_idx, partial_idx]))
    return LimitPruneOutcome(NO_FULLY_MATCHING, scan, fr, k)
