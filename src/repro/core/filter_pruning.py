"""Filter pruning (§3): min/max scan-set pruning with three-way
partition classification.

Beyond the classic prune/keep decision, every retained partition is
classified as *partially-matching* or *fully-matching* (§4.2) — the
latter feeds LIMIT pruning and top-k boundary initialization.  A
partition is pruned iff its metadata proves no row can satisfy the
predicate (**no false negatives**), and fully-matching iff the metadata
proves every row satisfies it (no false "fully" claims).

:func:`prune_scan_set` classifies a whole scan set at once over the
columnar stats view (:func:`repro.core.vexpr.eval3_table`);
:func:`classify_partition` is the per-partition definition it agrees
with, kept as the test oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .expr import Expr, always_match, can_match, eval3
from .stats import PartitionList, PartitionStats
from .vexpr import eval3_table

#: Partition classification outcomes.
NOT_MATCHING = "not_matching"
PARTIALLY_MATCHING = "partially_matching"
FULLY_MATCHING = "fully_matching"


def classify_partition(pred: Optional[Expr], stats: PartitionStats) -> str:
    """Classify one partition against a predicate using only metadata.

    The scalar definition; :func:`prune_scan_set` computes the same
    classes for a whole scan set at once.

    ``pred=None`` (no WHERE clause) makes every non-empty partition
    trivially fully-matching (§4.2).  Empty partitions are always
    ``NOT_MATCHING`` — they cannot contribute rows.
    """
    if stats.row_count == 0:
        return NOT_MATCHING
    if pred is None:
        return FULLY_MATCHING
    try:
        outcomes = eval3(pred, stats)
    except (TypeError, ValueError):
        return PARTIALLY_MATCHING  # cannot prune on malformed metadata
    if not can_match(outcomes):
        return NOT_MATCHING
    if always_match(outcomes):
        return FULLY_MATCHING
    return PARTIALLY_MATCHING


@dataclass
class PruneResult:
    """Outcome of pruning one scan set.

    The three lists are :class:`~repro.core.stats.PartitionList` views
    sharing the input's columnar stats when ``prune_scan_set`` made them.
    """

    retained: List  # PartitionMeta, kept in scan set (partially ∪ fully)
    pruned: List  # PartitionMeta, removed
    fully_matching: List  # subset of retained proven all-matching

    @property
    def classifications(self) -> Dict[int, str]:
        """pid -> class, derived from the three lists on demand."""
        out = {p.pid: NOT_MATCHING for p in self.pruned}
        fully = {id(p) for p in self.fully_matching}
        for p in self.retained:
            out[p.pid] = FULLY_MATCHING if id(p) in fully else PARTIALLY_MATCHING
        return out

    @classmethod
    def from_masks(cls, parts: PartitionList, keep: np.ndarray,
                   fully: np.ndarray) -> "PruneResult":
        """The result for boolean masks over ``parts`` (as returned by
        :func:`classify_scan_set`)."""
        return cls(
            retained=parts.take(np.flatnonzero(keep)),
            pruned=parts.take(np.flatnonzero(~keep)),
            fully_matching=parts.take(np.flatnonzero(fully)),
        )

    @property
    def n_total(self) -> int:
        return len(self.retained) + len(self.pruned)

    @property
    def pruning_ratio(self) -> float:
        """Fraction of the original scan set removed (paper's metric)."""
        return len(self.pruned) / self.n_total if self.n_total else 0.0


def classify_scan_set(
    partitions: Sequence, pred: Optional[Expr]
) -> Tuple[PartitionList, np.ndarray, np.ndarray]:
    """``(partitions, keep, fully)``: the scan set as a PartitionList and
    boolean masks of its retained and fully-matching partitions — the
    classes :func:`classify_partition` gives, for all partitions at once."""
    parts = PartitionList.of(partitions)
    table = parts.table
    nonempty = table.row_count > 0
    if pred is None:
        return parts, nonempty, nonempty
    try:
        o = eval3_table(pred, table)
    except (TypeError, ValueError):  # malformed predicate: cannot prune
        return parts, nonempty, np.zeros(table.n, dtype=bool)
    keep = nonempty & (o.t | o.err)
    fully = nonempty & ~o.err & o.t & ~o.f & ~o.n
    return parts, keep, fully


def prune_scan_set(partitions: Sequence, pred: Optional[Expr]) -> PruneResult:
    """Prune a scan set (list of ``PartitionMeta``) against a predicate."""
    return PruneResult.from_masks(*classify_scan_set(partitions, pred))
