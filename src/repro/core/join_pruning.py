"""Join pruning (§6): build-side value summaries prune probe partitions.

The hash join's build side is summarized into a compact, bounded-size
structure (§6.1 step 1), conceptually shipped to the probe side (step 2),
and overlapped with probe-side partition min/max metadata (step 3) to
prune whole micro-partitions before they are loaded (step 4).

Snowflake's summary format is proprietary; we substitute a **range
summary** — the sorted distinct build keys merged into at most ``B``
intervals by keeping the ``B−1`` widest gaps as splits.  It matches the
published behaviour: a small fraction of build-side size, probabilistic
in the false-positive direction only (a partition overlapping a summary
range may still hold no joinable key), and never a false negative (every
build key is covered by some range).  An empty build side yields an
empty summary that prunes the entire probe scan — the 100 %-pruning mode
visible in Fig. 10.
"""
from __future__ import annotations

import bisect
import datetime as _dt
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .filter_pruning import PruneResult
from .stats import (
    DATE,
    DATETIME,
    FLOAT,
    INT,
    STR,
    PartitionList,
    decode_values,
    encode_values,
)


def _gap_key(a, b) -> float:
    """Numeric gap between consecutive sorted values, for merge ranking.

    Dates/datetimes map to ordinals/timestamps; for domains without a
    meaningful metric (strings), the caller falls back to equal-count
    chunking.
    """
    if isinstance(a, _dt.datetime):
        return (b - a).total_seconds()
    if isinstance(a, _dt.date):
        return float(b.toordinal() - a.toordinal())
    return float(b - a)


@dataclass(frozen=True)
class RangeSummary:
    """≤B sorted, disjoint closed ranges covering every build-side key."""

    ranges: Tuple[Tuple[object, object], ...]
    n_values: int

    @classmethod
    def build(cls, values: Iterable, max_ranges: int = 64) -> "RangeSummary":
        vals = sorted(set(v for v in values if v is not None))
        if not vals:
            return cls(ranges=(), n_values=0)
        if max_ranges < 1:
            raise ValueError("max_ranges must be >= 1")
        if len(vals) <= max_ranges:
            return cls(
                ranges=tuple((v, v) for v in vals), n_values=len(vals)
            )
        try:
            gaps = [
                (_gap_key(vals[i], vals[i + 1]), i)
                for i in range(len(vals) - 1)
            ]
            # Keep the B-1 widest gaps as split points.
            splits = sorted(i for _, i in sorted(gaps, reverse=True)[: max_ranges - 1])
        except TypeError:
            # No numeric metric (e.g. strings): equal-count chunks.
            step = -(-len(vals) // max_ranges)
            splits = [
                i - 1 for i in range(step, len(vals), step)
            ]
        ranges: List[Tuple[object, object]] = []
        start = 0
        for s in splits:
            ranges.append((vals[start], vals[s]))
            start = s + 1
        ranges.append((vals[start], vals[-1]))
        return cls(ranges=tuple(ranges), n_values=len(vals))

    @property
    def is_empty(self) -> bool:
        return not self.ranges

    @cached_property
    def _los(self) -> List:
        return [r[0] for r in self.ranges]

    @cached_property
    def _encoded(self) -> Tuple[str, np.ndarray, np.ndarray]:
        """Kind plus native arrays of the range starts and ends."""
        n = len(self.ranges)
        kind, both = encode_values(self._los + [r[1] for r in self.ranges])
        return kind, both[:n], both[n:]

    def may_contain(self, v) -> bool:
        if v is None or self.is_empty:
            return False
        i = bisect.bisect_right(self._los, v) - 1
        return i >= 0 and v <= self.ranges[i][1]

    def overlaps_interval(self, lo, hi) -> bool:
        """Does any summary range intersect the closed [lo, hi]?

        Unknown bounds (None) force a conservative True — the probe
        partition must then be scanned.
        """
        if self.is_empty:
            return False
        if lo is None or hi is None:
            return True
        i = bisect.bisect_right(self._los, hi) - 1
        return i >= 0 and self.ranges[i][1] >= lo

    def overlaps_columns(self, kind: str, lo: np.ndarray, hi: np.ndarray,
                         mask: np.ndarray) -> np.ndarray:
        """:meth:`overlaps_interval` for every ``[lo[j], hi[j]]`` where
        ``mask``, given as native arrays of one value kind
        (:func:`repro.core.stats.encode_values`); False elsewhere.

        Uses ``np.searchsorted`` when numpy orders these values as Python
        does, else the scalar method on the Python values.  A ``TypeError``
        (values the summary cannot be compared with) means overlap.
        """
        out = np.zeros(len(mask), dtype=bool)
        if self.is_empty or not mask.any():
            return out
        skind, los, his = self._encoded
        if kind == skind and kind in (INT, STR, DATE, DATETIME) or (
            kind == skind == FLOAT and not np.isnan(los).any()
        ):
            i = np.searchsorted(los, hi[mask], side="right") - 1
            out[mask] = (i >= 0) & (his[np.maximum(i, 0)] >= lo[mask])
            return out
        xl, xh = decode_values(kind, lo), decode_values(kind, hi)
        for j in np.flatnonzero(mask).tolist():
            try:
                out[j] = self.overlaps_interval(xl[j], xh[j])
            except TypeError:
                out[j] = True
        return out


def prune_probe_partitions(
    partitions: Sequence, probe_key: str, summary: RangeSummary
) -> PruneResult:
    """§6.1 steps 3+4: drop probe partitions disjoint from the summary.

    Empty partitions and partitions whose key is entirely NULL go (NULL
    keys never match an equi-join); partitions without stats for the key
    stay; the rest stay iff their [min, max] overlaps a summary range.
    """
    parts = PartitionList.of(partitions)
    table = parts.table
    c = table.column(probe_key)
    nonempty = table.row_count > 0
    test = nonempty & c.present & ~c.all_null
    unbounded = test & ~(c.has_lo & c.has_hi)
    keep = (nonempty & ~c.present) | (unbounded & (not summary.is_empty))
    keep |= summary.overlaps_columns(c.kind, c.lo, c.hi, test & ~unbounded)
    return PruneResult(
        retained=parts.take(np.flatnonzero(keep)),
        pruned=parts.take(np.flatnonzero(~keep)),
        fully_matching=[],
    )

