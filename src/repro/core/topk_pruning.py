"""Top-k pruning (§5): runtime boundary-value pruning for ORDER BY+LIMIT.

The runtime scan keeps the top-k order-column values seen so far; once k
rows are held, the k-th value (the **boundary**) prunes every partition
whose max (DESC ordering; min for ASC) cannot beat it.  Partitions are
processed in an order chosen from min/max metadata (§5.3), and the
boundary can be pre-initialized at compile time from fully-matching
partitions (§5.4), enabling pruning from the very first partition.

The partition scan inside the loop is the simulated warehouse worker: a
caller-supplied ``reader(meta) -> pandas.DataFrame``; the final query
result is produced by Spark over the retained scan set and checked in
tests against Spark over every partition (pruning preserves the top-k
*value multiset* — SQL top-k is nondeterministic among ties anyway).
"""
from __future__ import annotations

import datetime as _dt
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
import pandas as pd

from .expr import Expr, to_pandas_mask
from .stats import (
    DATE,
    DATETIME,
    FLOAT,
    INT,
    STR,
    PartitionList,
    PartitionStats,
    decode_values,
)


def _norm(v):
    """Align date-typed metadata with pandas' datetime64 heap values.

    Manifest stats store ``datetime.date``; partition reads surface the
    same column as ``pd.Timestamp``.  Python forbids comparing the two,
    so all boundary comparisons go through this coercion.
    """
    if isinstance(v, _dt.date) and not isinstance(v, _dt.datetime):
        return pd.Timestamp(v)
    return v

# -- supported plan shapes (§5.2, Fig. 7) -----------------------------------


@dataclass(frozen=True)
class PlanOp:
    """A relational operator sitting between the table scan and TopK.

    ``kind``: ``'filter'`` | ``'join'`` | ``'groupby'`` | other.
    For joins, ``order_col_from_probe`` says the ORDER BY column comes
    from the probe side; ``outer_build`` marks the (LEFT) OUTER JOIN
    build side case where the TopK can be replicated below the join.
    For group-bys, ``group_keys`` lists the grouping columns.
    """

    kind: str
    order_col_from_probe: bool = True
    outer_build: bool = False
    group_keys: Tuple[str, ...] = ()


def supports_topk_pruning(
    ops_between: Sequence[PlanOp], order_cols: Sequence[str]
) -> bool:
    """Can the TopK boundary reach this table scan? (Fig. 7 rules)

    * filters: always fine — the boundary forms from surviving rows;
    * joins: fine when the ORDER BY column comes from the probe side, or
      from the build side of a (LEFT) OUTER JOIN (TopK replication);
    * group-bys: fine iff the ORDER BY columns are a subset of the group
      keys (ordering on an aggregate breaks the boundary);
    * anything else is a pipeline breaker.
    """
    for op in ops_between:
        if op.kind == "filter":
            continue
        if op.kind == "join":
            if op.order_col_from_probe or op.outer_build:
                continue
            return False
        if op.kind == "groupby":
            if set(order_cols) <= set(op.group_keys):
                continue
            return False
        return False
    return True


# -- processing order (§5.3) ------------------------------------------------


def _stable_order(kind: str, keys: np.ndarray, desc: bool) -> np.ndarray:
    """Positions that sort ``keys`` like Python's stable ``sorted`` (ties
    keep their order, also with ``reverse=True``)."""
    if kind in (INT, STR, DATE, DATETIME) or (
        kind == FLOAT and not np.isnan(keys).any()
    ):
        if not desc:
            return np.argsort(keys, kind="stable")
        rev = np.argsort(keys[::-1], kind="stable")[::-1]
        return len(keys) - 1 - rev
    # NaN or mixed types: Python's own sort keeps today's order exactly.
    vals = decode_values(kind, keys).tolist()
    return np.array(sorted(range(len(vals)), key=vals.__getitem__, reverse=desc),
                    dtype=np.intp)


def order_partitions(
    partitions: Sequence,
    order_col: str,
    *,
    desc: bool = True,
    strategy: str = "sort",
    seed: int = 0,
) -> List:
    """Choose the partition processing order.

    ``'sort'``: by max DESC (resp. min ASC) so a tight boundary forms
    early; ``'random'``: the §5.3 baseline.  Partitions lacking stats for
    the order column go last (they cannot seed a good boundary).
    """
    if strategy == "random":
        parts = list(partitions)
        random.Random(seed).shuffle(parts)
        return parts
    if strategy != "sort":
        raise ValueError(f"unknown strategy {strategy!r}")

    parts = PartitionList.of(partitions)
    c = parts.table.column(order_col)
    keys, has = (c.hi, c.has_hi) if desc else (c.lo, c.has_lo)
    # Two-pass: stats-less partitions last, then by boundary tightness.
    with_stats = np.flatnonzero(has)
    order = with_stats[_stable_order(c.kind, keys[with_stats], desc)]
    return parts.take(np.concatenate([order, np.flatnonzero(~has)]))


# -- boundary initialization (§5.4) -----------------------------------------


def init_boundary(
    fully_matching: Sequence,
    order_col: str,
    k: int,
    *,
    desc: bool = True,
) -> Optional[object]:
    """Compile-time boundary from fully-matching partitions (§5.4).

    Two candidates, the stricter wins:

    * the k-th largest max (DESC) — each of the k best-max partitions
      contributes at least the row attaining its max;
    * sort by min DESC and take the min of the partition where the
      cumulative non-null row count first reaches k.

    (Mirrored for ASC.)  Returns ``None`` when no bound can be proven.
    """
    if k <= 0:
        return None
    parts = PartitionList.of(fully_matching)
    table = parts.table
    c = table.column(order_col)
    stated = c.present & ~c.all_null
    lo, hi = (c.lo, c.has_lo), (c.hi, c.has_hi)
    cand: List = []

    def stat(i: int, attr: str):
        return getattr(parts[int(i)].stats.col(order_col), attr)

    # k-th best of the partitions' max (DESC) / min (ASC)
    (keys, has), attr = (hi, "max") if desc else (lo, "min")
    ext = np.flatnonzero(stated & has)
    if len(ext) >= k:
        cand.append(stat(ext[_stable_order(c.kind, keys[ext], desc)[k - 1]], attr))

    # by min (DESC) / max (ASC): where the non-null row count reaches k
    (keys, has), attr = (lo, "min") if desc else (hi, "max")
    nn_rows = table.row_count - c.null_count
    ranked = np.flatnonzero(stated & has & (nn_rows > 0))
    ranked = ranked[_stable_order(c.kind, keys[ranked], desc)]
    hit = np.flatnonzero(np.cumsum(nn_rows[ranked]) >= k)
    if len(hit):
        cand.append(stat(ranked[hit[0]], attr))

    if not cand:
        return None
    return max(cand) if desc else min(cand)


# -- the runtime scan -------------------------------------------------------


@dataclass
class TopKScanResult:
    """Scan-set decision + accounting for one top-k runtime scan."""

    scanned: List = field(default_factory=list)
    pruned: List = field(default_factory=list)
    initial_boundary: Optional[object] = None
    final_boundary: Optional[object] = None
    boundary_history: List = field(default_factory=list)
    top_values: List = field(default_factory=list)

    @property
    def n_total(self) -> int:
        return len(self.scanned) + len(self.pruned)

    @property
    def pruning_ratio(self) -> float:
        return len(self.pruned) / self.n_total if self.n_total else 0.0


def _partition_prunable(
    stats: PartitionStats,
    order_col: str,
    boundary,
    desc: bool,
    heap_covers_boundary: bool,
) -> bool:
    """May this partition contribute a row beating the boundary?

    The boundary invariant is "the k-th best final value is at least
    ``boundary``", so values strictly worse than the boundary are always
    excludable.  Skipping a partition whose best value *ties* the
    boundary is only sound once the heap holds k scanned values at or
    above it (``heap_covers_boundary``) — then tied rows are
    interchangeable and the top-k value multiset is unchanged.  This
    distinction matters for §5.4 compile-time boundaries, whose k
    guaranteed rows may sit in not-yet-scanned partitions.

    A partition whose order column is entirely NULL sorts last and is
    skippable only once the heap is full of non-null values.
    """
    cs = stats.col(order_col)
    if cs is None:
        return False  # unknown stats: must scan
    if cs.all_null:
        return heap_covers_boundary
    try:
        best = _norm(cs.max if desc else cs.min)
        if (best < boundary) if desc else (best > boundary):
            return True
        if heap_covers_boundary:
            return (best <= boundary) if desc else (best >= boundary)
        return False
    except TypeError:
        return False


def topk_scan(
    partitions: Sequence,
    reader: Callable[[object], pd.DataFrame],
    order_col: str,
    k: int,
    *,
    pred: Optional[Expr] = None,
    desc: bool = True,
    strategy: str = "sort",
    seed: int = 0,
    initial_boundary: Optional[object] = None,
) -> TopKScanResult:
    """Run the §5.2 runtime loop over an (already filter-pruned) scan set.

    Sequentially processes partitions in the chosen order, maintaining
    the top-k order-value list; prunes each upcoming partition against
    the current boundary before reading it.
    """
    result = TopKScanResult(initial_boundary=initial_boundary)
    ordered = order_partitions(
        partitions, order_col, desc=desc, strategy=strategy, seed=seed
    )
    top = pd.Series(dtype="object")
    boundary = _norm(initial_boundary)

    for p in ordered:
        heap_full = k > 0 and len(top) == k
        heap_covers = bool(
            heap_full
            and boundary is not None
            and (
                (top.iloc[-1] >= boundary)
                if desc
                else (top.iloc[-1] <= boundary)
            )
        )
        if boundary is not None and _partition_prunable(
            p.stats, order_col, boundary, desc, heap_covers
        ):
            result.pruned.append(p)
            continue
        pdf = reader(p)
        if pred is not None and len(pdf):
            pdf = pdf[to_pandas_mask(pred, pdf)]
        vals = pdf[order_col].dropna() if len(pdf) else pd.Series(dtype="object")
        result.scanned.append(p)
        if len(vals):
            top = (
                vals.reset_index(drop=True)
                if top.empty
                else pd.concat([top, vals], ignore_index=True)
            )
            top = top.sort_values(ascending=not desc, ignore_index=True).head(k)
        if len(top) == k and k > 0:
            heap_edge = top.iloc[-1]
            if boundary is None or (
                heap_edge > boundary if desc else heap_edge < boundary
            ):
                boundary = heap_edge
        result.boundary_history.append(boundary)

    result.final_boundary = boundary
    result.top_values = top.tolist()
    return result
