"""Query streams with a steady mix: stratified draws from the generator."""
from __future__ import annotations

from typing import Dict, List

from repro.core.expr import columns


def query_shape(spec):
    pred_cols = tuple(sorted(columns(spec.pred))) if spec.pred is not None else ()
    build = spec.join.build_table if spec.join is not None else None
    return spec.qtype, spec.table, pred_cols, build


def stratified(sample: List, n: int) -> List:
    """``n`` queries of ``sample`` with each query shape (type, table,
    predicate columns, build table) in its share of the whole sample
    (largest remainder), taking each shape's first queries, in stream
    order.

    One run executes only ``n`` queries.  Drawn plainly, the count of
    costly shapes (joins, full scans) in ``n`` varies by seed more than
    the effects a change is measured by; drawn by the shares of a large
    sample, runs with different seeds differ in their queries, not in
    their mix.  Shapes rarer than one in ``n`` may be left out.
    """
    groups: Dict[tuple, List[int]] = {}
    for i, spec in enumerate(sample):
        groups.setdefault(query_shape(spec), []).append(i)
    exact = {k: len(v) * n / len(sample) for k, v in groups.items()}
    quota = {k: int(x) for k, x in exact.items()}
    by_remainder = sorted(groups, key=lambda k: (quota[k] - exact[k], groups[k][0]))
    for k in by_remainder[: n - sum(quota.values())]:
        quota[k] += 1
    picked = sorted(i for k, v in groups.items() for i in v[: quota[k]])
    return [sample[i] for i in picked]
