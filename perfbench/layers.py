"""Per-layer metrics, computed from the spans of a traced run.

Every workload reports every metric; a layer a workload does not call
reads 0.  Which end-to-end metric each one should move, and on which
workload, is recorded in ``rationale.json``.
"""
from __future__ import annotations

from typing import Dict, Optional

from common import Tracer, median, metric


def _sum(tr: Tracer, name: str, key: Optional[str] = None) -> float:
    spans = tr.named(name)
    if key is None:
        return sum(s.ms for s in spans)
    return sum(s.counts.get(key, 0) for s in spans)


def _per_call(tr: Tracer, name: str, key: str) -> float:
    spans = tr.named(name)
    return _sum(tr, name, key) / len(spans) if spans else 0.0


def _median_ms(tr: Tracer, name: str) -> float:
    return median(s.ms for s in tr.named(name))


def _us_per_partition(tr: Tracer, name: str) -> float:
    parts = _sum(tr, name, "partitions_in")
    return _sum(tr, name) * 1e3 / parts if parts else 0.0


def layer_metrics(
    tr: Tracer,
    *,
    lakes_written: int,
    lake_loads: int,
    manifest_bytes: int,
    manifest_partitions: int,
    overhead_ms_p50: float,
    comparison_failures: int,
) -> Dict[str, dict]:
    """All per-layer metrics named in BENCHMARK.json, by name."""
    limit = tr.named("core.limit")
    return {
        "lake.manifest_load_ms": metric(
            _sum(tr, "lake.manifest_load") / max(lake_loads, 1), "ms"),
        "lake.manifest_save_ms": metric(
            _sum(tr, "lake.manifest_save") / max(lakes_written, 1), "ms"),
        "lake.manifest_bytes_per_partition": metric(
            manifest_bytes / max(manifest_partitions, 1), "B"),
        "lake.write_s": metric(
            _sum(tr, "lake.write") / 1e3 / max(lakes_written, 1), "s"),
        "workload.generate_s": metric(
            sum(tr.self_ms_of("workload.build")) / 1e3
            / max(lakes_written, 1), "s"),
        "lake.scan_ms": metric(_median_ms(tr, "lake.scan"), "ms"),
        "lake.read_partition_ms": metric(
            _median_ms(tr, "lake.read_partition"), "ms"),
        "lake.read_partition_calls": metric(
            len(tr.named("lake.read_partition"))
            / max(len(tr.named("core.flow")), 1), "count"),
        "core.flow.ms": metric(_median_ms(tr, "core.flow"), "ms"),
        "core.flow.self_ms": metric(median(tr.self_ms_of("core.flow")), "ms"),
        "core.filter.us_per_partition": metric(
            _us_per_partition(tr, "core.filter"), "us"),
        "core.filter.partitions_in": metric(
            _per_call(tr, "core.filter", "partitions_in"), "count"),
        "core.filter.partitions_out": metric(
            _per_call(tr, "core.filter", "partitions_out"), "count"),
        "core.limit.ms": metric(
            sum(s.ms for s in limit) / len(limit) if limit else 0.0, "ms"),
        "core.limit.max_ms": metric(max((s.ms for s in limit), default=0.0), "ms"),
        "core.limit.partitions_out": metric(
            _per_call(tr, "core.limit", "partitions_out"), "count"),
        "core.topk.init_ms": metric(_median_ms(tr, "core.topk.init"), "ms"),
        "core.topk.scan_ms": metric(_median_ms(tr, "core.topk.scan"), "ms"),
        "core.topk.partitions_read": metric(
            _per_call(tr, "core.topk.scan", "partitions_read"), "count"),
        "core.topk.partitions_pruned": metric(
            _per_call(tr, "core.topk.scan", "partitions_pruned"), "count"),
        "core.join.summary_build_ms": metric(
            _median_ms(tr, "core.join.summary_build"), "ms"),
        "core.join.summary_ranges": metric(
            _per_call(tr, "core.join.summary_build", "ranges"), "count"),
        "core.join.probe_us_per_partition": metric(
            _us_per_partition(tr, "core.join.probe"), "us"),
        "spark.exec_ms": metric(_median_ms(tr, "spark.exec"), "ms"),
        "spark.bytes_scanned": metric(
            _per_call(tr, "spark.exec", "bytes_scanned"), "B"),
        "core.pruning_tree.us_per_partition": metric(
            _us_per_partition(tr, "core.pruning_tree"), "us"),
        "core.pruning_tree.exact_us_per_partition": metric(
            _us_per_partition(tr, "core.pruning_tree.exact"), "us"),
        "core.pruning_tree.partitions_out": metric(
            _per_call(tr, "core.pruning_tree", "partitions_out"), "count"),
        "engine.lakescan_ms": metric(_median_ms(tr, "engine.lakescan"), "ms"),
        "engine.tablescan_ms": metric(_median_ms(tr, "engine.tablescan"), "ms"),
        "trace.overhead_ms_p50": metric(overhead_ms_p50, "ms"),
        "trace.failed_calls": metric(sum(tr.failures().values()), "count"),
        "trace.comparison_failures": metric(comparison_failures, "count"),
    }
