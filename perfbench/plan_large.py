"""``plan_large``: compile-time pruning over a large metadata-only lake.

Set-up synthesizes the five layouts of ``build_production_lake`` at a
multiple of their scale-1 partition counts, without Parquet files, and
writes each manifest with ``Manifest.save``.  One pass of the run loads
the five manifests with ``Manifest.load`` and plans a seeded stream that
interleaves equal thirds of the Table 3 mix, the Table 2 LIMIT
population and the Table 5 top-k population.  Planning calls only the
compile-time functions of ``repro.core``; no Spark is started.
"""
from __future__ import annotations

import datetime as _dt
import hashlib
import json
import time
from pathlib import Path
from typing import Dict, List

import numpy as np
import pandas as pd

from repro.core.expr import to_pandas_mask
from repro.core.filter_pruning import prune_scan_set
from repro.core.join_pruning import RangeSummary, prune_probe_partitions
from repro.core.limit_pruning import prune_for_limit
from repro.core.pruning_tree import AdaptivePruner
from repro.core.query import LIMIT
from repro.core.stats import ColStats, PartitionStats
from repro.core.topk_pruning import (
    init_boundary,
    order_partitions,
    supports_topk_pruning,
)
from repro.lake import LakeTable, Manifest, PartitionMeta
from repro.workload.generator import LakeShape, WorkloadGenerator
from repro.workload.tables import COUNTRIES, ETYPES, EVENT_DAYS, EVENT_EPOCH

from common import MIN_SAMPLES, Run, Samples, timed, dir_bytes, median, metric, p90, peak_rss_mb
from layers import layer_metrics
from streams import stratified

#: Multiple of the scale-1 partition counts (events 40, users 10, blob 8).
FACTOR = 25
TOY_FACTOR = 2
#: Distinct queries in the stream (a multiple of 3: equal thirds).
STREAM = 1200
TOY_STREAM = 30
SETUP_REPEATS = 3
SHAPE_SAMPLE = 3_000
SUMMARY_MAX_RANGES = 64

#: Digests of the retained partition ids of every query in the stream,
#: per (seed, toy) — the stored expectation for the default seed.
EXPECTED_PATH = Path(__file__).with_name("expected_digests.json")

_TYPES = {"int": "long", "float": "double", "str": "string", "date": "date"}


def _schema_json(cols: Dict[str, str]) -> str:
    return json.dumps({
        "type": "struct",
        "fields": [
            {"name": c, "type": _TYPES[t], "nullable": True, "metadata": {}}
            for c, t in cols.items()
        ],
    })


def _manifest(name: str, frame: Dict[str, np.ndarray], types: Dict[str, str],
              n_parts: int) -> Manifest:
    """Per-partition stats of ``frame`` split into equal row chunks, in
    its row order (the layout decides that order)."""
    n_rows = len(next(iter(frame.values())))
    bounds = np.linspace(0, n_rows, n_parts + 1).astype(int)
    mins, maxs = {}, {}
    for c, v in frame.items():
        mins[c] = np.minimum.reduceat(v, bounds[:-1]).tolist()
        maxs[c] = np.maximum.reduceat(v, bounds[:-1]).tolist()
    decode = {
        "str": lambda c: (lambda i: _CATS[c][i]),
        "date": lambda c: (lambda d: EVENT_EPOCH + _dt.timedelta(days=d)),
    }
    parts = []
    for pid in range(n_parts):
        cols = {}
        for c, t in types.items():
            f = decode[t](c) if t in decode else (lambda x: x)
            cols[c] = ColStats(min=f(mins[c][pid]), max=f(maxs[c][pid]),
                               null_count=0)
        parts.append(PartitionMeta(
            pid=pid,
            path=f"{name}/data/part-{pid:05d}.parquet",
            stats=PartitionStats(
                row_count=int(bounds[pid + 1] - bounds[pid]), columns=cols
            ),
        ))
    return Manifest(name=name, schema_json=_schema_json(types),
                    column_types=dict(types), partitions=parts)


#: Sorted category domains: codes index into these, so per-partition
#: code min/max map to string min/max.
_CATS = {
    "etype": sorted(ETYPES),
    "country": sorted(COUNTRIES),
    "assignee": sorted(COUNTRIES),
    "cat": list("ABCDEFGH"),
    "label": sorted(f"status-{i}" for i in range(64)),
}


def synth_lake(seed: int, factor: int):
    """Manifests plus the small build-side frames the join keys come from.

    Mirrors ``build_production_lake``'s layouts and row counts per
    partition: events clustered on ``ts`` with monotone ``event_id``,
    users clustered on ``user_id``, incidents a contiguous recent
    ``event_id`` block, blob randomly laid out, tiny a single partition.
    """
    g = np.random.default_rng(seed)
    ev_parts, ev_rows = 40 * factor, 40_000 * factor
    day = np.sort(g.integers(0, EVENT_DAYS, ev_rows))
    events = {
        "event_id": np.arange(1, ev_rows + 1),
        "ts": day,
        "user_id": g.integers(1, ev_rows // 20, ev_rows),
        "etype": g.integers(0, len(ETYPES), ev_rows),
        "amount": (g.random(ev_rows) * 1000).round(2),
        "duration": g.integers(1, 3600, ev_rows),
        "country": g.integers(0, len(COUNTRIES), ev_rows),
    }
    del day
    ev_types = {"event_id": "int", "ts": "date", "user_id": "int",
                "etype": "str", "amount": "float", "duration": "int",
                "country": "str"}

    us_rows = 5_000 * factor
    users = {
        "user_id": np.arange(1, us_rows + 1),
        "signup_day": g.integers(0, EVENT_DAYS, us_rows),
        "country": g.integers(0, len(COUNTRIES), us_rows),
        "score": (g.random(us_rows) * 100).round(3),
    }
    us_types = {"user_id": "int", "signup_day": "int", "country": "str",
                "score": "float"}

    inc_rows = max(50, 300 * factor)
    inc = {
        "event_id": np.sort(g.integers(int(ev_rows * 0.9), ev_rows + 1, inc_rows)),
        "severity": g.integers(1, 6, inc_rows),
        "assignee": g.integers(0, len(COUNTRIES), inc_rows),
    }
    inc_types = {"event_id": "int", "severity": "int", "assignee": "str"}

    bl_rows = 8_000 * factor
    blob = {
        "k": g.integers(1, bl_rows, bl_rows),
        "v": g.random(bl_rows).round(6),
        "cat": g.integers(0, 8, bl_rows),
        "score": (g.random(bl_rows) * 100).round(3),
    }
    bl_types = {"k": "int", "v": "float", "cat": "str", "score": "float"}

    tiny = {
        "status_id": np.arange(1, 65),
        "label": np.arange(64),
        "weight": g.random(64).round(4),
    }
    tiny_types = {"status_id": "int", "label": "str", "weight": "float"}

    manifests = {
        "events": _manifest("events", events, ev_types, ev_parts),
        "users": _manifest("users", users, us_types, 10 * factor),
        "incidents": _manifest("incidents", inc, inc_types, 2),
        "blob": _manifest("blob", blob, bl_types, 8 * factor),
        "tiny": _manifest("tiny", tiny, tiny_types, 1),
    }
    build_frames = {
        "users": pd.DataFrame({"user_id": users["user_id"],
                               "signup_day": users["signup_day"],
                               "score": users["score"]}).assign(
            country=np.array(_CATS["country"])[users["country"]]),
        "incidents": pd.DataFrame({"event_id": inc["event_id"],
                                   "severity": inc["severity"]}).assign(
            assignee=np.array(_CATS["assignee"])[inc["assignee"]]),
    }
    return manifests, build_frames


def make_stream(gen: WorkloadGenerator, n: int) -> List:
    """Equal thirds of the Table 3 mix, the Table 2 LIMIT population and
    the Table 5 top-k population, interleaved; each third a stratified
    draw from ``SHAPE_SAMPLE`` generated queries."""
    third = n // 3
    mix = stratified(gen.generate(SHAPE_SAMPLE), third)
    limits = stratified(gen.generate_limit_workload(SHAPE_SAMPLE), third)
    topks = stratified(gen.generate_topk_workload(SHAPE_SAMPLE, k_cap=100), third)
    return [q for triple in zip(mix, limits, topks) for q in triple]


def _filter(tr, parts, pred):
    with tr.span("core.filter") as sp:
        fr = prune_scan_set(parts, pred)
        sp.count("partitions_in", len(parts))
        sp.count("partitions_out", len(fr.retained))
    return fr


def plan_query(tr, spec, manifests, build_keys):
    """Compile-time planning of one query; returns (main, build, touched)."""
    main = manifests[spec.table].partitions
    touched = len(main)
    fr = _filter(tr, main, spec.pred)
    scan = fr.retained
    build_scan: List = []
    if spec.join is not None:
        j = spec.join
        build = manifests[j.build_table].partitions
        touched += len(build)
        build_scan = _filter(tr, build, j.build_pred).retained
        with tr.span("core.join.summary_build") as sp:
            summary = RangeSummary.build(build_keys, max_ranges=SUMMARY_MAX_RANGES)
            sp.count("ranges", len(summary.ranges))
        with tr.span("core.join.probe") as sp:
            scan = prune_probe_partitions(scan, j.probe_key, summary).retained
            sp.count("partitions_in", len(fr.retained))
            sp.count("partitions_out", len(scan))
    if spec.qtype == LIMIT and spec.k is not None and spec.join is None:
        with tr.span("core.limit") as sp:
            scan = prune_for_limit(
                scan, spec.pred, spec.k,
                shape_supported=spec.limit_shape_supported,
            ).scan_set
            sp.count("partitions_out", len(scan))
    if (spec.is_topk and spec.k is not None and spec.order_col is not None
            and supports_topk_pruning(spec.plan_ops, [spec.order_col])):
        with tr.span("core.topk.init"):
            init_boundary(fr.fully_matching, spec.order_col, spec.k,
                          desc=spec.desc)
            order_partitions(scan, spec.order_col, desc=spec.desc)
    return [p.pid for p in scan], [p.pid for p in build_scan], touched


def _join_keys(spec, frames) -> List:
    if spec.join is None:
        return []
    j = spec.join
    pdf = frames[j.build_table]
    if j.build_pred is not None:
        pdf = pdf[to_pandas_mask(j.build_pred, pdf)]
    return pdf[j.build_key].tolist()


def _load_all(run: Run, paths: Dict[str, Path]) -> Dict[str, Manifest]:
    with run.tracer.span("lake.manifest_load") as sp:
        out = {name: Manifest.load(path) for name, path in paths.items()}
        sp.count("partitions", sum(m.n_partitions for m in out.values()))
    return out


def _pass(run, paths, stream, keys, samples, deadline=None):
    """Load the manifests, then plan the stream in order.

    Returns the digest of the planned scan sets, the partitions scanned
    and touched, or ``None`` when ``deadline`` cut the pass short.
    """
    tr = run.tracer
    digest = hashlib.sha256()
    manifests = _load_all(run, paths)
    scanned = touched = 0
    for qi, spec in enumerate(stream):
        if (deadline is not None and time.perf_counter() >= deadline
                and len(samples.lat) >= MIN_SAMPLES):
            return None
        try:
            main, build, n = timed(
                run, samples, qi,
                lambda: plan_query(tr, spec, manifests, keys[qi]))
        except Exception as e:  # noqa: BLE001 — a failed query is counted, not fatal
            run.fail(f"query {qi}: {type(e).__name__}: {e}")
            run.attempted += 1
            digest.update(f"{qi}:error;".encode())
            continue
        scanned += len(main) + len(build)
        touched += n
        digest.update(f"{qi}:{main}|{build};".encode())
    return digest.hexdigest(), scanned, touched


def _compare_pruning_tree(run: Run, paths, stream) -> int:
    """AdaptivePruner against prune_scan_set on the stream's filter
    predicates (traced run only; enters no end-to-end metric).  Returns
    the number of queries where AdaptivePruner dropped a partition that
    prune_scan_set keeps; reported, not counted as the run's failures,
    since AdaptivePruner is not the workload's path."""
    manifests = {n: Manifest.load(p) for n, p in paths.items()}
    tr = run.tracer
    bad = run.meta.setdefault("comparison_failures", [])
    for qi, spec in enumerate(stream):
        if spec.pred is None:
            continue
        parts = manifests[spec.table].partitions
        tr.qid = qi
        with tr.span("core.pruning_tree.exact") as sp:
            exact = prune_scan_set(parts, spec.pred)
            sp.count("partitions_in", len(parts))
            sp.count("partitions_out", len(exact.retained))
        with tr.span("core.pruning_tree") as sp:
            got = AdaptivePruner.for_predicate(spec.pred).prune_scan_set(parts)
            sp.count("partitions_in", len(parts))
            sp.count("partitions_out", len(got.retained))
        # The cutoff may only widen the retained set.
        if not {p.pid for p in exact.retained} <= {p.pid for p in got.retained}:
            bad.append(f"AdaptivePruner dropped a partition on {spec.to_sql()}")
    tr.qid = None
    return len(bad)


def run(run: Run) -> dict:
    factor = TOY_FACTOR if run.toy else FACTOR
    n_stream = TOY_STREAM if run.toy else STREAM
    tr = run.tracer

    # -- set-up, several times; report the median, at the reference speed ----
    # (imports, before the first, happen once)
    reps = []
    for rep in range(SETUP_REPEATS):
        run.speed.probe()
        t0 = time.perf_counter()
        manifests, frames = synth_lake(run.seed, factor)
        root = run.work / f"lake{rep}"
        paths = {}
        with tr.span("lake.manifest_save"):
            for name, m in manifests.items():
                (root / name).mkdir(parents=True, exist_ok=True)
                paths[name] = root / name / "manifest.json"
                m.save(paths[name])
        tables = {n: LakeTable(paths[n].parent, m) for n, m in manifests.items()}
        gen = WorkloadGenerator(LakeShape.from_tables(tables), seed=run.seed)
        stream = make_stream(gen, n_stream)
        keys = [_join_keys(s, frames) for s in stream]
        reps.append((t0, time.perf_counter()))
    run.speed.probe()
    lake_rows = sum(m.total_rows for m in manifests.values())
    lake_parts = sum(m.n_partitions for m in manifests.values())
    manifest_bytes = dir_bytes(root)
    del tables, manifests, frames
    setup_wall_s = reps[0][0] - run.t_start + median(b - a for a, b in reps)
    setup_s = (run.speed.scaled_s(run.t_start, reps[0][0])
               + median(run.speed.scaled_s(a, b) for a, b in reps))

    # -- timed: one whole pass, then on until --seconds and enough samples ---
    samples = Samples()
    t_run = time.perf_counter()
    digest, scanned, touched = _pass(run, paths, stream, keys, samples)
    passes = 1
    deadline = t_run + run.seconds
    while run.failed < len(stream) and (
            time.perf_counter() < deadline or len(samples.lat) < MIN_SAMPLES):
        done = _pass(run, paths, stream, keys, samples, deadline)
        passes += 1
        if done is not None and done[0] != digest:
            run.fail(f"pass {passes} planned other scan sets", len(stream))
    t_end = time.perf_counter()
    run.speed.probe()
    rss_mb = peak_rss_mb()
    lat_ms = samples.scaled(run.speed)
    run.attempted += len(lat_ms)

    # -- output check: the stored digest of the default seed -----------------
    expected = json.loads(EXPECTED_PATH.read_text())
    key = f"{'toy' if run.toy else 'full'}:{run.seed}"
    if key in expected and expected[key] != digest:
        run.fail(f"digest {digest} != stored {expected[key]}", len(lat_ms))

    run.meta.update({
        "lake": {"partitions": lake_parts, "rows": lake_rows,
                 "bytes": manifest_bytes, "factor": factor},
        "stream": len(stream), "passes": passes, "samples": len(lat_ms),
        "query_ms_p50": median(lat_ms),
        "wall": {"setup_s": setup_wall_s, "query_ms_p50": median(samples.lat),
                 "query_ms_p90": p90(samples.lat),
                 "queries_per_s": len(lat_ms) / (t_end - t_run)},
        "digest": digest, "digest_checked": key in expected,
        "setup_repeats_s": [b - a for a, b in reps],
    })
    if run.trace:
        slowest = sorted(tr.named("core.limit"), key=lambda sp: -sp.ms)[:3]
        run.meta["slowest_limit_calls"] = [
            {"qid": sp.qid, "ms": sp.ms, "sql": stream[sp.qid].to_sql()}
            for sp in slowest
        ]
        tree_failures = _compare_pruning_tree(run, paths, stream)
        run.layers = layer_metrics(
            tr,
            lakes_written=SETUP_REPEATS,
            lake_loads=passes,
            manifest_bytes=manifest_bytes,
            manifest_partitions=lake_parts,
            overhead_ms_p50=median(samples.lat) - median(samples.plain),
            comparison_failures=tree_failures,
        )
    return {
        "setup_s": metric(setup_s, "s"),
        "query_ms_p90": metric(p90(lat_ms), "ms"),
        "queries_per_s": metric(
            len(lat_ms) / run.speed.scaled_s(t_run, t_end), "1/s"),
        "partitions_scanned_frac": metric(scanned / max(touched, 1), "ratio"),
        "bytes_per_row": metric(manifest_bytes / lake_rows, "B"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
