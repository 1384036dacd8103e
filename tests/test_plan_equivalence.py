"""Metadata-only planning over the columnar view equals the scalar path.

A toy lake of synthesized manifests (no data files) with the layouts of
``build_production_lake`` is planned with the generator's three query
streams (the Table 3 mix, Table 2 LIMITs, Table 5 top-k).  For every
query, the scan sets, LIMIT scan sets, ``order_partitions`` order (ties
included), ``init_boundary`` values and join-probe results must equal
what per-partition evaluation with the scalar ``eval3`` gives.  The
scalar versions below are the oracles.
"""
import datetime as dt
from types import SimpleNamespace

import numpy as np
import pandas as pd
import pytest

from repro.core.expr import to_pandas_mask
from repro.core.filter_pruning import (
    FULLY_MATCHING,
    NOT_MATCHING,
    classify_partition,
    prune_scan_set,
)
from repro.core.join_pruning import RangeSummary, prune_probe_partitions
from repro.core.limit_pruning import prune_for_limit
from repro.core.query import LIMIT
from repro.core.stats import ColStats, PartitionList, PartitionStats
from repro.core.topk_pruning import init_boundary, order_partitions
from repro.lake.manifest import Manifest, PartitionMeta
from repro.workload.generator import LakeShape, WorkloadGenerator
from repro.workload.tables import COUNTRIES, ETYPES, EVENT_DAYS, EVENT_EPOCH

# -- toy metadata-only lake ---------------------------------------------------

_CATS = {"etype": sorted(ETYPES), "country": sorted(COUNTRIES),
         "assignee": sorted(COUNTRIES), "cat": list("ABCDEFGH")}


def _manifest(name, frame, n_parts):
    """Stats of ``frame`` cut into ``n_parts`` equal row chunks in order."""
    n_rows = len(next(iter(frame.values())))
    cuts = np.linspace(0, n_rows, n_parts + 1).astype(int)
    parts = []
    for pid in range(n_parts):
        cols = {}
        for c, v in frame.items():
            chunk = v[cuts[pid]:cuts[pid + 1]]
            lo, hi = chunk.min().item(), chunk.max().item()
            if c in _CATS:
                lo, hi = _CATS[c][lo], _CATS[c][hi]
            elif c == "ts":
                lo = EVENT_EPOCH + dt.timedelta(days=lo)
                hi = EVENT_EPOCH + dt.timedelta(days=hi)
            cols[c] = ColStats(lo, hi, 0)
        parts.append(PartitionMeta(pid, f"mem://{name}/{pid}", PartitionStats(
            int(cuts[pid + 1] - cuts[pid]), cols)))
    return Manifest(name, "{}", {}, parts)


def toy_lake(seed=0):
    g = np.random.default_rng(seed)
    ev_rows = 8_000
    events = {
        "event_id": np.arange(1, ev_rows + 1),
        "ts": np.sort(g.integers(0, EVENT_DAYS, ev_rows)),
        "user_id": g.integers(1, ev_rows // 20, ev_rows),
        "etype": g.integers(0, len(ETYPES), ev_rows),
        "amount": (g.random(ev_rows) * 1000).round(2),
        # a narrow range, so that many partitions tie on max and min
        "duration": g.integers(1, 40, ev_rows),
        "country": g.integers(0, len(COUNTRIES), ev_rows),
    }
    users = {"user_id": np.arange(1, 1_001),
             "signup_day": g.integers(0, EVENT_DAYS, 1_000),
             "country": g.integers(0, len(COUNTRIES), 1_000),
             "score": (g.random(1_000) * 100).round(1)}
    incidents = {"event_id": np.sort(g.integers(7_200, ev_rows + 1, 600)),
                 "severity": g.integers(1, 6, 600),
                 "assignee": g.integers(0, len(COUNTRIES), 600)}
    blob = {"k": g.integers(1, 1_600, 1_600), "v": g.random(1_600).round(6),
            "cat": g.integers(0, 8, 1_600),
            "score": (g.random(1_600) * 100).round(3)}
    tiny = {"status_id": np.arange(1, 65), "weight": g.random(64).round(4)}
    manifests = {
        "events": _manifest("events", events, 80),
        "users": _manifest("users", users, 20),
        "incidents": _manifest("incidents", incidents, 2),
        "blob": _manifest("blob", blob, 16),
        "tiny": _manifest("tiny", tiny, 1),
    }
    frames = {
        "users": pd.DataFrame({"user_id": users["user_id"]}),
        "incidents": pd.DataFrame({"event_id": incidents["event_id"],
                                   "severity": incidents["severity"]}),
    }
    return manifests, frames


# -- the scalar path (oracles) ----------------------------------------------------


def scalar_prune(parts, pred):
    classes = [classify_partition(pred, p.stats) for p in parts]
    retained = [p for p, c in zip(parts, classes) if c != NOT_MATCHING]
    pruned = [p for p, c in zip(parts, classes) if c == NOT_MATCHING]
    fully = [p for p, c in zip(parts, classes) if c == FULLY_MATCHING]
    return retained, pruned, fully


def scalar_limit(parts, pred, k, supported):
    retained, _, fully_list = scalar_prune(parts, pred)
    fully = sorted(fully_list, key=lambda p: -p.row_count)
    fully_ids = {id(p) for p in fully_list}
    partial = [p for p in retained if id(p) not in fully_ids]
    if not supported:
        return fully + partial
    if len(retained) <= 1:
        return retained
    if sum(p.row_count for p in fully) >= k:
        chosen, covered = [], 0
        for p in fully:
            if covered >= k:
                break
            chosen.append(p)
            covered += p.row_count
        return chosen
    return fully + partial


def scalar_order(parts, order_col, desc):
    def key(p):
        cs = p.stats.col(order_col)
        return None if cs is None else (cs.max if desc else cs.min)

    with_stats = [p for p in parts if key(p) is not None]
    without = [p for p in parts if key(p) is None]
    with_stats.sort(key=key, reverse=desc)
    return with_stats + without


def scalar_init_boundary(fully, order_col, k, desc):
    if k <= 0:
        return None
    cand, extremes, ranked = [], [], []
    for p in fully:
        cs = p.stats.col(order_col)
        if cs is not None and not cs.all_null:
            extremes.append(cs.max if desc else cs.min)
            nn = p.stats.row_count - cs.null_count
            if nn > 0:
                ranked.append(((cs.min if desc else cs.max), nn))
    extremes.sort(reverse=desc)
    if len(extremes) >= k:
        cand.append(extremes[k - 1])
    ranked.sort(key=lambda t: t[0], reverse=desc)
    cum = 0
    for bound, rows in ranked:
        cum += rows
        if cum >= k:
            cand.append(bound)
            break
    if not cand:
        return None
    return max(cand) if desc else min(cand)


def scalar_probe(parts, key, summary):
    kept = []
    for p in parts:
        cs = p.stats.col(key)
        if p.stats.row_count == 0 or (cs is not None and cs.all_null):
            continue
        if cs is None:
            kept.append(p)
            continue
        try:
            keep = summary.overlaps_interval(cs.min, cs.max)
        except TypeError:
            keep = True
        if keep:
            kept.append(p)
    return kept


# -- the comparison ------------------------------------------------------------------


def pids(parts):
    return [p.pid for p in parts]


def same_value(a, b):
    return a is b or (type(a) is type(b) and a == b)


@pytest.fixture(scope="module")
def lake():
    manifests, frames = toy_lake()
    tables = {n: SimpleNamespace(manifest=m) for n, m in manifests.items()}
    gen = WorkloadGenerator(LakeShape.from_tables(tables), seed=3)
    streams = {
        "mix": gen.generate(300),
        "limit": gen.generate_limit_workload(300),
        "topk": gen.generate_topk_workload(300, k_cap=100),
    }
    return manifests, frames, streams


def test_manifests_carry_the_columnar_view(lake):
    manifests, _, _ = lake
    for m in manifests.values():
        assert isinstance(m.partitions, PartitionList)
    fr = prune_scan_set(manifests["events"].partitions, None)
    assert isinstance(fr.retained, PartitionList)


@pytest.mark.parametrize("stream", ["mix", "limit", "topk"])
def test_plan_equals_scalar_path(lake, stream):
    manifests, frames, streams = lake
    checked = {"filter": 0, "probe": 0, "limit": 0, "order": 0}
    for qi, spec in enumerate(streams[stream]):
        parts = manifests[spec.table].partitions
        fr = prune_scan_set(parts, spec.pred)
        retained, pruned, fully = scalar_prune(list(parts), spec.pred)
        assert pids(fr.retained) == pids(retained)
        assert pids(fr.pruned) == pids(pruned)
        assert pids(fr.fully_matching) == pids(fully)
        checked["filter"] += 1
        scan, ref_scan = fr.retained, retained
        if spec.join is not None:
            j = spec.join
            build = prune_scan_set(manifests[j.build_table].partitions, j.build_pred)
            assert pids(build.retained) == pids(
                scalar_prune(list(manifests[j.build_table].partitions),
                             j.build_pred)[0])
            pdf = frames[j.build_table]
            keys = pdf[to_pandas_mask(j.build_pred, pdf)][j.build_key].tolist()
            summary = RangeSummary.build(keys, max_ranges=(1, 4, 64)[qi % 3])
            scan = prune_probe_partitions(scan, j.probe_key, summary).retained
            ref_scan = scalar_probe(ref_scan, j.probe_key, summary)
            assert pids(scan) == pids(ref_scan)
            checked["probe"] += 1
        if spec.qtype == LIMIT and spec.k is not None and spec.join is None:
            out = prune_for_limit(scan, spec.pred, spec.k,
                                  shape_supported=spec.limit_shape_supported)
            assert pids(out.scan_set) == pids(scalar_limit(
                ref_scan, spec.pred, spec.k, spec.limit_shape_supported))
            checked["limit"] += 1
        if spec.order_col is not None and spec.k is not None:
            for desc in (True, False):
                assert pids(order_partitions(scan, spec.order_col, desc=desc)) \
                    == pids(scalar_order(ref_scan, spec.order_col, desc))
                for k in (1, spec.k, 10 * spec.k):
                    got = init_boundary(fr.fully_matching, spec.order_col, k,
                                        desc=desc)
                    want = scalar_init_boundary(fully, spec.order_col, k, desc)
                    assert same_value(got, want), (spec.to_sql(), k, got, want)
            checked["order"] += 1
    expected = {"mix": ("filter", "probe", "limit", "order"),
                "limit": ("filter", "limit"), "topk": ("filter", "order")}
    assert all(checked[c] for c in expected[stream]), checked


def test_order_keeps_ties_in_scan_order():
    parts = [PartitionMeta(i, f"mem://{i}", PartitionStats(
        5, {"x": ColStats(i % 2, 3 if i % 3 else 7, 0)})) for i in range(12)]
    parts.append(PartitionMeta(12, "mem://12", PartitionStats(5, {})))
    for desc in (True, False):
        assert pids(order_partitions(parts, "x", desc=desc)) == \
            pids(scalar_order(parts, "x", desc))
