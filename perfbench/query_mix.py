"""``query_mix``: the paper's Table 3 query mix, pruned, then run in Spark.

Set-up starts a ``local[k]`` Spark session, builds the production-like
lake with ``build_production_lake``, loads it back with
``LakeTable.load`` and warms up on one whole pass of the stream.  The
run sends a seeded ``WorkloadGenerator.generate`` stream from one client
in a closed loop: each query goes through ``run_pruning_flow`` with its
default pandas reader, then ``spec.to_sql()`` runs in Spark over temp
views bound to ``LakeTable.scan`` of the final scan sets, and the result
is materialised as Arrow.

After the timed loop, outside it, every distinct query is checked
against the same SQL over unpruned ``LakeTable.full`` views, and every
manifest entry against the Parquet footers.
"""
from __future__ import annotations

import math
import os
import shlex
import sys
import time
from contextlib import ExitStack
from types import SimpleNamespace
from typing import Dict, List, Tuple

import pyarrow.parquet as pq

from repro.core import flow
from repro.core.expr import to_spark
from repro.core.filter_pruning import prune_scan_set
from repro.core.flow import run_pruning_flow
from repro.core.join_pruning import RangeSummary
from repro.core.query import LIMIT, SELECT, TOPK
from repro.lake import LakeTable, Manifest
from repro.workload.generator import LakeShape, WorkloadGenerator
from repro.workload.tables import build_production_lake

from common import MIN_SAMPLES, Run, Samples, timed, median, metric, p90, patched, peak_rss_mb
from layers import layer_metrics
from streams import stratified

#: ``build_production_lake`` scale: 40 k event rows in 40 partitions.
SCALE = 1.0
TOY_SCALE = 0.1
#: Distinct queries in the stream; the loop replays it.
STREAM = 100
TOY_STREAM = 8
#: Queries drawn from the seeded generator to fix each query shape's
#: share of the stream (see ``stratified``).
SHAPE_SAMPLE = 10_000
#: ``partitions_scanned_frac`` is planned, untimed, over a stratified
#: draw this large (it holds the executed stream), so it varies by seed
#: less than over the executed queries alone.
FRAC_SAMPLE = 1_000
TOY_FRAC_SAMPLE = 40
#: Single-table filtered SELECTs read through ``lakescan`` (traced run).
LAKESCAN_QUERIES = 8
TABLES = ("events", "users", "incidents", "blob", "tiny")


# -- Spark session -------------------------------------------------------------


def start_spark(run: Run):
    """A ``local[k]`` session (k ≤ 4) whose scratch files stay in ``run.work``."""
    k = min(4, os.cpu_count() or 1)
    local = run.work / "spark"
    (local / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(local / "tmp")
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    # Python workers (the lakescan DataSource) import repro too.
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(run.root / "src"), os.environ.get("PYTHONPATH")) if p)
    # No hsperfdata files in the system temp directory, from the launcher
    # JVM (here) or the driver JVM (below).
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{k}]",
        "--driver-memory 1g",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        "--conf " + shlex.quote(f"spark.sql.warehouse.dir={local / 'warehouse'}"),
        "--driver-java-options "
        + shlex.quote(f"-XX:-UsePerfData -Djava.io.tmpdir={local / 'tmp'}"),
        "pyspark-shell",
    ])
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(k))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.session.timeZone", "UTC")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    run.meta["spark"] = {"master": spark.sparkContext.master,
                         "version": spark.version}
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM process to exit."""
    from pyspark import SparkContext

    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway server exits on stdin EOF
        proc.wait(timeout=60)


# -- tracing hooks ---------------------------------------------------------------


def _count_in_out(retained_attr):
    def counts(sp, args, out):
        sp.count("partitions_in", len(args[0]))
        sp.count("partitions_out", len(getattr(out, retained_attr)))
    return counts


def _trace_hooks(run: Run, stack: ExitStack) -> None:
    """Wrap the layer entry points that the build and the flow call, so
    the traced run has spans for them.  Restored when ``stack`` closes."""
    tr = run.tracer
    write = LakeTable.__dict__["write"].__func__
    stack.enter_context(patched(
        LakeTable, "write", staticmethod(tr.traced("lake.write", write))))
    stack.enter_context(patched(
        Manifest, "save", tr.traced("lake.manifest_save", Manifest.save)))
    hooks = {
        "prune_scan_set": ("core.filter", _count_in_out("retained")),
        "prune_for_limit": ("core.limit", lambda sp, a, out: sp.count(
            "partitions_out", len(out.scan_set))),
        "init_boundary": ("core.topk.init", None),
        "topk_scan": ("core.topk.scan", lambda sp, a, out: (
            sp.count("partitions_read", len(out.scanned)),
            sp.count("partitions_pruned", len(out.pruned)))),
        "prune_probe_partitions": ("core.join.probe", _count_in_out("retained")),
    }
    for attr, (name, counts) in hooks.items():
        stack.enter_context(patched(
            flow, attr, tr.traced(name, getattr(flow, attr), counts)))
    summary = SimpleNamespace(build=tr.traced(
        "core.join.summary_build", RangeSummary.build,
        lambda sp, a, out: sp.count("ranges", len(out.ranges))))
    stack.enter_context(patched(flow, "RangeSummary", summary))


# -- one query -------------------------------------------------------------------


def execute(run: Run, spark, tables, spec, sizes, reader):
    """Prune, bind the final scan sets as views, run the SQL in Spark;
    returns the result as an Arrow table."""
    tr = run.tracer
    with tr.span("core.flow"):
        fr = run_pruning_flow(spec, tables, reader=reader)
    scans = [(spec.table, fr.final_main_scan)]
    if spec.join is not None:
        scans.append((spec.join.build_table, fr.final_build_scan))
    for name, parts in scans:
        with tr.span("lake.scan"):
            tables[name].scan(spark, parts).createOrReplaceTempView(name)
    with tr.span("spark.exec") as sp:
        out = spark.sql(spec.to_sql()).toArrow()
        sp.count("bytes_scanned", sum(sizes[p.path] for _, ps in scans for p in ps))
    return out


# -- output checks ----------------------------------------------------------------


def _key(row):
    return tuple((v is None, v) for v in row)


def _rows(tbl) -> List[tuple]:
    return sorted(zip(*[c.to_pylist() for c in tbl.columns]), key=_key)


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def same_result(spec, got, ref) -> bool:
    """Top-k: multiset of order values; LIMIT without ORDER BY: row count
    (min(k, matching rows)); otherwise rows, order-insensitively."""
    if spec.qtype == LIMIT:
        return got.num_rows == ref.num_rows
    if spec.qtype == TOPK:
        a = sorted(got.column(spec.order_col).to_pylist(), key=lambda v: (v is None, v))
        b = sorted(ref.column(spec.order_col).to_pylist(), key=lambda v: (v is None, v))
        return a == b
    ra, rb = _rows(got), _rows(ref)
    return len(ra) == len(rb) and all(
        len(x) == len(y) and all(_same(u, v) for u, v in zip(x, y))
        for x, y in zip(ra, rb)
    )


def footer_mismatches(tables: Dict[str, LakeTable]) -> Tuple[int, List[str]]:
    """Manifest row count, min, max and null count against the Parquet
    footers, read with pyarrow: (partitions checked, mismatches)."""
    bad = []
    checked = 0
    for name, t in tables.items():
        for m in t.manifest.partitions:
            checked += 1
            md = pq.ParquetFile(m.path).metadata
            if md.num_rows != m.row_count:
                bad.append(f"{name}/{m.pid}: rows {md.num_rows} != {m.row_count}")
            for j in range(md.num_columns):
                col = md.schema.column(j).name
                lo = hi = None
                nulls = 0
                for rg in range(md.num_row_groups):
                    st = md.row_group(rg).column(j).statistics
                    nulls += st.null_count
                    if st.has_min_max:
                        lo = st.min if lo is None else min(lo, st.min)
                        hi = st.max if hi is None else max(hi, st.max)
                cs = m.stats.col(col)
                if cs is None or (cs.min, cs.max, cs.null_count) != (lo, hi, nulls):
                    bad.append(f"{name}/{m.pid}.{col}: manifest {cs} "
                               f"!= footer ({lo}, {hi}, {nulls})")
    return checked, bad


def compare_lakescan(run: Run, spark, tables, stream) -> int:
    """Single-table filtered SELECTs through the ``lakescan`` DataSource
    and through ``LakeTable.scan`` (traced run).  Returns the number of
    queries where ``lakescan`` raised or returned other rows; they are
    reported, but ``lakescan`` is not the workload's path, so they do
    not count as the run's failures."""
    from repro.engine.datasource import LakeScanDataSource

    spark.dataSource.register(LakeScanDataSource)
    spark.conf.set("spark.sql.python.filterPushdown.enabled", "true")
    picked = [
        (qi, s) for qi, s in enumerate(stream)
        if s.qtype == SELECT and s.join is None and s.pred is not None
    ][:LAKESCAN_QUERIES]
    tr = run.tracer
    bad = run.meta.setdefault("comparison_failures", [])

    def lakescan(t, pred=None):
        df = spark.read.format("lakescan").option("path", str(t.path)).load()
        return (df if pred is None else df.filter(to_spark(pred))).toArrow()

    # The first read starts the Python workers: keep it out of the spans.
    tr.enabled = False
    lakescan(tables["tiny"])
    tr.enabled = True
    failures = 0
    for qi, s in picked:
        t = tables[s.table]
        tr.qid = qi
        try:
            with tr.span("engine.lakescan"):
                a = lakescan(t, s.pred)
        except Exception as e:  # noqa: BLE001 — a defect to report, not fatal
            a = None
            bad.append(f"lakescan raised {type(e).__name__} on {s.to_sql()}")
        with tr.span("engine.tablescan"):
            kept = prune_scan_set(t.manifest.partitions, s.pred).retained
            b = t.scan(spark, kept).filter(to_spark(s.pred)).toArrow()
        if a is None:
            failures += 1
        elif _rows(a) != _rows(b):
            failures += 1
            bad.append(f"lakescan returned other rows on {s.to_sql()}")
    tr.qid = None
    return failures


# -- the workload -------------------------------------------------------------------


def make_stream(tables, seed: int, n: int):
    return WorkloadGenerator(LakeShape.from_tables(tables), seed=seed).generate(n)


def run(run: Run) -> dict:
    spark = start_spark(run)
    try:
        with ExitStack() as hooks:
            if run.trace:
                _trace_hooks(run, hooks)
            return _run(run, spark)
    finally:
        stop_spark(spark)


def _run(run: Run, spark) -> dict:
    tr = run.tracer
    lake = run.work / "lake"
    with tr.span("workload.build"):
        build_production_lake(spark, lake, scale=TOY_SCALE if run.toy else SCALE,
                              seed=run.seed)
    with tr.span("lake.manifest_load"):
        tables = {n: LakeTable.load(lake / n) for n in TABLES}
    sizes = {m.path: os.path.getsize(m.path)
             for t in tables.values() for m in t.manifest.partitions}
    manifest_bytes = sum((lake / n / "manifest.json").stat().st_size for n in TABLES)
    lake_rows = sum(t.manifest.total_rows for t in tables.values())
    lake_parts = sum(t.manifest.n_partitions for t in tables.values())
    shapes = make_stream(tables, run.seed, SHAPE_SAMPLE)
    stream = stratified(shapes, TOY_STREAM if run.toy else STREAM)
    frac_sample = stratified(shapes, TOY_FRAC_SAMPLE if run.toy else FRAC_SAMPLE)

    def traced_read(tname, meta):
        with tr.span("lake.read_partition"):
            return tables[tname].read_partition_pandas(meta)

    reader = traced_read if run.trace else None
    tr.enabled = False
    # A query's first run over its pruned views takes up to twice as long
    # as later runs (running the same SQL over the unpruned views first
    # does not help), so a whole pass of the stream warms up before timing.
    for spec in stream:
        try:
            execute(run, spark, tables, spec, sizes, None)
        except Exception:  # noqa: BLE001 — counted when the timed loop runs it
            pass
    tr.enabled = run.trace
    # -- timed: one whole pass, then on until --seconds and enough samples ---
    setup_s = time.perf_counter() - run.t_start
    samples = Samples()
    results: Dict[int, object] = {}
    uses = [0] * len(stream)
    t_run = time.perf_counter()
    i = 0
    while run.failed < len(stream) and (
            i < len(stream) or time.perf_counter() - t_run < run.seconds
            or len(samples.lat) < MIN_SAMPLES):
        qi = i % len(stream)
        spec = stream[qi]
        i += 1
        uses[qi] += 1
        try:
            out = timed(run, samples, qi,
                        lambda: execute(run, spark, tables, spec, sizes, reader))
        except Exception as e:  # noqa: BLE001 — a failed query is counted, not fatal
            run.fail(f"query {qi}: {type(e).__name__}: {e}")
            continue
        results.setdefault(qi, out)
    t_end = time.perf_counter()
    run.speed.probe()
    rss_mb = peak_rss_mb()
    lat = samples.scaled(run.speed)
    run.attempted += i

    # -- untimed: pruning counts, then output checks ---------------------------------
    tr.enabled = False
    flows = [run_pruning_flow(spec, tables) for spec in frac_sample]
    tr.enabled = run.trace
    scanned = sum(fr.final_scanned for fr in flows)
    touched = sum(fr.total_partitions for fr in flows)
    for n in TABLES:
        tables[n].full(spark).createOrReplaceTempView(n)
    for qi, got in sorted(results.items()):
        ref = spark.sql(stream[qi].to_sql()).toArrow()
        if not same_result(stream[qi], got, ref):
            run.fail(f"query {qi} differs from the unpruned result: "
                     f"{stream[qi].to_sql()}", uses[qi])
    checked, footer = footer_mismatches(tables)
    run.attempted += checked
    for msg in footer:
        run.fail(f"manifest/footer: {msg}")

    parquet_bytes = sum(sizes.values())
    run.meta.update({
        "lake": {"partitions": lake_parts, "rows": lake_rows,
                 "bytes": parquet_bytes + manifest_bytes,
                 "scale": TOY_SCALE if run.toy else SCALE},
        "stream": len(stream), "frac_sample": len(frac_sample),
        "samples": len(lat), "query_ms_p50": median(lat),
        "wall": {"query_ms_p50": median(samples.lat),
                 "query_ms_p90": p90(samples.lat),
                 "queries_per_s": len(lat) / (t_end - t_run)},
        "distinct_checked": len(results),
    })
    if run.trace:
        lakescan_failures = compare_lakescan(run, spark, tables, stream)
        run.layers = layer_metrics(
            tr,
            lakes_written=1,
            lake_loads=1,
            manifest_bytes=manifest_bytes,
            manifest_partitions=lake_parts,
            overhead_ms_p50=median(samples.lat) - median(samples.plain),
            comparison_failures=lakescan_failures,
        )
    return {
        "setup_s": metric(setup_s, "s"),
        "query_ms_p90": metric(p90(lat), "ms"),
        "queries_per_s": metric(
            len(lat) / run.speed.scaled_s(t_run, t_end), "1/s"),
        "partitions_scanned_frac": metric(scanned / max(touched, 1), "ratio"),
        "bytes_per_row": metric((parquet_bytes + manifest_bytes) / lake_rows, "B"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
