"""Repository benchmark: one workload per invocation, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload plan_large --seed 0 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/rationale.json``):

* ``plan_large`` — compile-time pruning over a metadata-only lake;
* ``query_mix``  — the Table 3 query mix, pruned then run in Spark.

Each run is one process and one client in a closed loop.  Query timings
are scaled to a reference host speed, from probes of a fixed kernel
between queries (``common.HostSpeed``).  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics from
spans around the calls into each layer (written to ``.perfbench_out/``).
The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it carries run metadata, sample counts, lake size, the
wall-clock values and kernel times behind the scaled ones, each layer's
self time and any failures.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("plan_large", "query_mix")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or 'all': each in its own process")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="tiny lake and stream (the self-test)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload == "all":
        return _run_all(args, spec)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from common import Run

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT,
              T_START, toy=args.toy)
    try:
        workload = importlib.import_module(args.workload)
        e2e = workload.run(run)
    finally:
        run.cleanup()

    wanted = spec["per_layer"] if run.trace else spec["end_to_end"]
    got = run.layers if run.trace else e2e
    metrics = {m["name"]: got[m["name"]] for m in wanted}
    report = {**run.base_meta(), **run.meta,
              "failed_frac": run.failed / max(run.attempted, 1),
              "failures": run.failures}
    if run.trace:
        trace_path = run.out_dir / f"{run.workload}-seed{run.seed}.trace.jsonl"
        run.tracer.write(trace_path)
        report.update({
            "trace_file": str(trace_path.relative_to(ROOT)),
            "self_ms": run.tracer.self_ms(),
            "failed_calls": run.tracer.failures(),
            "traced_e2e": e2e,
        })
    print(json.dumps({"report": report}, default=str))
    attempted = max(run.attempted, 1)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": attempted,
        "failed": min(run.failed, attempted),
        "metrics": metrics,
    }))
    return 0


def _run_all(args, spec) -> int:
    """Every workload in BENCHMARK.json, one process each; prints each
    metric by name with its unit, then one combined result line."""
    results = {}
    for w in (x["name"] for x in spec["workloads"]):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"perfbench: {w} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[w] = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in results[w]["metrics"].items():
            print(f"{w:12s} {name:40s} {m['value']:14.4f} {m['unit']}")
        print(f"{w:12s} {'failed/attempted':40s} "
              f"{results[w]['failed']:>7d}/{results[w]['attempted']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{n}": m for w, r in results.items()
                    for n, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
