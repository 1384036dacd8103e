"""Self-test of the benchmark: every workload once at toy size.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
Checks that every metric named in BENCHMARK.json is printed with its
unit, that nothing failed, and that the deterministic counts repeat
exactly for the same seed.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
from common import REF_KERNEL_MS, HostSpeed  # noqa: E402
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DETERMINISTIC = ("partitions_scanned_frac", "bytes_per_row")


def bench(workload: str, trace: int, seed: int = 0):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    w = request.param
    return w, bench(w, 0), bench(w, 1)


def _assert_metrics(result, wanted):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]


def test_end_to_end_metrics(runs):
    _, (report, result), _ = runs
    _assert_metrics(result, SPEC["end_to_end"])
    assert report["failed_frac"] == 0
    assert report["samples"] >= 100  # ten samples beyond p90
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_per_layer_metrics(runs):
    _, _, (report, result) = runs
    _assert_metrics(result, SPEC["per_layer"])
    assert report["failed_frac"] == 0
    assert report["self_ms"]
    assert (ROOT / report["trace_file"]).is_file()


def test_deterministic_counts_repeat(runs):
    w, (r0, plain), (r1, _) = runs
    for name in DETERMINISTIC:
        assert plain["metrics"][name]["value"] == r1["traced_e2e"][name]["value"], name
    if w == "plan_large":
        assert r0["digest"] == r1["digest"]
        assert r0["digest_checked"], "no stored digest for the toy default seed"


def test_host_speed_scales_by_nearby_probes():
    sp = HostSpeed()
    # Kernel twice as slow as the reference around t=10, at it at t=20.
    sp.start, sp.end = [10.0, 10.1, 20.0], [10.01, 10.11, 20.01]
    sp.ms = [2 * REF_KERNEL_MS, 2 * REF_KERNEL_MS, REF_KERNEL_MS]
    assert sp.factor(10.05, 10.05) == 0.5
    assert sp.factor(20.0, 20.0) == 1.0
    assert sp.factor(15.0, 15.0) == 1.0  # none near: the next probe
    assert sp.scaled_s(9.0, 10.0) == pytest.approx(0.5)
    # The probes' own time is left out.
    assert sp.scaled_s(10.0, 10.2) == pytest.approx(0.18 * 0.5)


def test_rationale_names_every_entry():
    rationale = json.loads((ROOT / "perfbench" / "rationale.json").read_text())
    assert set(rationale["workloads"]) == set(WORKLOADS)
    assert set(rationale["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]} | {"scaling"}
    assert set(rationale["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}


def test_refuses_without_sources(tmp_path):
    """Only BENCHMARK.json and perfbench/: exit non-zero, print no result."""
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
