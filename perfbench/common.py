"""Shared benchmark machinery: tracer, timed loop, statistics, run context.

Nothing here imports ``repro`` or starts Spark.
"""
from __future__ import annotations

import bisect
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List

#: A run keeps querying past ``--seconds`` until it holds this many
#: samples, so at least ten lie beyond p90.
MIN_SAMPLES = 100


# -- tracing -----------------------------------------------------------------


class _Span:
    __slots__ = ("name", "start", "end", "parent", "qid", "failed", "counts")

    def __init__(self, name: str, start: float, parent: int, qid):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.qid = qid
        self.failed = False
        self.counts: Dict[str, float] = {}

    def count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class _NullSpan:
    __slots__ = ()

    def count(self, key: str, value: float) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """In-memory spans around the benchmark's calls into each layer.

    A span records name, start, end, parent span, query id, whether the
    call raised, and counts attached at the same boundary.  Disabled,
    ``span`` yields a shared no-op object and records nothing.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[_Span] = []
        self._stack: List[int] = []
        self.qid = None

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield _NULL_SPAN
            return
        parent = self._stack[-1] if self._stack else -1
        sp = _Span(name, time.perf_counter(), parent, self.qid)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        except BaseException:
            sp.failed = True
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def traced(self, name: str, fn, counts=None):
        """Wrap ``fn`` so each call is a span; ``counts(sp, args, out)``
        attaches counts from the call's arguments and result."""

        def wrapper(*args, **kw):
            with self.span(name) as sp:
                out = fn(*args, **kw)
                if counts is not None and self.enabled:
                    counts(sp, args, out)
                return out

        return wrapper

    # -- summaries ---------------------------------------------------------

    def named(self, name: str) -> List[_Span]:
        return [s for s in self.spans if s.name == name]

    def _self_ms(self) -> List[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [s.ms for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.ms
        return out

    def self_ms(self) -> Dict[str, float]:
        """Total self time per span name."""
        out: Dict[str, float] = {}
        for s, ms in zip(self.spans, self._self_ms()):
            out[s.name] = out.get(s.name, 0.0) + ms
        return out

    def self_ms_of(self, name: str) -> List[float]:
        return [ms for s, ms in zip(self.spans, self._self_ms()) if s.name == name]

    def failures(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for s in self.spans:
            if s.failed:
                out[s.name] = out.get(s.name, 0) + 1
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "qid": s.qid, "failed": s.failed,
                    "counts": s.counts,
                }) + "\n")


# -- host speed ------------------------------------------------------------------

#: Best-of-three time of ``_kernel`` on a 4-vCPU shared x86-64 host at
#: its usual speed; scaled times read as if measured at that speed.
REF_KERNEL_MS = 0.5
#: Least time between two probes in a timed loop, and the half-width of
#: the window of probes whose median scales the time of a moment.
PROBE_EVERY_S = 0.1
PROBE_WINDOW_S = 0.5


class _Box:
    __slots__ = ("lo", "hi", "stats")

    def __init__(self, i: int):
        self.lo, self.hi = i * 7 % 1000, i * 7 % 1000 + 50
        self.stats = {j: i * j for j in range(4)}


_BOXES = [_Box(i) for i in range(800)]
_POINTS = range(0, 1000, 100)


def _kernel() -> int:
    """Fixed interpreter work of the kind metadata pruning does: attribute
    reads, dict lookups, range tests and small tuples.  It calls nothing
    in ``repro``, so no change to the program moves it."""
    n = 0
    for b in _BOXES:
        for v in _POINTS:
            if b.lo <= v <= b.hi and b.stats.get(v % 4, 0) >= 0:
                n += 1
            _ = (b.lo, v)
    return n


class HostSpeed:
    """The host's speed over time, from probes of a fixed kernel.

    On a host whose cores other tenants share, the same code runs up to
    twice as fast at one minute as at the next, and every timing drifts
    with it.  The kernel drifts the same way; the planning code's time
    over the kernel's stayed within about 5 % while both moved by 1.8x.
    So probes of the kernel interleaved with the work, between queries,
    give a factor ``REF_KERNEL_MS / kernel time nearby`` that turns a
    time measured now into the time it would take at the reference
    speed.  A change to the program moves the work, not the kernel.

    A Spark query spends most of its time waiting for the JVM, whose
    threads run on other cores; their speed follows the kernel's less
    closely (one run in ten came out about 15 % slow), but scaled Spark
    timings still spread half as much over seeds as wall-clock ones.
    Scaling only this thread's CPU time left them as unsteady as wall time.
    """

    def __init__(self):
        self.start: List[float] = []
        self.end: List[float] = []
        self.ms: List[float] = []

    def probe(self) -> None:
        """Time the kernel: the best of three runs."""
        t0 = time.perf_counter()
        best = float("inf")
        for _ in range(3):
            a = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - a)
        self.start.append(t0)
        self.end.append(time.perf_counter())
        self.ms.append(best * 1e3)

    def maybe_probe(self) -> None:
        """Probe unless the last probe is under ``PROBE_EVERY_S`` old."""
        if not self.end or time.perf_counter() - self.end[-1] >= PROBE_EVERY_S:
            self.probe()

    def factor(self, t0: float, t1: float) -> float:
        """``REF_KERNEL_MS`` over the median probe within ``PROBE_WINDOW_S``
        of [t0, t1]; else the next probe after it, or the last."""
        lo = bisect.bisect_left(self.start, t0 - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.start, t1 + PROBE_WINDOW_S)
        near = self.ms[lo:hi] or [self.ms[min(lo, len(self.ms) - 1)]]
        return REF_KERNEL_MS / statistics.median(near)

    def scaled_s(self, t0: float, t1: float) -> float:
        """Wall time from t0 to t1, less the probes in it, at the
        reference speed: each stretch between probes is scaled by the
        factor of its own moment."""
        cuts = [t0]
        for s, e in zip(self.start, self.end):
            if t0 <= s and e <= t1:
                cuts += [s, e]
        cuts.append(t1)
        return sum((b - a) * self.factor(a, b)
                   for a, b in zip(cuts[::2], cuts[1::2]))

    def summary(self) -> Dict[str, float]:
        return {"probes": len(self.ms), "kernel_ms_median": median(self.ms),
                "kernel_ms_min": min(self.ms, default=0.0),
                "kernel_ms_max": max(self.ms, default=0.0)}


@contextmanager
def patched(obj, attr: str, replacement):
    """Temporarily replace ``obj.attr`` (restored on exit)."""
    original = obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)
    setattr(obj, attr, replacement)
    try:
        yield
    finally:
        setattr(obj, attr, original)


# -- statistics --------------------------------------------------------------


@dataclass
class Samples:
    """Latencies of a timed loop: ``lat`` as measured (traced in a traced
    run) and ``plain``, the same queries untraced, in a traced run."""

    lat: List[float] = field(default_factory=list)
    plain: List[float] = field(default_factory=list)
    #: (start, end) of each ``lat`` sample, to scale it by host speed.
    at: List[tuple] = field(default_factory=list)

    def scaled(self, speed: HostSpeed) -> List[float]:
        """``lat`` at the reference host speed."""
        return [ms * speed.factor(a, b) for ms, (a, b) in zip(self.lat, self.at)]


def timed(run: "Run", samples: Samples, qid, fn):
    """Call ``fn`` as query ``qid`` and record its latency.

    The host speed is probed first, outside the timed call.  A traced run
    also calls it untraced, into ``samples.plain``; the order alternates
    so cache warmth favours neither.  Returns the traced call's result.
    """
    tr = run.tracer
    run.speed.maybe_probe()
    modes = [True]
    if run.trace:
        modes = [False, True] if len(samples.lat) % 2 == 0 else [True, False]
    out = None
    try:
        for traced in modes:
            tr.enabled = traced and run.trace
            tr.qid = qid
            t0 = time.perf_counter()
            with tr.span("query"):
                res = fn()
            t1 = time.perf_counter()
            ms = (t1 - t0) * 1e3
            if traced:
                samples.lat.append(ms)
                samples.at.append((t0, t1))
                out = res
            else:
                samples.plain.append(ms)
    finally:
        tr.enabled = run.trace
        tr.qid = None
    return out


def median(xs: Iterable[float]) -> float:
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


def p90(xs: Iterable[float]) -> float:
    xs = list(xs)
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def peak_rss_mb() -> float:
    """Peak RSS of this Python process (the Spark JVM is a separate
    process and is not included)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


# -- run context ---------------------------------------------------------------


@dataclass
class Run:
    """One benchmark invocation: arguments, scratch space and results."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    root: Path  # checkout root
    t_start: float  # process-start reference for setup_s
    toy: bool = False
    tracer: Tracer = field(init=False)
    speed: HostSpeed = field(init=False)
    meta: Dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    layers: Dict[str, dict] = field(default_factory=dict)

    def __post_init__(self):
        self.tracer = Tracer(self.trace)
        self.speed = HostSpeed()
        self.work = self.root / ".perfbench_work" / f"{self.workload}-{os.getpid()}"
        self.out_dir = self.root / ".perfbench_out"

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        if len(self.failures) < 20:
            self.failures.append(what)

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def base_meta(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "toy": self.toy,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "pyspark": _version("pyspark"),
            "pyarrow": _version("pyarrow"),
            "peak_rss_scope": "Python driver process; the Spark JVM is excluded",
            "host_speed": {**self.speed.summary(),
                           "ref_kernel_ms": REF_KERNEL_MS},
        }
