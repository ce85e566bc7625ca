"""Shared plumbing: environment, timing statistics, subprocesses, output.

Every workload module exposes ``run(ctx) -> Outcome``; :mod:`run` fills
the context, calls it, and prints the result line.
"""

from __future__ import annotations

import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Environment switches that change what the program does (sweep backend,
#: shard count, dispatch kernel, tracing).  CI jobs set them; they are
#: cleared here and therefore in every subprocess the benchmark starts.
CLEARED_ENV = (
    "REPRO_SWEEP_BACKEND",
    "REPRO_SWEEP_SHARDS",
    "REPRO_KERNEL",
    "REPRO_TRACE",
)

#: Set-ups per run; ``setup_s`` is the median of their walls, scaled by
#: :class:`CpuProbe`.  Unscaled, a median of 3 spread 23-36 % over 10 seeds.
SETUP_REPEATS = 5

ALGORITHMS = (
    "five_thirds",
    "three_halves",
    "no_huge",
    "class_greedy",
    "list_lpt",
    "merge_lpt",
)


def metric_units(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics
    listed in BENCHMARK.json (README.md defines each one)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


#: Seconds :func:`_reference_loop` takes on a quiet 2-core x86-64 box
#: with Python 3.11: the speed the reported timings are scaled to.
REFERENCE_LOOP_S = 0.05


def _reference_loop() -> int:
    table = {}
    acc = 0
    for i in range(250_000):
        acc += (i * i) % 7
        table[i & 1023] = acc
    return acc


class HostSpeed:
    """How fast the host CPU ran around each timed unit of work.

    On a shared host the same work takes up to ~50 % longer from one
    minute, sometimes one second, to the next.  A fixed pure-Python loop
    follows that drift: over ~10 s windows its time correlated 0.94 with
    EPTAS solve time, and dividing by it cut the windows' spread from
    4.8 % to 1.7 %.  :meth:`timed` runs the loop right before and right
    after a unit, while the benchmark's own work is idle, and scales the
    unit's wall time to a host that runs the loop in
    :data:`REFERENCE_LOOP_S`.

    Only EPTAS solves and all-cached sweep reruns are scaled: CPU-bound
    work in the benchmark process alone.  A sweep over the worker pool,
    cold CLI calls, the set-up's file writes and interpreter starts, and
    the service's batching window and socket waits do not follow the
    loop; scaled the same way, their run-to-run spread did not shrink
    reliably, and for the service it grew from ~5 % to ~25 %.
    """

    def __init__(self) -> None:
        self.slowdowns: List[float] = []

    def sample(self) -> float:
        """Loop time over the reference time (> 1: host slower)."""
        start = time.perf_counter()
        _reference_loop()
        slowdown = (time.perf_counter() - start) / REFERENCE_LOOP_S
        self.slowdowns.append(slowdown)
        return slowdown

    def timed(self, fn, *args):
        """Run ``fn(*args)`` between two samples; returns (result, wall
        seconds, wall seconds scaled to the reference speed)."""
        before = self.sample()
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        return result, wall, wall * 2 / (before + self.sample())


#: CPU seconds one ``hostprobe`` sample takes on the reference host
#: (a tenth of :func:`_reference_loop`).
REFERENCE_PROBE_S = REFERENCE_LOOP_S / 10


class CpuProbe:
    """Host speed sampled *while* a unit of multi-process work runs.

    :class:`HostSpeed` samples before and after a unit, which fails for a
    ~3 s sweep over the worker pool: the host changes speed within it.
    Here a child process (``hostprobe.py``) runs a ~4 ms loop every ~0.1 s
    for as long as the context is open and logs the loop's CPU time, which
    leaves out the time it waits behind the benchmark's own processes.
    :meth:`slowdown` averages the samples taken inside a unit.  On the
    shared 2-core host below, over 39 sweeps, the sweep's wall time
    correlated 0.87 with that average; scaling by it cut the per-sweep
    spread from 13 % to 7 % and the spread of medians over groups of five
    sweeps from 22 % to 4 %.  The probe takes ~4 % of one core.
    """

    def __init__(self, workdir: Path, max_seconds: float) -> None:
        self.log = workdir / "hostprobe.log"
        self.max_seconds = max_seconds
        self.proc = None

    def __enter__(self) -> "CpuProbe":
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("hostprobe.py")),
             str(self.log), str(self.max_seconds)],
            stdin=subprocess.DEVNULL,
        )
        start = time.monotonic()
        while not self._samples() and time.monotonic() - start < 10:
            time.sleep(0.05)
        check(bool(self._samples()), "host probe wrote no sample")
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def _samples(self) -> List[tuple]:
        try:
            lines = self.log.read_text().splitlines()
        except FileNotFoundError:
            return []
        return [tuple(map(float, line.split())) for line in lines if len(line.split()) == 2]

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe CPU time over the reference, for samples taken in
        ``[start, end]`` (``time.monotonic`` values); the three nearest
        samples when fewer fall inside."""
        samples = self._samples()
        inside = [cpu for at, cpu in samples if start <= at <= end]
        if len(inside) < 3:
            middle = (start + end) / 2
            inside = [cpu for _, cpu in sorted(samples, key=lambda s: abs(s[0] - middle))[:3]]
        return statistics.fmean(inside) / REFERENCE_PROBE_S

    def timed(self, fn, *args):
        """Run ``fn(*args)``; returns (result, wall seconds, wall seconds
        scaled to the reference speed)."""
        start = time.monotonic()
        result = fn(*args)
        end = time.monotonic()
        return result, end - start, (end - start) / self.slowdown(start, end)


class BenchError(Exception):
    """An output check failed: the run reports ``correct: false``."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise BenchError(message)


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    workdir: Path


@dataclass
class Outcome:
    """What a workload measured.  ``metrics`` holds the end-to-end set
    (trace off) or the per-layer set (trace on); ``details`` is printed
    for people and is not part of the result object."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)


def prepare_environment() -> None:
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    os.environ["PYTHONPATH"] = str(SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def fresh_workdir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def cleanup(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass  # another workload's directory is still there


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(p * len(ordered) + 0.5) - 1))
    return ordered[index]


def peak_rss_mb(children: bool) -> float:
    """Peak resident set (MB) of this process or of its largest waited-for
    child (Linux reports ``ru_maxrss`` in KiB)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def cold_import_s(module: str, repeats: int = 3) -> float:
    """Median wall time of ``python -c "import <module>"`` in a fresh
    interpreter (start-up included)."""
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        walls.append(time.perf_counter() - start)
        check(proc.returncode == 0, f"import {module} failed: {proc.stderr[-500:]}")
    return statistics.median(walls)


def environment_record() -> Dict[str, object]:
    record: Dict[str, object] = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    for module in ("numpy", "scipy"):
        # Read from package metadata: importing them here would preload
        # them into every worker the benchmark process forks.
        try:
            record[module] = importlib.metadata.version(module)
        except importlib.metadata.PackageNotFoundError:
            record[module] = None
    return record


def share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def emit(outcome: Outcome, correct: bool, units: Dict[str, str]) -> None:
    """Print the details, then the result object as the last line."""
    for key in sorted(outcome.details):
        print(f"{key}: {json.dumps(outcome.details[key], sort_keys=True)}")
    metrics = {
        name: {"value": float(outcome.metrics[name]), "unit": units[name]}
        for name in units
        if name in outcome.metrics
    }
    print(json.dumps({
        "correct": correct,
        "attempted": int(max(outcome.attempted, 1)),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }), flush=True)
