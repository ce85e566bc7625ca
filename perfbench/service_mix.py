"""service-mix: a ``python -m repro serve`` subprocess under two closed
loops on two connections.

* interactive: cheap ``three_halves``/``five_thirds`` solves drawn with
  Zipf popularity from a fixed pool of small instances, so part of them
  are answered from the result store (reads) while the rest are solved
  and written to it; a fixed, seeded sequence, sent back to back.
* heavy: never-repeated EPTAS fab-shift solves with a fixed think time,
  until the interactive sequence is done.

Each session starts a server on a fresh results file (cold cache).  The
traced run drives the same session twice, once against a server started
with ``--trace`` and once without, and reads the server's spans, its
``stats`` frame and the per-frame ``elapsed_ms``.
"""

from __future__ import annotations

import random
import re
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import common
import inputs
from common import Context, Outcome, check

#: With Zipf(0.8) popularity over 1200 instances x 2 algorithms, about a
#: third of the interactive requests repeat an earlier one (cache hits),
#: so the median request is a fresh solve.
POOL_SIZE = 1200
#: Interactive requests per second of --seconds.
REQUESTS_PER_SECOND = 25
INTERACTIVE = ("three_halves", "five_thirds")
GUARANTEES = {"five_thirds": Fraction(5, 3), "three_halves": Fraction(3, 2)}
HEAVY_PARAMS = {"epsilon": "1/2", "mode": "augmentation"}
THINK_S = 1.0
HOST = "127.0.0.1"


def _make_inputs(ctx: Context):
    rng = random.Random(ctx.seed)
    pool = inputs.small_uniform_pool(rng, POOL_SIZE)
    length = max(200, round(REQUESTS_PER_SECOND * ctx.seconds))
    sequence = inputs.interactive_sequence(rng, POOL_SIZE, length, INTERACTIVE)
    heavy = inputs.fab_shifts(rng, int(ctx.seconds / THINK_S) + 10, f"heavy-s{ctx.seed}")
    return pool, sequence, heavy


class Server:
    """One ``python -m repro serve`` child on an ephemeral port."""

    def __init__(self, workdir: Path, name: str, trace: bool = False) -> None:
        self.results = workdir / f"{name}.jsonl"
        self.trace_path = workdir / f"{name}.trace.jsonl" if trace else None
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0", "-o", str(self.results)]
        if self.trace_path is not None:
            argv += ["--trace", str(self.trace_path)]
        self.log = open(workdir / f"{name}.stderr", "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=common.ROOT, stdout=subprocess.PIPE, stderr=self.log, text=True
        )
        self.port = self._await_port()
        self.startup_s = time.perf_counter() - start

    def _await_port(self) -> int:
        for line in self.proc.stdout:
            match = re.search(r"serving on [^:]+:(\d+)", line)
            if match:
                return int(match.group(1))
        self.stop()
        raise common.BenchError("server exited before listening")

    def stop(self) -> None:
        """Ask for a graceful shutdown, then wait for the child."""
        from repro.service import ServiceClient, ServiceError

        if self.proc.poll() is None:
            try:
                with ServiceClient(HOST, self.port, timeout=30) as client:
                    client.shutdown()
            except (OSError, ServiceError):
                pass  # already gone; the wait below reaps it
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        check(self.proc.returncode == 0, f"server exited {self.proc.returncode}")


def _interactive(port, pool, sequence):
    from repro.service import ServiceBusy, ServiceClient

    answers, busy = [], 0
    clock = time.perf_counter
    with ServiceClient(HOST, port, timeout=120) as client:
        for index, algorithm in sequence:
            start = clock()
            try:
                outcome = client.solve(pool[index], algorithm)
            except ServiceBusy:
                busy += 1
                continue
            answers.append((index, algorithm, clock() - start, outcome))
    return answers, busy


def _heavy(port, shifts, stop: threading.Event):
    from repro.service import ServiceBusy, ServiceClient

    answers, busy = [], 0
    clock = time.perf_counter
    with ServiceClient(HOST, port, timeout=120) as client:
        for shift in shifts:
            start = clock()
            try:
                outcome = client.solve(shift, "eptas", HEAVY_PARAMS)
            except ServiceBusy:
                busy += 1
            else:
                answers.append((shift["name"], clock() - start, outcome))
            if stop.wait(THINK_S):
                break
    return answers, busy


def _session(server: Server, pool, sequence, heavy):
    """Drive both loops; returns (wall, interactive, heavy, busy, stats)."""
    from repro.service import ServiceClient

    stop = threading.Event()
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=2) as executor:
        heavy_future = executor.submit(_heavy, server.port, heavy, stop)
        try:
            interactive, busy_i = executor.submit(
                _interactive, server.port, pool, sequence
            ).result()
        finally:
            stop.set()
        heavy_answers, busy_h = heavy_future.result()
    wall = time.perf_counter() - start
    with ServiceClient(HOST, server.port, timeout=30) as client:
        stats = client.stats()
    return wall, interactive, heavy_answers, busy_i + busy_h, stats


def _check_answers(interactive, heavy_answers, busy, outcome: Outcome, failures: list):
    """Output checks; returns (cache-hit count, {key: makespan/T})."""
    first, ratios, hits = {}, {}, 0
    outcome.attempted += len(interactive) + len(heavy_answers) + busy
    outcome.failed += busy
    if busy:
        failures.append(f"{busy} requests refused with 'busy'")
    for index, algorithm, _rtt, answer in interactive:
        record = answer.record
        key = (index, algorithm)
        problem = None
        if not record.ok or not record.valid:
            problem = f"{record.status}/valid={record.valid}: {record.error}"
        elif record.makespan > GUARANTEES[algorithm] * record.lower_bound:
            problem = f"ratio {record.ratio} above guarantee"
        elif key in first:
            if record.canonical_dict() != first[key]:
                problem = "cached answer differs from the first fresh answer"
        elif answer.cached:
            problem = "first answer for a key came from the cache"
        if answer.cached:
            hits += 1
        first.setdefault(key, record.canonical_dict())
        ratios[key] = float(record.ratio)
        if problem:
            outcome.failed += 1
            failures.append(f"pool[{index}] x {algorithm}: {problem}")
    for name, _rtt, answer in heavy_answers:
        record = answer.record
        if not record.ok or not record.valid:
            outcome.failed += 1
            failures.append(f"{name} x eptas: {record.status}/valid={record.valid}")
        else:
            ratios[name] = float(record.ratio)
    return hits, ratios


def run(ctx: Context) -> Outcome:
    if ctx.trace:
        return run_traced(ctx)
    outcome = Outcome()
    failures: list = []
    starts = []

    def start(attempt):
        return _make_inputs(ctx), Server(ctx.workdir, f"server-{attempt}")

    # Set-up is scaled to the reference host speed (common.CpuProbe); the
    # probe stops before the session, which is not scaled.
    with common.CpuProbe(ctx.workdir, max_seconds=120) as probe:
        for attempt in range(common.SETUP_REPEATS):
            ((pool, sequence, heavy), server), _, scaled = probe.timed(start, attempt)
            starts.append(scaled)
            if attempt < common.SETUP_REPEATS - 1:
                server.stop()
    try:
        wall, interactive, heavy_answers, busy, stats = _session(server, pool, sequence, heavy)
    finally:
        server.stop()
    hits, ratios = _check_answers(interactive, heavy_answers, busy, outcome, failures)
    check(len(interactive) >= 200, f"only {len(interactive)} interactive samples")
    rtts = [1000 * rtt for _i, _a, rtt, _o in interactive]
    heavy_rtts = [1000 * rtt for _n, rtt, _o in heavy_answers]
    outcome.metrics = {
        "setup_s": statistics.median(starts),
        "throughput_per_s": (len(interactive) + len(heavy_answers)) / wall,
        "p50_ms": statistics.median(rtts),
        "mean_ms": statistics.fmean(rtts),
        "ok_ratio": 1 - outcome.failed / outcome.attempted,
        "mean_bound_ratio": statistics.fmean(ratios.values()),
        "peak_rss_mb": common.peak_rss_mb(children=True),
    }
    outcome.details = {
        "input_digest": inputs.digest([pool, sequence, heavy]),
        "interactive_count": len(rtts),
        "interactive_p50_ms": statistics.median(rtts),
        "interactive_p95_ms": common.percentile(rtts, 0.95),
        "interactive_cache_hit_share": hits / len(interactive),
        "heavy_count": len(heavy_rtts),
        "heavy_p50_ms": statistics.median(heavy_rtts) if heavy_rtts else None,
        "service_rps": (len(interactive) + len(heavy_answers)) / wall,
        "server_counters": stats.get("counters"),
        "failures": failures[:10],
    }
    return outcome


def _spans_by(events, name, arg):
    totals = {}
    for event in events:
        if event.get("name") == name:
            key = (event.get("args") or {}).get(arg)
            totals[key] = totals.get(key, 0.0) + float(event.get("dur") or 0.0)
    return totals


def run_traced(ctx: Context) -> Outcome:
    from repro.obs import load_trace, phase_totals

    outcome = Outcome()
    failures: list = []
    pool, sequence, heavy = _make_inputs(ctx)
    walls = {}
    for traced in (False, True):
        server = Server(ctx.workdir, f"session-{int(traced)}", trace=traced)
        try:
            walls[traced], interactive, heavy_answers, busy, stats = _session(
                server, pool, sequence, heavy
            )
        finally:
            server.stop()
        _check_answers(interactive, heavy_answers, busy, outcome, failures)
    wall = walls[True]
    events = load_trace(server.trace_path)["events"]
    phases = {name: e["total_s"] for name, e in phase_totals(events).items()}
    solves = _spans_by(events, "sweep.solve", "algorithm")
    counters = stats.get("counters") or {}
    latency = stats.get("latency_ms") or {}
    fresh = [(rtt, o.elapsed_ms / 1000) for _i, _a, rtt, o in interactive if not o.cached]
    cell_other = phases.get("sweep.cell", 0) - sum(
        phases.get(name, 0) for name in ("sweep.solve", "sweep.emit", "sweep.fetch")
    )
    answered = counters.get("cache_hits", 0) + counters.get("solved", 0) + counters.get("coalesced", 0)

    metrics = {name: 0.0 for name in common.metric_units("per_layer")}
    metrics.update({
        "core.parse_share": common.share(cell_other, wall),
        "core.validate_share": common.share(phases.get("sweep.emit", 0), wall),
        "ptas.classify_share": common.share(phases.get("eptas.classify", 0), wall),
        "ptas.search_share": common.share(phases.get("eptas.search", 0), wall),
        "ptas.ip_solve_share": common.share(phases.get("eptas.ip_solve", 0), wall),
        "ptas.reinsert_share": common.share(phases.get("eptas.reinsert", 0), wall),
        "ptas.ip_share": common.share(
            phases.get("eptas.ip_solve", 0), phases.get("eptas.solve", 0)
        ),
        "runner.run_plan_share": common.share(phases.get("sweep.run_plan", 0), wall),
        "service.dispatch_overhead_share": common.share(
            phases.get("service.dispatch", 0) - phases.get("sweep.run_plan", 0), wall
        ),
        "service.server_share": common.share(
            sum(server_s for _rtt, server_s in fresh), sum(rtt for rtt, _ in fresh)
        ),
        "service.server_tail_ratio": common.share(latency.get("p99", 0), latency.get("p50", 0)),
        "service.cache_hit_ratio": common.share(counters.get("cache_hits", 0), answered),
        "service.mean_batch_size": common.share(
            counters.get("solved", 0) + counters.get("coalesced", 0), counters.get("batches", 0)
        ),
        "service.coalesced": counters.get("coalesced", 0),
        "service.rejected": counters.get("rejected", 0),
        "obs.trace_overhead_pct": 100 * (wall / walls[False] - 1),
    })
    for algorithm in INTERACTIVE:
        metrics[f"algorithms.{algorithm}.solve_share"] = common.share(solves.get(algorithm, 0), wall)
    outcome.metrics = metrics
    outcome.details = {
        "input_digest": inputs.digest([pool, sequence, heavy]),
        "session_wall_s": {"untraced": walls[False], "traced": wall},
        "server_phase_totals_s": phases,
        "server_stats": stats,
        "failures": failures[:10],
    }
    return outcome
