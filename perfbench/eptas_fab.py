"""eptas-fab: in-process EPTAS solves of photolithography fab shifts.

``schedule_eptas(mode="augmentation", epsilon=1/2)`` on a fixed, seeded
set of shifts (3 steppers, 7 reticles, 16 lots).  The window integer
program is nearly all of the wall time here and the dispatch kernel
almost none.  Every schedule is validated on its augmented instance and
its makespan checked against the solver's own a-priori guarantee.  The
timings are scaled to a reference host speed (see ``common.HostSpeed``).  The
traced run solves the set once untraced and once under a
``repro.obs.Tracer``, reads the ``eptas.*`` phase spans, and requires the
incremental-search counters of both passes to match exactly.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

import common
import inputs
from common import Context, HostSpeed, Outcome, check

EPSILON = Fraction(1, 2)
#: Shifts per run and second of --seconds (one solve is ~0.2 s on a
#: 2-core x86 box).
SHIFTS_PER_SECOND = 5
COUNTERS = ("guesses", "ip_solves", "signature_hits")
#: Shifts solved between two host-speed samples (~1 s of work).
BLOCK = 5


def _make_inputs(ctx: Context):
    rng = random.Random(ctx.seed)
    warmup = inputs.payload(inputs.fab_shift(rng), inputs.FAB_STEPPERS, "warmup")
    count = max(10, round(SHIFTS_PER_SECOND * ctx.seconds))
    return warmup, inputs.fab_shifts(rng, count, f"fab-s{ctx.seed}")


def _setup(ctx: Context):
    """Make the inputs and start the program (``import repro.ptas`` in a
    fresh interpreter) ``SETUP_REPEATS`` times; returns (median wall scaled
    to the reference host speed, warm-up shift, shifts)."""

    def once():
        made = _make_inputs(ctx)
        common.cold_import_s("repro.ptas", repeats=1)
        return made

    walls = []
    with common.CpuProbe(ctx.workdir, max_seconds=120) as probe:
        for _ in range(common.SETUP_REPEATS):
            (warmup, shifts), _, scaled = probe.timed(once)
            walls.append(scaled)
    return statistics.median(walls), warmup, shifts


def _solve_all(shifts, timed: bool, outcome: Outcome, failures: list):
    """Parse, solve, validate and serialize each shift.  Returns (wall,
    per-shift solve seconds, {phase: seconds}, per-shift counters,
    per-shift makespan/T)."""
    from repro import Instance, validate_schedule
    from repro.ptas import augmented_instance, schedule_eptas

    clock = time.perf_counter
    spent = {"parse": 0.0, "validate": 0.0, "serialize": 0.0}
    solves, counters, ratios = [], [], []
    start = clock()
    for data in shifts:
        t0 = clock()
        instance = Instance.from_dict(data)
        t1 = clock()
        result = schedule_eptas(instance, mode="augmentation", epsilon=EPSILON)
        t2 = clock()
        target = augmented_instance(instance, result.stats["extra_machines"])
        validate_schedule(target, result.schedule)
        t3 = clock()
        result.schedule.to_dict()
        t4 = clock()
        if timed:
            spent["parse"] += t1 - t0
            spent["validate"] += t3 - t2
            spent["serialize"] += t4 - t3
        solves.append(t2 - t1)
        incremental = result.stats["incremental"]
        counters.append(tuple(incremental[name] for name in COUNTERS))
        ratio = result.makespan / result.lower_bound
        ratios.append(float(ratio))
        outcome.attempted += 1
        if ratio > result.guarantee:
            outcome.failed += 1
            failures.append(f"{data['name']}: ratio {ratio} above {result.guarantee}")
    return clock() - start, solves, spent, counters, ratios


def run(ctx: Context) -> Outcome:
    from repro import Instance
    from repro.ptas import schedule_eptas

    outcome = Outcome()
    failures: list = []
    setup_s, warmup, shifts = _setup(ctx)
    # First solve loads the MILP backend; not part of the measured set.
    schedule_eptas(Instance.from_dict(warmup), mode="augmentation", epsilon=EPSILON)
    if ctx.trace:
        return run_traced(shifts, outcome, failures)

    # Blocks of shifts are timed between two host-speed samples; each
    # solve is scaled by its block's factor.
    speed = HostSpeed()
    walls, solves, ratios = [0.0, 0.0], ([], []), []
    for first in range(0, len(shifts), BLOCK):
        (_, block, _, _, block_ratios), wall, scaled = speed.timed(
            _solve_all, shifts[first:first + BLOCK], False, outcome, failures
        )
        walls[0] += wall
        walls[1] += scaled
        solves[0].extend(block)
        solves[1].extend(t * scaled / wall for t in block)
        ratios.extend(block_ratios)

    def figures(column: int) -> dict:
        """Timing metrics from the raw (0) or scaled (1) walls."""
        return {
            "throughput_per_s": len(shifts) / walls[column],
            "p50_ms": 1000 * statistics.median(solves[column]),
            "mean_ms": 1000 * statistics.fmean(solves[column]),
        }

    outcome.metrics = {
        "setup_s": setup_s,
        **figures(1),
        "ok_ratio": 1 - outcome.failed / outcome.attempted,
        "mean_bound_ratio": statistics.fmean(ratios),
        "peak_rss_mb": common.peak_rss_mb(children=False),
    }
    outcome.details = {
        "input_digest": inputs.digest(shifts),
        "raw_timings": figures(0),
        "host_slowdown_median": statistics.median(speed.slowdowns),
        "shifts": len(shifts),
        "eptas_solve_p50_s": statistics.median(solves[1]),
        "eptas_total_s": sum(solves[1]),
        "eptas_max_s": max(solves[1]),
        "failures": failures[:10],
    }
    return outcome


def run_traced(shifts, outcome: Outcome, failures: list) -> Outcome:
    from repro.obs import Tracer, phase_totals, set_tracer

    wall_plain, _, _, counts_plain, _ = _solve_all(shifts, False, outcome, failures)
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        wall, _, spent, counts, _ = _solve_all(shifts, True, outcome, failures)
    finally:
        set_tracer(previous)
    check(
        counts == counts_plain,
        "EPTAS search counters differ between two passes over one seed",
    )
    phases = {
        name: entry["total_s"]
        for name, entry in phase_totals(tracer.events, prefix="eptas.").items()
    }
    guesses, ip_solves, hits = (sum(column) for column in zip(*counts))
    metrics = {name: 0.0 for name in common.metric_units("per_layer")}
    metrics.update({
        "core.parse_share": common.share(spent["parse"], wall),
        "core.validate_share": common.share(spent["validate"], wall),
        "core.serialize_share": common.share(spent["serialize"], wall),
        "ptas.classify_share": common.share(phases.get("eptas.classify", 0), wall),
        "ptas.search_share": common.share(phases.get("eptas.search", 0), wall),
        "ptas.ip_solve_share": common.share(phases.get("eptas.ip_solve", 0), wall),
        "ptas.reinsert_share": common.share(phases.get("eptas.reinsert", 0), wall),
        "ptas.ip_share": common.share(
            phases.get("eptas.ip_solve", 0), phases.get("eptas.solve", 0)
        ),
        "ptas.guesses": guesses,
        "ptas.ip_solves": ip_solves,
        "ptas.signature_hits": hits,
        "ptas.ip_solves_per_guess": common.share(ip_solves, guesses),
        "obs.trace_overhead_pct": 100 * (wall / wall_plain - 1),
    })
    outcome.metrics = metrics
    outcome.details = {
        "input_digest": inputs.digest(shifts),
        "phase_totals_s": phases,
        "pass_wall_s": {"untraced": wall_plain, "traced": wall},
        "failures": failures[:10],
    }
    return outcome
