"""EPTAS drivers (Theorem 14).

Dual approximation: binary-search integer makespan guesses ``T``.  For each
guess, run the simplification chain (Lemmas 15–17), round into layers
(Lemma 18), and decide the window IP (Section 4.2).  The IP is feasible at
every ``T ≥ OPT`` (the paper's forward direction), so the search returns a
guess ``T* ≤ OPT`` together with a feasible window assignment; interval
coloring and the reinsertion chain (Lemma 19) then produce a schedule of
makespan ``(1 + O(ε)) · T* ≤ (1 + O(ε)) · OPT``.

The search is *incremental* (:mod:`repro.ptas.context`): one
:class:`~repro.ptas.context.GuessContext` per solve caches the sorted
instance profile, the per-class IP constraint blocks and the window-IP
verdict per rounded-instance signature.  A fresh signature is decided by
a constructive certificate first and by a feasibility-only solver call
only when that misses; the compression MILP runs once, for the winning
guess.  The schedule is identical to deciding every guess from scratch
(the preserved
rebuild-per-guess driver,
:mod:`repro.algorithms.reference.eptas_rebuild`, is the equivalence
reference); ``stats["incremental"]`` reports the reuse counters.

Two modes:

* ``mode="fixed_m"`` — the EPTAS for constantly many machines; uses exactly
  ``m`` machines.
* ``mode="augmentation"`` — the general EPTAS with resource augmentation;
  may use up to ``⌊εm⌋`` extra machines for classes with heavy medium load
  (the returned schedule's ``num_machines`` reflects this, and
  ``stats["extra_machines"]`` records the count).

Both modes report the *measured* bound decomposition in ``stats`` and the
a-priori guarantee ``(1+2ε)(1+ε) + 2ε + εδ(1+ε)`` (horizon rounding
included) as an exact Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Optional

from repro.algorithms.base import (
    ScheduleResult,
    trivial_class_per_machine,
)
from repro.algorithms.registry import register
from repro.core.bounds import lower_bound_int
from repro.core.errors import InfeasibleError
from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.obs import get_tracer
from repro.ptas.coloring import color_windows
from repro.ptas.context import GuessBundle, GuessContext
from repro.ptas.ip import solve_window_ip
from repro.ptas.layers import round_instance
from repro.ptas.params import choose_params
from repro.ptas.reinsert import realize_schedule
from repro.ptas.simplify import simplify

__all__ = [
    "schedule_eptas",
    "eptas_guess_feasible",
    "augmented_instance",
]


def eptas_guess_feasible(
    instance: Instance,
    T: int,
    epsilon: Fraction,
    mode: str,
    *,
    ip_backend: str = "auto",
    max_layers: int = 4000,
    context: Optional[GuessContext] = None,
) -> Optional[GuessBundle]:
    """Decide one makespan guess; return the artifacts or ``None``.

    With a ``context`` (the driver's per-solve
    :class:`~repro.ptas.context.GuessContext`), the decision reuses every
    cached guess-independent artifact and memoized IP outcome; without
    one, the guess is decided cold, exactly as the rebuild-per-guess
    driver does.
    """
    if context is not None:
        return context.decide(T)
    try:
        params = choose_params(instance, T, epsilon, mode)
        simplified = simplify(instance, T, params)
        rounded = round_instance(simplified, max_layers=max_layers)
        assignment = solve_window_ip(rounded, backend=ip_backend)
    except InfeasibleError:
        return None
    return GuessBundle(
        T=T,
        params=params,
        simplified=simplified,
        rounded=rounded,
        assignment=assignment,
    )


def _upper_bound(instance: Instance) -> int:
    from repro.algorithms.three_halves import schedule_three_halves

    return math.ceil(schedule_three_halves(instance).schedule.makespan)


@register("eptas")
def schedule_eptas(
    instance: Instance,
    *,
    epsilon: Fraction = Fraction(2, 5),
    mode: str = "augmentation",
    ip_backend: str = "auto",
    max_layers: int = 4000,
) -> ScheduleResult:
    """Run the EPTAS (Theorem 14).

    Parameters
    ----------
    epsilon:
        Accuracy in ``(0, 1/2]`` (exact Fraction recommended).
    mode:
        ``"fixed_m"`` (no extra machines) or ``"augmentation"``
        (up to ``⌊εm⌋`` extra machines).
    ip_backend:
        ``"milp"`` (HiGHS), ``"backtracking"`` (pure Python), or ``"auto"``.
    max_layers:
        Guard on the layer-grid size (the scheme is exponential in
        ``1/(εδ)``; see the paper's running-time discussion).

    The returned schedule may use more machines than ``instance`` in
    augmentation mode — validate against
    :func:`augmented_instance(instance, result.stats["extra_machines"])
    <augmented_instance>`.
    """
    epsilon = Fraction(epsilon)
    name = f"eptas[{mode}]"
    fast = trivial_class_per_machine(instance, name)
    if fast is not None:
        return fast

    tracer = get_tracer()
    with tracer.span("eptas.solve", instance=instance.name, mode=mode):
        lb = max(lower_bound_int(instance), 1)
        ub = _upper_bound(instance)

        ctx = GuessContext(
            instance, epsilon, mode, ip_backend=ip_backend,
            max_layers=max_layers,
        )
        with tracer.span("eptas.search", lb=lb, ub=ub):
            # The ub bundle seeds the warm-start state: its assignment
            # becomes the first backtracking hint and its IP outcome the
            # first signature entry.
            bundle = ctx.decide(ub)
            if bundle is None:  # pragma: no cover - forward direction
                raise InfeasibleError(
                    "window IP infeasible at the 3/2-approximation "
                    f"bound {ub}"
                )

            # Smallest feasible guess: predicate true for all T >= OPT,
            # so the returned T* satisfies T* <= OPT.  ctx.decide
            # memoizes per guess, so every value in [lb, ub] is decided
            # at most once even if the search revisits it.
            lo, hi = lb - 1, ub  # false at lo, known true at hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                candidate = ctx.decide(mid)
                if candidate is not None:
                    hi = mid
                    bundle = candidate
                else:
                    lo = mid

            # Search verdicts are exact, but their assignments are
            # certificates or feasibility-only solves; realize the cold
            # compression solve so the schedule is bit-for-bit the
            # rebuild driver's.
            bundle = ctx.finalize(bundle)

        with tracer.span("eptas.reinsert", T=bundle.T):
            colored = color_windows(
                bundle.assignment,
                bundle.rounded.grid.num_layers,
                instance.num_machines,
            )
            realized = realize_schedule(
                bundle.simplified, bundle.rounded, colored
            )
            schedule = Schedule(
                realized.placements,
                realized.num_machines,
                denominator=realized.denominator,
            )
        tracer.add_counters("eptas", ctx.stats())

    T = bundle.T
    eps = epsilon
    delta = bundle.params.delta
    # A-priori bound: stretched horizon (L*g <= (1+2eps)T + g) plus the two
    # end bands plus any end-appended tiny clumps (measured).
    guarantee = (
        (1 + 2 * eps + eps * delta) * (1 + eps)
        + 2 * eps
        + Fraction(realized.end_appended, T)
    )
    stats: Dict[str, object] = {
        "T": T,
        "epsilon": eps,
        "delta": delta,
        "delta_exponent": bundle.params.delta_exponent,
        "mode": mode,
        "num_layers": bundle.rounded.grid.num_layers,
        "grid": bundle.rounded.grid.g,
        "windows": bundle.rounded.total_windows(),
        "extra_machines": realized.extra_machines,
        "stretched_horizon": realized.stretched_horizon,
        "end_appended": realized.end_appended,
        "search_range": (lb, ub),
        "incremental": ctx.stats(),
    }
    return ScheduleResult(
        schedule=schedule,
        lower_bound=T,
        algorithm=name,
        guarantee=guarantee,
        stats=stats,
    )


def augmented_instance(instance: Instance, extra: int) -> Instance:
    """Copy of ``instance`` with ``extra`` additional machines, for
    validating augmentation-mode schedules."""
    if extra == 0:
        return instance
    return Instance(
        instance.jobs,
        instance.num_machines + extra,
        name=f"{instance.name}+{extra}m",
        class_labels=instance.class_labels,
    )
