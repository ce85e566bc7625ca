"""Per-solve incremental state for the EPTAS binary search.

The dual-approximation driver (:mod:`repro.ptas.eptas`) decides a
sequence of makespan guesses that are highly self-similar: the instance
never changes, the layer count ``L = ⌈(1+2ε)/(εδ)⌉`` depends only on the
chosen ``δ``, and the per-class window demands ``⌈p/(εδT)⌉`` move only
when a guess crosses a rounding boundary.  This module caches everything
guess-independent once per solve:

* :class:`InstanceProfile` — sorted size arrays and prefix sums, so the
  parameter bands (:func:`~repro.ptas.params.choose_params`) and the
  class splits (:func:`~repro.ptas.simplify.simplify`) are bisections
  instead of full scans at every guess;
* a **window-IP outcome memo** keyed by the rounded instance's
  *signature* ``(L, m, per-class demands)`` — feasibility of the window
  IP depends on nothing else, so two guesses with equal signatures share
  one verdict;
* a :class:`~repro.ptas.ip.WindowIPSkeleton` of per-class constraint
  blocks for the MILP backend, and the most recent feasible assignment
  as a branch-order ``hint`` for the backtracking backend.

The search is **certificate-first**: a guess needs only a yes/no
verdict, so a fresh signature is first offered to
:func:`~repro.ptas.ip.certify_window_ip`, a McNaughton wrap-around
packing accepted only when
:func:`~repro.ptas.ip.assignment_satisfies` proves it feasible.  Only on
a miss does a solver run, and then as the paper's pure feasibility
problem (``compress=False``).  Every verdict is exact, so the search
visits the same guesses and stops at the same ``T*`` as deciding each
guess cold.

Canonicality: search assignments (certificates, feasibility-only or
hinted solves) are never realized.  :meth:`GuessContext.finalize`
re-solves the winning guess cold with the compression objective, the
one optimisation solve per EPTAS run — so the realized schedule is
bit-for-bit the rebuild-per-guess driver's
(:mod:`repro.algorithms.reference.eptas_rebuild`), which the
equivalence harness asserts.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro.core.errors import InfeasibleError
from repro.core.instance import Instance, Job
from repro.obs import get_tracer
from repro.ptas.ip import (
    _HAVE_MILP,
    WindowAssignment,
    WindowIPSkeleton,
    assignment_satisfies,
    certify_window_ip,
    solve_window_ip,
)
from repro.ptas.layers import RoundedInstance, round_instance
from repro.ptas.params import PtasParams, choose_params
from repro.ptas.simplify import SimplifiedInstance, simplify
from repro.util.rational import Number

__all__ = [
    "GuessBundle",
    "GuessContext",
    "InstanceProfile",
    "rounded_signature",
]

#: Hashable identity of a rounded instance: everything the window IP
#: sees.  Two guesses with equal signatures have *the same* IP.
Signature = Tuple[int, int, Tuple[Tuple[int, Tuple[Tuple[int, int], ...]], ...]]


def rounded_signature(rounded: RoundedInstance) -> Signature:
    """The ``(L, m, per-class window demands)`` identity of ``rounded``."""
    return (
        rounded.grid.num_layers,
        rounded.num_machines,
        tuple(
            (cid, tuple(sorted(counts.items())))
            for cid, counts in sorted(rounded.unit_counts.items())
        ),
    )


def _ifloor(x: Number) -> int:
    """``⌊x⌋`` as an int (exact for Fraction/int thresholds)."""
    return math.floor(x)


class InstanceProfile:
    """Guess-independent sorted views of one instance.

    Job sizes are integers, so every threshold test ``p ≤ x`` against a
    rational ``x`` equals ``p ≤ ⌊x⌋`` — which turns the band totals of
    :func:`~repro.ptas.params.choose_params` and the big/medium/small
    splits of :func:`~repro.ptas.simplify.simplify` into bisections over
    these arrays.  Built once per solve, shared by every guess.
    """

    __slots__ = ("sizes", "prefix", "class_jobs", "class_sizes", "class_prefix")

    def __init__(self, instance: Instance) -> None:
        self.sizes: List[int] = sorted(job.size for job in instance.jobs)
        self.prefix: List[int] = _prefix_sums(self.sizes)
        # Per class: members stably sorted by size (ties keep declaration
        # order), their size array, and its prefix sums.
        self.class_jobs: Dict[int, List[Job]] = {}
        self.class_sizes: Dict[int, List[int]] = {}
        self.class_prefix: Dict[int, List[int]] = {}
        for cid, members in instance.classes.items():
            jobs = sorted(members, key=lambda job: job.size)
            self.class_jobs[cid] = jobs
            sizes = [job.size for job in jobs]
            self.class_sizes[cid] = sizes
            self.class_prefix[cid] = _prefix_sums(sizes)

    def band(self, lo: Number, hi: Number) -> int:
        """Total size of jobs with ``p_j ∈ (lo, hi]`` (== ``job_band``)."""
        i = bisect.bisect_right(self.sizes, _ifloor(lo))
        j = bisect.bisect_right(self.sizes, _ifloor(hi))
        return self.prefix[j] - self.prefix[i]

    def class_band(self, lo: Number, hi: Number) -> int:
        """The class-band quantity of ``choose_params`` condition 2."""
        hi_floor = _ifloor(hi)
        total = 0
        for cid, sizes in self.class_sizes.items():
            below = self.class_prefix[cid][bisect.bisect_right(sizes, hi_floor)]
            if lo < below <= hi:
                total += below
        return total

    def split_class(
        self, cid: int, params: PtasParams, T: Number
    ) -> Tuple[List[Job], List[Job], List[Job]]:
        """``(big, medium, small)`` members of one class for guess ``T``.

        Same sets as the scan-based split (``is_big``/``is_medium``/
        ``is_small``), as contiguous slices of the size-sorted members.
        """
        jobs = self.class_jobs[cid]
        sizes = self.class_sizes[cid]
        i_small = bisect.bisect_right(sizes, _ifloor(params.mu * T))
        i_big = bisect.bisect_right(sizes, _ifloor(params.delta * T))
        return jobs[i_big:], jobs[i_small:i_big], jobs[:i_small]


def _prefix_sums(values: List[int]) -> List[int]:
    prefix = [0]
    acc = 0
    for v in values:
        acc += v
        prefix.append(acc)
    return prefix


@dataclass
class GuessBundle:
    """Everything produced for one feasible makespan guess.

    During the search ``assignment`` is any feasibility proof; the
    driver realizes only the bundle returned by
    :meth:`GuessContext.finalize`.
    """

    T: int
    params: PtasParams
    simplified: SimplifiedInstance
    rounded: RoundedInstance
    assignment: WindowAssignment


class GuessContext:
    """Warm-start state shared by every guess of one EPTAS solve."""

    def __init__(
        self,
        instance: Instance,
        epsilon: Fraction,
        mode: str,
        *,
        ip_backend: str = "auto",
        max_layers: int = 4000,
    ) -> None:
        self.instance = instance
        self.epsilon = Fraction(epsilon)
        self.mode = mode
        self.ip_backend = ip_backend
        self.max_layers = max_layers
        self.profile = InstanceProfile(instance)
        self.skeleton = WindowIPSkeleton()
        #: Guess value → decided bundle (``None`` = infeasible); the
        #: binary search never pays for the same ``T`` twice.
        self.decided: Dict[int, Optional[GuessBundle]] = {}
        #: IP signature → feasible assignment, or ``None`` if infeasible.
        self._outcomes: Dict[Signature, Optional[WindowAssignment]] = {}
        #: Most recent feasible assignment — the backtracking hint.
        self._warm: Optional[WindowAssignment] = None
        self.counters: Dict[str, int] = {
            "guesses": 0,
            "guess_memo_hits": 0,
            "signature_hits": 0,
            "certified": 0,
            "ip_solves": 0,
            "hinted_solves": 0,
            "final_resolves": 0,
        }

    # ------------------------------------------------------------------ #
    def decide(self, T: int) -> Optional[GuessBundle]:
        """Decide one makespan guess, reusing every cached artifact.

        Returns the bundle for a feasible guess, ``None`` for an
        infeasible one; memoized per ``T`` and per IP signature.
        """
        if T in self.decided:
            self.counters["guess_memo_hits"] += 1
            return self.decided[T]
        self.counters["guesses"] += 1
        bundle = self._decide_fresh(T)
        self.decided[T] = bundle
        return bundle

    def _decide_fresh(self, T: int) -> Optional[GuessBundle]:
        tracer = get_tracer()
        try:
            with tracer.span("eptas.classify", T=T):
                params = choose_params(
                    self.instance, T, self.epsilon, self.mode,
                    profile=self.profile,
                )
                simplified = simplify(
                    self.instance, T, params, profile=self.profile
                )
                rounded = round_instance(
                    simplified, max_layers=self.max_layers
                )
        except InfeasibleError:
            return None

        signature = rounded_signature(rounded)
        if signature in self._outcomes:
            assignment = self._outcomes[signature]
            # The signature determines the IP completely, but the reuse
            # is still certificate-checked — a mismatch would mean the
            # signature lost information, which must fail loudly.
            if assignment is not None and not assignment_satisfies(
                rounded, assignment
            ):  # pragma: no cover - signature is exact by construction
                raise AssertionError(
                    "cached window assignment does not satisfy an "
                    "identical IP signature"
                )
            self.counters["signature_hits"] += 1
        else:
            assignment = self._certify_or_solve(T, rounded)
            self._outcomes[signature] = assignment
        if assignment is None:
            return None
        self._warm = assignment
        return GuessBundle(
            T=T,
            params=params,
            simplified=simplified,
            rounded=rounded,
            assignment=assignment,
        )

    def _certify_or_solve(
        self, T: int, rounded: RoundedInstance
    ) -> Optional[WindowAssignment]:
        """The exact verdict on a fresh signature: the constructive
        certificate, else a feasibility-only solver call."""
        tracer = get_tracer()
        with tracer.span("eptas.certify", T=T) as span:
            assignment = certify_window_ip(rounded)
            span.set(hit=assignment is not None)
        if assignment is not None:
            self.counters["certified"] += 1
            return assignment
        hinted = self._resolved_backend() == "backtracking" and (
            self._warm is not None
        )
        self.counters["ip_solves"] += 1
        if hinted:
            self.counters["hinted_solves"] += 1
        try:
            with tracer.span(
                "eptas.ip_solve",
                T=T,
                layers=rounded.grid.num_layers,
                hinted=hinted,
            ):
                return solve_window_ip(
                    rounded,
                    backend=self.ip_backend,
                    hint=self._warm,
                    skeleton=self.skeleton,
                    compress=False,
                )
        except InfeasibleError:
            return None

    def finalize(self, bundle: GuessBundle) -> GuessBundle:
        """The winning bundle with its canonical assignment.

        Search guesses only need feasibility *verdicts*, so their
        assignments are whatever proof came first; the schedule the
        driver realizes must be the cold compression solve's.  This is
        the one optimisation solve of an EPTAS run.
        """
        self.counters["final_resolves"] += 1
        with get_tracer().span(
            "eptas.ip_solve", T=bundle.T, final_resolve=True
        ):
            assignment = solve_window_ip(
                bundle.rounded, backend=self.ip_backend,
                skeleton=self.skeleton,
            )
        return replace(bundle, assignment=assignment)

    # ------------------------------------------------------------------ #
    def _resolved_backend(self) -> str:
        if self.ip_backend == "auto":
            return "milp" if _HAVE_MILP else "backtracking"
        return self.ip_backend

    def stats(self) -> Dict[str, int]:
        """Counters plus skeleton cache hits, for the result's stats."""
        out = dict(self.counters)
        out["skeleton_hits"] = self.skeleton.hits
        out["skeleton_misses"] = self.skeleton.misses
        return out
