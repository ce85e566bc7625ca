"""Tests for the incremental EPTAS machinery (PR 8).

Three layers:

* the :class:`~repro.ptas.context.InstanceProfile` bisection views must
  answer the parameter-band and class-split queries *identically* to the
  full scans they replace;
* the warm-start plumbing — hint-ordered backtracking, the MILP
  constraint-block skeleton, the signature memo, the wrap-around
  certificate and its feasibility-only solver fallback — must never
  change a verdict or the final (canonical) assignment;
* the full incremental driver must be bit-for-bit the preserved
  rebuild-per-guess reference on whole solves (the equivalence-harness
  contract), with the certificate on and forced to miss, and with the
  augmentation mode validated against the augmented instance.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings

from repro.core.bounds import lower_bound_int
from repro.core.errors import InfeasibleError
from repro.core.validate import validate_schedule
from repro.ptas import context as context_module
from repro.ptas.context import (
    GuessContext,
    InstanceProfile,
    rounded_signature,
)
from repro.ptas.eptas import (
    augmented_instance,
    eptas_guess_feasible,
    schedule_eptas,
)
from repro.ptas.ip import (
    WindowIPSkeleton,
    assignment_satisfies,
    solve_window_ip,
    solve_window_ip_backtracking,
    solve_window_ip_milp,
)
from repro.ptas.layers import round_instance
from repro.ptas.params import _class_band, choose_params, job_band
from repro.ptas.simplify import simplify
from tests.equivalence import assert_same_outcome, run_and_capture
from tests.markers import needs_milp
from tests.strategies import instances, synthetic_rounded

EPS = Fraction(1, 2)


def _guess_range(inst):
    """A few makespan guesses spanning the instance's search range."""
    from repro.algorithms.three_halves import schedule_three_halves

    import math

    lb = max(lower_bound_int(inst), 1)
    ub = max(math.ceil(schedule_three_halves(inst).schedule.makespan), lb)
    mid = (lb + ub) // 2
    return sorted({lb, mid, ub})


class TestInstanceProfile:
    @given(instances(max_machines=4, max_classes=6, max_size=15))
    @settings(max_examples=25, deadline=None)
    def test_band_queries_match_scans(self, inst):
        if not inst.num_jobs:
            return
        profile = InstanceProfile(inst)
        for T in _guess_range(inst):
            for i in (1, 2, 3):
                delta = EPS**i
                mu = EPS**2 * delta
                lo, hi = mu * T, delta * T
                assert profile.band(lo, hi) == job_band(inst, lo, hi)
                assert profile.class_band(lo, hi) == _class_band(
                    inst, lo, hi
                )

    @given(instances(max_machines=4, max_classes=6, max_size=15))
    @settings(max_examples=25, deadline=None)
    def test_split_class_matches_predicates(self, inst):
        if not inst.num_jobs:
            return
        profile = InstanceProfile(inst)
        for T in _guess_range(inst):
            params = choose_params(inst, T, EPS)
            for cid, members in inst.classes.items():
                bigs, mediums, smalls = profile.split_class(cid, params, T)
                assert {j.id for j in bigs} == {
                    j.id for j in members if params.is_big(j.size, T)
                }
                assert {j.id for j in mediums} == {
                    j.id for j in members if params.is_medium(j.size, T)
                }
                assert {j.id for j in smalls} == {
                    j.id for j in members if params.is_small(j.size, T)
                }

    @given(instances(max_machines=4, max_classes=6, max_size=15))
    @settings(max_examples=25, deadline=None)
    def test_profile_hooks_change_nothing(self, inst):
        """choose_params and simplify produce identical parameters,
        group sets and loads with and without the profile."""
        if not inst.num_jobs:
            return
        profile = InstanceProfile(inst)
        for T in _guess_range(inst):
            scan_params = choose_params(inst, T, EPS)
            fast_params = choose_params(inst, T, EPS, profile=profile)
            assert scan_params == fast_params
            scan = simplify(inst, T, scan_params)
            fast = simplify(inst, T, fast_params, profile=profile)
            for attr in (
                "big_jobs",
                "placeholder_small",
                "medium_clumps",
                "removed_classes",
                "small_clumps_band",
                "small_clumps_tiny",
            ):
                a = getattr(scan, attr)
                b = getattr(fast, attr)
                assert {
                    cid: {j.id for j in jobs} for cid, jobs in a.items()
                } == {
                    cid: {j.id for j in jobs} for cid, jobs in b.items()
                }, attr


def _rounded_at(inst, T, eps=EPS, mode="augmentation"):
    params = choose_params(inst, T, eps, mode)
    return round_instance(simplify(inst, T, params))


def _solvable(inst):
    """A rounded instance at the 3/2 bound (feasible there, Theorem 14)."""
    return _rounded_at(inst, _guess_range(inst)[-1])


class TestAssignmentSatisfies:
    def test_accepts_solver_output(self):
        from repro.core.instance import Instance

        inst = Instance.from_class_sizes(
            [[5, 3], [4, 4], [6], [2, 2, 2]], 3
        )
        rounded = _solvable(inst)
        assignment = solve_window_ip(rounded, backend="backtracking")
        assert assignment_satisfies(rounded, assignment)

    def test_rejects_corrupted_assignment(self):
        from repro.core.instance import Instance

        inst = Instance.from_class_sizes(
            [[5, 3], [4, 4], [6], [2, 2, 2]], 3
        )
        rounded = _solvable(inst)
        assignment = solve_window_ip(rounded, backend="backtracking")
        cid = next(iter(assignment.windows))
        tampered = {
            c: list(ws) for c, ws in assignment.windows.items()
        }
        # Duplicate one window: per-(cid, u) counts no longer match.
        tampered[cid] = tampered[cid] + [tampered[cid][0]]
        broken = type(assignment)(windows=tampered)
        assert not assignment_satisfies(rounded, broken)

    def test_rejects_wrong_instance(self):
        from repro.core.instance import Instance

        inst = Instance.from_class_sizes(
            [[5, 3], [4, 4], [6], [2, 2, 2]], 3
        )
        rounded = _solvable(inst)
        assignment = solve_window_ip(rounded, backend="backtracking")
        other = _rounded_at(inst, _guess_range(inst)[0])
        if rounded_signature(other) != rounded_signature(rounded):
            assert not assignment_satisfies(other, assignment)


class TestWarmStartedSolvers:
    @given(instances(max_machines=3, max_classes=5, max_size=10))
    @settings(max_examples=15, deadline=None)
    def test_hint_preserves_backtracking_verdict(self, inst):
        """A hint reorders the branch exploration but never changes the
        feasible/infeasible verdict (the candidate *set* per node is
        unchanged, so the search stays complete)."""
        if not inst.num_jobs:
            return
        guesses = _guess_range(inst)
        hint = None
        for T in reversed(guesses):
            try:
                rounded = _rounded_at(inst, T)
            except InfeasibleError:
                continue
            cold = run_and_capture(
                lambda _i: solve_window_ip_backtracking(rounded), inst
            )
            warm = run_and_capture(
                lambda _i: solve_window_ip_backtracking(
                    rounded, hint=hint
                ),
                inst,
            )
            assert cold.raised == warm.raised
            if not warm.raised:
                assert assignment_satisfies(rounded, warm.result)
                hint = warm.result

    @needs_milp
    @given(instances(max_machines=3, max_classes=5, max_size=10))
    @settings(max_examples=10, deadline=None)
    def test_skeleton_milp_identical_to_cold(self, inst):
        """The block-assembled MILP matrix is identical with and without
        the skeleton cache, so the solver returns the same assignment."""
        if not inst.num_jobs:
            return
        skeleton = WindowIPSkeleton()
        for T in _guess_range(inst):
            try:
                rounded = _rounded_at(inst, T)
            except InfeasibleError:
                continue
            cold = run_and_capture(
                lambda _i: solve_window_ip_milp(rounded), inst
            )
            warm = run_and_capture(
                lambda _i: solve_window_ip_milp(
                    rounded, skeleton=skeleton
                ),
                inst,
            )
            assert cold.raised == warm.raised
            if not cold.raised:
                assert cold.result.windows == warm.result.windows
        if skeleton.misses:
            assert skeleton.hits + skeleton.misses > 0


class TestGuessContext:
    def _ctx(self, inst, backend="backtracking"):
        return GuessContext(
            inst, EPS, "augmentation", ip_backend=backend
        )

    def test_decide_memoizes_per_guess(self):
        from repro.core.instance import Instance

        inst = Instance.from_class_sizes(
            [[5, 3], [4, 4], [6], [2, 2, 2]], 3
        )
        ctx = self._ctx(inst)
        T = _guess_range(inst)[-1]
        first = ctx.decide(T)
        again = ctx.decide(T)
        assert again is first
        assert ctx.counters["guesses"] == 1
        assert ctx.counters["guess_memo_hits"] == 1
        # One fresh verdict: a certificate or a solver call.
        assert ctx.counters["certified"] + ctx.counters["ip_solves"] == 1

    def test_signature_reuse_skips_solves(self):
        from repro.core.instance import Instance

        inst = Instance.from_class_sizes(
            [[5, 3], [4, 4], [6], [2, 2, 2]], 3
        )
        ctx = self._ctx(inst)
        guesses = _guess_range(inst)
        bundles = {T: ctx.decide(T) for T in reversed(guesses)}
        # Any two guesses with equal signatures must have shared a solve.
        sigs = {
            T: rounded_signature(b.rounded)
            for T, b in bundles.items()
            if b is not None
        }
        distinct = len(set(sigs.values()))
        assert ctx.counters["certified"] + ctx.counters[
            "ip_solves"
        ] <= distinct + (len(bundles) - len(sigs))

    def test_matches_cold_guess_decisions(self):
        """ctx.decide verdicts equal the context-free cold path for every
        guess in the search range."""
        from repro.core.instance import Instance

        inst = Instance.from_class_sizes(
            [[5, 3], [4, 4], [6], [2, 2, 2], [1, 1]], 2
        )
        ctx = self._ctx(inst)
        lo = _guess_range(inst)[0]
        hi = _guess_range(inst)[-1]
        for T in range(hi, lo - 1, -1):
            warm = ctx.decide(T)
            cold = eptas_guess_feasible(
                inst, T, EPS, "augmentation", ip_backend="backtracking"
            )
            assert (warm is None) == (cold is None), T
            if warm is not None:
                assert assignment_satisfies(
                    warm.rounded, warm.assignment
                )

    def test_finalize_makes_bundle_canonical(self):
        """The winning bundle (a certificate or hinted solve during the
        search) re-solves cold in finalize and then equals the
        context-free solve exactly."""
        from repro.core.instance import Instance

        inst = Instance.from_class_sizes(
            [[5, 3], [4, 4], [6], [2, 2, 2], [1, 1]], 2
        )
        ctx = self._ctx(inst)
        guesses = _guess_range(inst)
        bundle = None
        for T in reversed(guesses):
            candidate = ctx.decide(T)
            if candidate is not None:
                bundle = candidate
        assert bundle is not None
        final = ctx.finalize(bundle)
        assert ctx.counters["final_resolves"] == 1
        cold = eptas_guess_feasible(
            inst, bundle.T, EPS, "augmentation",
            ip_backend="backtracking",
        )
        assert final.assignment.windows == cold.assignment.windows
        # Finalizing is a cold solve, so it is idempotent.
        assert ctx.finalize(final).assignment.windows == (
            final.assignment.windows
        )


class TestCertificateFallback:
    """Window IPs the wrap-around certificate misses reach the
    feasibility-only solver, and their verdicts stay exact."""

    @pytest.mark.parametrize(
        "unit_counts, num_layers, m, feasible",
        [
            # Feasible, but the wrap packing misses.
            ({0: {3: 1}, 1: {3: 1}, 2: {1: 2}}, 4, 2, True),
            # One class longer than the horizon.
            ({0: {3: 1, 2: 1}}, 4, 2, False),
            # More units than machine-layer slots.
            ({0: {2: 1}, 1: {2: 1}, 2: {1: 1}}, 4, 1, False),
        ],
        ids=["wrap-miss", "class-over-horizon", "over-capacity"],
    )
    @pytest.mark.parametrize("backend", ["backtracking", "auto"])
    def test_fixture_reaches_solver(
        self, monkeypatch, unit_counts, num_layers, m, feasible, backend
    ):
        from repro.core.instance import Instance

        inst = Instance.from_class_sizes([[5, 3], [4, 4], [6]], 2)
        fixture = synthetic_rounded(unit_counts, num_layers, m)
        monkeypatch.setattr(
            context_module, "round_instance", lambda *a, **k: fixture
        )
        ctx = GuessContext(inst, EPS, "augmentation", ip_backend=backend)
        bundle = ctx.decide(_guess_range(inst)[-1])
        assert ctx.counters["certified"] == 0
        assert ctx.counters["ip_solves"] == 1
        assert (bundle is not None) == feasible
        if feasible:
            assert assignment_satisfies(fixture, bundle.assignment)

    def test_certified_guess_skips_solver(self):
        from repro.core.instance import Instance

        inst = Instance.from_class_sizes([[5, 3], [4, 4], [6]], 2)
        ctx = GuessContext(inst, EPS, "augmentation")
        assert ctx.decide(_guess_range(inst)[-1]) is not None
        assert ctx.counters["certified"] == 1
        assert ctx.counters["ip_solves"] == 0


class TestIncrementalVsRebuild:
    """Whole-solve equivalence against the preserved rebuild driver."""

    @pytest.mark.parametrize("mode", ["augmentation", "fixed_m"])
    @given(inst=instances(max_machines=3, max_classes=5, max_size=10))
    @settings(max_examples=10, deadline=None)
    def test_agrees_across_guess_sequences(self, inst, mode):
        from repro.algorithms.reference import reference_eptas

        incremental = run_and_capture(
            lambda i: schedule_eptas(
                i, epsilon=EPS, mode=mode, ip_backend="backtracking"
            ),
            inst,
        )
        rebuild = run_and_capture(
            lambda i: reference_eptas(
                i, epsilon=EPS, mode=mode, ip_backend="backtracking"
            ),
            inst,
        )
        assert_same_outcome(
            incremental, rebuild, context=f"eptas[{mode}]"
        )
        if not incremental.raised and mode == "augmentation":
            result = incremental.result
            validate_schedule(
                augmented_instance(
                    inst, result.stats.get("extra_machines", 0)
                ),
                result.schedule,
            )

    @pytest.mark.parametrize(
        "backend",
        ["backtracking", pytest.param("milp", marks=needs_milp)],
    )
    @given(inst=instances(max_machines=3, max_classes=5, max_size=10))
    @settings(max_examples=10, deadline=None)
    def test_agrees_with_certificate_missing(self, inst, backend):
        """The solver fallback (hinted backtracking, feasibility-only
        MILP) is bit-for-bit the rebuild driver too."""
        from repro.algorithms.reference import reference_eptas

        with mock.patch.object(
            context_module, "certify_window_ip", return_value=None
        ):
            incremental = run_and_capture(
                lambda i: schedule_eptas(
                    i, epsilon=EPS, ip_backend=backend
                ),
                inst,
            )
        rebuild = run_and_capture(
            lambda i: reference_eptas(i, epsilon=EPS, ip_backend=backend),
            inst,
        )
        assert_same_outcome(
            incremental, rebuild, context=f"eptas fallback [{backend}]"
        )
        if not incremental.raised:
            counters = incremental.result.stats.get("incremental", {})
            assert counters.get("certified", 0) == 0

    def test_incremental_counters_reported(self):
        from repro.core.instance import Instance

        inst = Instance.from_class_sizes(
            [[5, 3], [4, 4], [6], [2, 2, 2], [3, 3]], 3
        )
        result = schedule_eptas(
            inst, epsilon=EPS, ip_backend="backtracking"
        )
        counters = result.stats["incremental"]
        assert counters["guesses"] >= 1
        assert counters["ip_solves"] <= counters["guesses"]
        assert counters["certified"] + counters["ip_solves"] + counters[
            "signature_hits"
        ] <= counters["guesses"]
        assert counters["final_resolves"] == 1
        assert "skeleton_hits" in counters
