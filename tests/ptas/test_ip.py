"""Tests for the capacity-form window IP (Section 4.2)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro.core.bounds import lower_bound_int
from repro.core.errors import InfeasibleError
from repro.core.instance import Instance
from repro.ptas.ip import (
    assignment_satisfies,
    certify_window_ip,
    solve_window_ip,
    solve_window_ip_backtracking,
    solve_window_ip_milp,
)
from repro.ptas.layers import round_instance
from repro.ptas.params import choose_params
from repro.ptas.simplify import simplify
from tests.markers import needs_milp
from tests.strategies import instances, rounded_instances
from tests.strategies import synthetic_rounded as _synthetic


def _rounded_from(inst, eps=Fraction(1, 2)):
    T = max(lower_bound_int(inst), 1)
    params = choose_params(inst, T, eps)
    return round_instance(simplify(inst, T, params))


def _check_assignment(rounded, assignment):
    """Solution sanity: counts match, class windows disjoint, capacity."""
    L = rounded.grid.num_layers
    for cid, counts in rounded.unit_counts.items():
        windows = assignment.windows.get(cid, [])
        got = {}
        for start, units in windows:
            got[units] = got.get(units, 0) + 1
            assert 0 <= start and start + units <= L
        assert got == counts
        covered = set()
        for start, units in windows:
            span = set(range(start, start + units))
            assert not (covered & span), "class windows overlap"
            covered |= span
    loads = assignment.layer_loads(L)
    assert max(loads, default=0) <= rounded.num_machines


class TestSynthetic:
    def test_simple_feasible(self):
        rounded = _synthetic({0: {2: 1}, 1: {2: 1}}, num_layers=4, m=1)
        assignment = solve_window_ip(rounded)
        _check_assignment(rounded, assignment)

    def test_class_conflict_forces_spread(self):
        # One class with two 2-unit windows in 4 layers: must be [0,2)+[2,4).
        rounded = _synthetic({0: {2: 2}}, num_layers=4, m=2)
        assignment = solve_window_ip(rounded)
        _check_assignment(rounded, assignment)
        wins = sorted(assignment.windows[0])
        assert wins == [(0, 2), (2, 2)]

    @needs_milp
    def test_infeasible_capacity(self):
        rounded = _synthetic({0: {3: 1}, 1: {3: 1}}, num_layers=4, m=1)
        # 6 units > 4 capacity
        with pytest.raises(InfeasibleError):
            solve_window_ip_milp(rounded)
        with pytest.raises(InfeasibleError):
            solve_window_ip_backtracking(rounded)

    @needs_milp
    def test_infeasible_class_serialization(self):
        # One class needing 3 windows of 2 units in 5 layers: needs 6 > 5.
        rounded = _synthetic({0: {2: 3}}, num_layers=5, m=3)
        with pytest.raises(InfeasibleError):
            solve_window_ip_milp(rounded)
        with pytest.raises(InfeasibleError):
            solve_window_ip_backtracking(rounded)

    @needs_milp
    def test_window_longer_than_horizon(self):
        rounded = _synthetic({0: {9: 1}}, num_layers=4, m=1)
        with pytest.raises(InfeasibleError):
            solve_window_ip_milp(rounded)

    def test_mixed_lengths_order_free(self):
        # Class needs a 1-unit before/after a 3-unit; backtracking must
        # explore both orders (regression for the fixed-order bug).
        rounded = _synthetic(
            {0: {3: 1, 1: 1}, 1: {3: 1}}, num_layers=4, m=2
        )
        assignment = solve_window_ip_backtracking(rounded)
        _check_assignment(rounded, assignment)

    def test_unknown_backend(self):
        rounded = _synthetic({0: {2: 1}}, num_layers=2, m=1)
        from repro.core.errors import PreconditionError

        with pytest.raises(PreconditionError):
            solve_window_ip(rounded, backend="bogus")


class TestBackendAgreement:
    @needs_milp
    @given(instances(max_machines=3, max_classes=5, max_jobs_per_class=2))
    @settings(max_examples=25, deadline=None)
    def test_feasibility_agrees(self, inst):
        if inst.num_jobs == 0:
            return
        rounded = _rounded_from(inst)
        try:
            milp = solve_window_ip_milp(rounded)
            milp_feasible = True
        except InfeasibleError:
            milp_feasible = False
        try:
            bt = solve_window_ip_backtracking(rounded, node_budget=500_000)
            bt_feasible = True
        except InfeasibleError as exc:
            if "node" in str(exc):
                return  # budget exhausted, not a verdict
            bt_feasible = False
        assert milp_feasible == bt_feasible
        if milp_feasible:
            _check_assignment(rounded, milp)
            _check_assignment(rounded, bt)


class TestRealInstances:
    @given(instances(max_machines=4, max_classes=6))
    @settings(max_examples=25, deadline=None)
    def test_feasible_at_three_halves_bound(self, inst):
        """The IP must be feasible at any T >= OPT; use the 3/2 result."""
        if inst.num_jobs == 0:
            return
        import math

        from repro.algorithms.three_halves import schedule_three_halves

        ub = math.ceil(schedule_three_halves(inst).schedule.makespan)
        T = max(ub, 1)
        params = choose_params(inst, T, Fraction(1, 2))
        rounded = round_instance(simplify(inst, T, params))
        assignment = solve_window_ip(rounded)
        _check_assignment(rounded, assignment)


class TestCertificate:
    """The solver-free wrap-around certificate of the EPTAS search."""

    @given(rounded_instances())
    @settings(max_examples=200, deadline=None)
    def test_certificate_is_sound(self, rounded):
        """Every returned certificate satisfies the IP; whenever the
        solver proves the IP infeasible, no certificate is returned."""
        cert = certify_window_ip(rounded)
        if cert is not None:
            assert assignment_satisfies(rounded, cert)
            _check_assignment(rounded, cert)
        try:
            solve_window_ip(rounded, compress=False)
        except InfeasibleError as exc:
            if "node" in str(exc):
                return  # backtracking budget exhausted, not a verdict
            assert cert is None

    def test_certifies_simple_packing(self):
        rounded = _synthetic({0: {2: 1}, 1: {1: 2}, 2: {3: 1}}, 4, 2)
        cert = certify_window_ip(rounded)
        assert cert is not None
        _check_assignment(rounded, cert)

    def test_feasible_wrap_miss(self):
        # Rows of 4 layers: {3} | {3} leave one free layer per row, and
        # the {1, 1} class needs both; the wrap opens a third row.
        rounded = _synthetic({0: {3: 1}, 1: {3: 1}, 2: {1: 2}}, 4, 2)
        assert certify_window_ip(rounded) is None
        _check_assignment(rounded, solve_window_ip(rounded, compress=False))

    def test_class_total_over_horizon(self):
        rounded = _synthetic({0: {3: 1, 2: 1}}, 4, 2)
        assert certify_window_ip(rounded) is None
        with pytest.raises(InfeasibleError):
            solve_window_ip(rounded, compress=False)

    def test_units_over_capacity(self):
        rounded = _synthetic({0: {2: 1}, 1: {2: 1}, 2: {1: 1}}, 4, 1)
        assert certify_window_ip(rounded) is None
        with pytest.raises(InfeasibleError):
            solve_window_ip(rounded, compress=False)

    def test_window_longer_than_horizon(self):
        assert certify_window_ip(_synthetic({0: {5: 1}}, 4, 3)) is None

    def test_empty_demand_certifies_empty(self):
        cert = certify_window_ip(_synthetic({}, 3, 2))
        assert cert is not None and cert.windows == {}


class TestCompressFlag:
    @needs_milp
    def test_feasibility_only_solve_satisfies(self):
        rounded = _synthetic({0: {2: 2}, 1: {1: 3}, 2: {3: 1}}, 6, 2)
        for compress in (True, False):
            assignment = solve_window_ip_milp(rounded, compress=compress)
            assert assignment_satisfies(rounded, assignment)
