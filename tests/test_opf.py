"""Tests for the OPF solvers (dispatch-only LP and joint reactance NLP)."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest
from scipy.optimize._numdiff import approx_derivative

from repro.exceptions import OPFConvergenceError, OPFInfeasibleError
from repro.grid.cases import case4gs, case14
from repro.grid.cases.registry import load_case
from repro.opf.dc_opf import opf_cost, solve_dc_opf
from repro.opf.multistart import LocalSolve, MultiStartOptimizer
from repro.opf.reactance_opf import ReactanceOPFProblem, solve_reactance_opf
from repro.powerflow.dc import solve_dc_power_flow


class TestDCOPF:
    def test_paper_table_ii(self, net4, opf4):
        """Pre-perturbation dispatch, flows and cost of Table II."""
        np.testing.assert_allclose(opf4.dispatch_mw, [350.0, 150.0], atol=1e-4)
        np.testing.assert_allclose(
            opf4.flows_mw, [126.56, 173.44, -43.44, -26.56], atol=0.01
        )
        assert opf4.cost == pytest.approx(1.15e4, rel=1e-6)

    def test_dispatch_respects_generator_limits(self, net14, opf14):
        p_min, p_max = net14.generator_limits_mw()
        assert np.all(opf14.dispatch_mw >= p_min - 1e-6)
        assert np.all(opf14.dispatch_mw <= p_max + 1e-6)

    def test_dispatch_meets_load(self, net14, opf14):
        assert opf14.total_generation_mw() == pytest.approx(net14.total_load_mw(), abs=1e-4)

    def test_flows_respect_limits(self, net14, opf14):
        limits = net14.flow_limits_mw()
        assert np.all(np.abs(opf14.flows_mw) <= limits + 1e-4)

    def test_flows_consistent_with_power_flow(self, net14, opf14):
        pf = solve_dc_power_flow(net14, generation_mw=opf14.dispatch_mw)
        np.testing.assert_allclose(pf.flows_mw, opf14.flows_mw, atol=1e-4)

    def test_cheapest_generators_used_first(self, net14, opf14):
        """Without binding constraints on them, cheap units should not idle
        while expensive units run."""
        costs = net14.generator_costs()
        dispatch = opf14.dispatch_mw
        # Generator at bus 6 (50 $/MWh) is the most expensive; it should be
        # at its minimum because cheaper capacity is available.
        most_expensive = int(np.argmax(costs))
        assert dispatch[most_expensive] == pytest.approx(0.0, abs=1e-6)

    def test_load_override(self, net14):
        light = solve_dc_opf(net14, loads_mw=net14.loads_mw() * 0.5)
        assert light.cost < opf_cost(net14)

    def test_reactance_override_changes_cost_under_congestion(self, net14):
        # At nominal load the 14-bus system is congested (lines 2 and 3 bind),
        # so changing reactances changes the achievable cost.
        x = net14.reactances()
        x[1] *= 0.5
        assert opf_cost(net14, reactances=x) != pytest.approx(opf_cost(net14))

    def test_infeasible_when_load_exceeds_capacity(self, net14):
        with pytest.raises(OPFInfeasibleError):
            solve_dc_opf(net14, loads_mw=net14.loads_mw() * 3.0)

    def test_wrong_load_length_rejected(self, net14):
        with pytest.raises(OPFInfeasibleError):
            solve_dc_opf(net14, loads_mw=np.ones(3))

    def test_binding_limits_reported(self, net14, opf14):
        binding = opf14.binding_flow_limits(net14)
        limits = net14.flow_limits_mw()
        for index in binding:
            assert abs(abs(opf14.flows_mw[index]) - limits[index]) < 1e-3

    def test_dispatch_by_bus_totals(self, net14, opf14):
        per_bus = opf14.dispatch_by_bus(net14)
        assert per_bus.sum() == pytest.approx(opf14.total_generation_mw())

    def test_summary_mentions_cost(self, opf14):
        assert "cost" in opf14.summary().lower()


class TestReactanceOPF:
    def test_never_worse_than_dispatch_only(self, net14):
        """Optimising reactances can only reduce (or match) the cost."""
        lp = solve_dc_opf(net14)
        joint = solve_reactance_opf(net14, n_random_starts=1, seed=0)
        assert joint.cost <= lp.cost + 1e-3

    def test_solution_within_dfacts_bounds(self, net14):
        joint = solve_reactance_opf(net14, n_random_starts=1, seed=0)
        x_min, x_max = net14.reactance_bounds()
        assert np.all(joint.reactances >= x_min - 1e-8)
        assert np.all(joint.reactances <= x_max + 1e-8)

    def test_solution_satisfies_power_balance(self, net14):
        joint = solve_reactance_opf(net14, n_random_starts=1, seed=0)
        pf = solve_dc_power_flow(
            net14, generation_mw=joint.dispatch_mw, reactances=joint.reactances
        )
        np.testing.assert_allclose(pf.flows_mw, joint.flows_mw, atol=0.5)
        assert joint.total_generation_mw() == pytest.approx(net14.total_load_mw(), abs=0.5)

    def test_falls_back_to_lp_without_dfacts(self):
        net = case14(dfacts_branches=())
        result = solve_reactance_opf(net)
        lp = solve_dc_opf(net)
        assert result.cost == pytest.approx(lp.cost)

    def test_extra_constraint_is_respected(self, net4):
        """A constraint forcing line 1's reactance up must be honoured."""
        nominal_x0 = net4.reactances()[0]

        def push_line1_up(x):
            return x[0] - 1.2 * nominal_x0  # >= 0 iff x0 >= 1.2 * nominal

        result = solve_reactance_opf(
            net4, extra_reactance_constraints=[push_line1_up], n_random_starts=2, seed=0
        )
        assert result.reactances[0] >= 1.2 * nominal_x0 - 1e-6

    def test_problem_vector_layout(self, net14):
        problem = ReactanceOPFProblem(network=net14, loads_mw=net14.loads_mw())
        assert problem.n_variables == 5 + 13 + 6
        z = np.arange(problem.n_variables, dtype=float)
        g, theta, x_d = problem.split(z)
        assert g.shape == (5,)
        assert theta.shape == (13,)
        assert x_d.shape == (6,)
        full = problem.full_reactances(x_d)
        assert full.shape == (20,)
        np.testing.assert_allclose(full[list(net14.dfacts_branches)], x_d)

    def test_problem_rejects_bad_loads(self, net14):
        with pytest.raises(OPFInfeasibleError):
            ReactanceOPFProblem(network=net14, loads_mw=np.ones(2))

    def test_fig8_baseline_optimum_pinned(self, net14):
        """The ieee14 baseline every fig8 trial perturbs: same cost, same
        D-FACTS reactances (tolerances cover solver and BLAS rounding)."""
        baseline = solve_reactance_opf(net14, n_random_starts=2, seed=0)
        assert baseline.cost == pytest.approx(5725.7363545, rel=1e-9)
        assert net14.dfacts_branches == (0, 4, 8, 10, 16, 18)
        np.testing.assert_allclose(
            baseline.reactances[list(net14.dfacts_branches)],
            [0.0451029195, 0.1176107509, 0.83427, 0.09945, 0.40557, 0.09994],
            rtol=0.0,
            atol=1e-8,
        )


def _nonlinear_reactance_constraint(x):
    """An extra constraint with a dense, non-trivial reactance dependence."""
    return np.array([np.sum(np.sin(3.0 * x)) - 0.5, x[0] * x[-1] - 1e-3])


def _interior_points(problem, n_points, seed):
    lower, upper = np.array(problem.bounds(), dtype=float).T
    rng = np.random.default_rng(seed)
    return [lower + (upper - lower) * rng.uniform(0.1, 0.9, lower.shape) for _ in range(n_points)]


class TestExactDerivatives:
    @pytest.mark.parametrize("case", ["case4gs", "ieee14", "ieee30"])
    @pytest.mark.parametrize("extra", [(), (_nonlinear_reactance_constraint,)], ids=["plain", "extra"])
    def test_match_central_differences(self, case, extra):
        network = load_case(case)
        problem = ReactanceOPFProblem(
            network=network, loads_mw=network.loads_mw(), extra_reactance_constraints=extra
        )
        pairs = (
            (problem.objective, problem.gradient),
            (problem.equality_constraints, problem.equality_jacobian),
            (problem.inequality_constraints, problem.inequality_jacobian),
        )
        for z in _interior_points(problem, 3, seed=7):
            for function, derivative in pairs:
                exact = derivative(z)
                numeric = approx_derivative(function, z, method="3-point")
                assert exact.shape == numeric.shape
                np.testing.assert_allclose(exact, numeric, rtol=1e-6, atol=1e-9)

    def test_extra_rows_differenced_over_dfacts_columns_only(self, net14):
        calls = []

        def counted(x):
            calls.append(1)
            return _nonlinear_reactance_constraint(x)

        problem = ReactanceOPFProblem(
            network=net14, loads_mw=net14.loads_mw(), extra_reactance_constraints=(counted,)
        )
        z = _interior_points(problem, 1, seed=3)[0]
        jacobian = problem.inequality_jacobian(z)
        assert len(calls) == problem.n_dfacts + 1 == 7
        extra_rows = jacobian[-2:]
        assert not np.any(extra_rows[:, : problem.n_variables - problem.n_dfacts])

    def test_extra_block_is_empty_without_dfacts(self):
        network = case14(dfacts_branches=())
        problem = ReactanceOPFProblem(
            network=network,
            loads_mw=network.loads_mw(),
            extra_reactance_constraints=(_nonlinear_reactance_constraint,),
        )
        assert problem.n_dfacts == 0
        z = _interior_points(problem, 1, seed=0)[0]
        jacobian = problem.inequality_jacobian(z)
        assert jacobian.shape == (problem.inequality_constraints(z).shape[0], problem.n_variables)
        assert not np.any(jacobian[-2:])
        assert problem.equality_jacobian(z).shape == (network.n_buses, problem.n_variables)


class TestMultiStart:
    def test_finds_global_minimum_of_multimodal_function(self):
        # f(x) = (x^2 - 1)^2 has minima at ±1; starts near both should find them.
        optimizer = MultiStartOptimizer(
            objective=lambda z: float((z[0] ** 2 - 1.0) ** 2),
            bounds=[(-2.0, 2.0)],
        )
        outcome = optimizer.solve([np.array([1.5]), np.array([-1.5])])
        best = outcome.require_best()
        assert abs(abs(best.x[0]) - 1.0) < 1e-4
        assert outcome.n_feasible == 2

    def test_constraint_violation_tracked(self):
        optimizer = MultiStartOptimizer(
            objective=lambda z: float(z[0]),
            bounds=[(0.0, 10.0)],
            inequality_constraints=lambda z: np.array([z[0] - 5.0]),
        )
        outcome = optimizer.solve([np.array([7.0])])
        best = outcome.require_best()
        assert best.x[0] >= 5.0 - 1e-6

    def test_no_feasible_point_raises(self):
        # Constraints x >= 5 and bounds x <= 1 are incompatible.
        optimizer = MultiStartOptimizer(
            objective=lambda z: float(z[0]),
            bounds=[(0.0, 1.0)],
            inequality_constraints=lambda z: np.array([z[0] - 5.0]),
        )
        outcome = optimizer.solve([np.array([0.5])])
        assert outcome.best is None
        with pytest.raises(OPFConvergenceError):
            outcome.require_best()

    def test_empty_starts_rejected(self):
        optimizer = MultiStartOptimizer(objective=lambda z: 0.0, bounds=[(0, 1)])
        with pytest.raises(ValueError):
            optimizer.solve([])

    def test_local_solver_error_is_contained(self):
        def exploding(z):
            raise ValueError("bad region")

        optimizer = MultiStartOptimizer(objective=exploding, bounds=[(0, 1)])
        outcome = optimizer.solve([np.array([0.5])])
        assert outcome.best is None
        assert not outcome.runs[0].success

    def test_supplied_derivatives_are_used(self):
        calls = []

        def gradient(z):
            calls.append("gradient")
            return np.array([2.0 * (z[0] - 3.0)])

        def jacobian(z):
            calls.append("jacobian")
            return np.array([[-1.0]])

        optimizer = MultiStartOptimizer(
            objective=lambda z: float((z[0] - 3.0) ** 2),
            bounds=[(0.0, 10.0)],
            inequality_constraints=lambda z: np.array([2.0 - z[0]]),
            gradient=gradient,
            inequality_jacobian=jacobian,
        )
        best = optimizer.solve([np.array([0.5])]).require_best()
        assert best.x[0] == pytest.approx(2.0, abs=1e-6)
        assert {"gradient", "jacobian"} <= set(calls)

    def test_feasibility_tolerance_constant(self):
        assert LocalSolve.FEASIBILITY_TOL == pytest.approx(1e-5)
        # A class constant, not a per-instance knob that ``feasible`` ignores.
        assert "FEASIBILITY_TOL" not in {f.name for f in fields(LocalSolve)}
        with pytest.raises(TypeError):
            LocalSolve(
                x=np.zeros(1),
                objective=0.0,
                max_violation=0.0,
                success=True,
                message="",
                iterations=0,
                FEASIBILITY_TOL=1e-2,
            )
