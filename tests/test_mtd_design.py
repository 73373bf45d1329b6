"""Tests for the MTD design strategies (paper eq. (4)) and the random baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ScenarioEngine, scenario_suite
from repro.exceptions import MTDDesignError
from repro.grid.cases import case14
from repro.grid.matrices import reduced_measurement_matrix
from repro.mtd.design import (
    design_mtd_perturbation,
    max_spa_perturbation,
    spa_of_reactances,
)
from repro.mtd.random_mtd import RandomMTDBaseline
from repro.mtd.tradeoff import compute_tradeoff_curve


class TestMaxSPA:
    def test_stays_within_dfacts_limits(self, net14):
        design = max_spa_perturbation(net14, seed=0)
        assert design.perturbation.respects_dfacts_limits()

    def test_achieves_meaningful_separation(self, net14):
        design = max_spa_perturbation(net14, seed=0)
        assert design.achieved_spa > 0.2

    def test_beats_random_perturbations(self, net14):
        from repro.mtd.perturbation import ReactancePerturbation

        design = max_spa_perturbation(net14, seed=0)
        H = reduced_measurement_matrix(net14)
        for seed in range(5):
            random_perturbation = ReactancePerturbation.random(net14, 0.5, seed=seed)
            random_spa = spa_of_reactances(
                net14, H, random_perturbation.perturbed_reactances
            )
            assert design.achieved_spa >= random_spa - 1e-9

    def test_no_dfacts_rejected(self):
        net = case14(dfacts_branches=())
        with pytest.raises(MTDDesignError):
            max_spa_perturbation(net)


class TestTwoStageDesign:
    def test_meets_threshold(self, net14):
        for gamma in (0.05, 0.15, 0.25):
            design = design_mtd_perturbation(
                net14, gamma_threshold=gamma, method="two-stage", seed=0
            )
            assert design.achieved_spa >= gamma - 1e-6
            assert design.perturbation.respects_dfacts_limits()

    def test_dispatch_is_feasible(self, net14):
        design = design_mtd_perturbation(net14, gamma_threshold=0.2, method="two-stage", seed=0)
        limits = net14.flow_limits_mw()
        assert np.all(np.abs(design.opf.flows_mw) <= limits + 1e-3)
        assert design.opf.total_generation_mw() == pytest.approx(
            net14.total_load_mw(), abs=1e-3
        )

    def test_cost_monotone_in_threshold(self, net14):
        """Stricter SPA targets can only cost more (the Fig. 9 trade-off)."""
        loads = net14.loads_mw() * (220.0 / net14.total_load_mw())
        costs = []
        for gamma in (0.05, 0.15, 0.25):
            design = design_mtd_perturbation(
                net14, gamma_threshold=gamma, loads_mw=loads, method="two-stage", seed=0
            )
            costs.append(design.cost)
        assert costs[0] <= costs[1] + 1e-6
        assert costs[1] <= costs[2] + 1e-6

    def test_unreachable_threshold_rejected(self, net14):
        with pytest.raises(MTDDesignError):
            design_mtd_perturbation(net14, gamma_threshold=1.5, method="two-stage")

    def test_invalid_threshold_rejected(self, net14):
        with pytest.raises(MTDDesignError):
            design_mtd_perturbation(net14, gamma_threshold=-0.1)
        with pytest.raises(MTDDesignError):
            design_mtd_perturbation(net14, gamma_threshold=2.0)

    def test_no_dfacts_rejected(self):
        net = case14(dfacts_branches=())
        with pytest.raises(MTDDesignError):
            design_mtd_perturbation(net, gamma_threshold=0.1)

    def test_attacker_reactance_override(self, net14):
        """The SPA is measured against the supplied attacker knowledge."""
        x_attacker = net14.reactances()
        for index in net14.dfacts_branches:
            x_attacker[index] *= 0.5
        design = design_mtd_perturbation(
            net14,
            gamma_threshold=0.2,
            attacker_reactances=x_attacker,
            method="two-stage",
            seed=0,
        )
        attacker_matrix = reduced_measurement_matrix(net14, x_attacker)
        achieved = spa_of_reactances(net14, attacker_matrix, design.perturbed_reactances)
        assert achieved >= 0.2 - 1e-6


class TestJointDesign:
    def test_joint_meets_threshold_and_never_worse_than_heuristic(self, net14):
        gamma = 0.15
        loads = net14.loads_mw() * (220.0 / net14.total_load_mw())
        heuristic = design_mtd_perturbation(
            net14, gamma_threshold=gamma, loads_mw=loads, method="two-stage", seed=0
        )
        joint = design_mtd_perturbation(
            net14, gamma_threshold=gamma, loads_mw=loads, method="joint",
            n_random_starts=1, seed=0
        )
        assert joint.achieved_spa >= gamma - 1e-4
        assert joint.cost <= heuristic.cost + 1e-6

    def test_max_spa_method_dispatch(self, net14):
        design = design_mtd_perturbation(net14, gamma_threshold=0.1, method="max-spa", seed=0)
        assert design.method == "max-spa"
        assert design.achieved_spa > 0.2


class TestRandomBaseline:
    def test_small_random_perturbations_are_ineffective(self):
        """The paper's Fig. 7/8 finding: 2 %-bounded random perturbations do
        not reliably achieve high effectiveness (Fig. 8 spec, 20 trials)."""
        (fig8,) = scenario_suite("fig8")
        result = ScenarioEngine().run(fig8.with_updates({"n_trials": 20}))
        assert result.n_trials == 20
        assert result.fraction_meeting("eta(0.9)", 0.9) <= 0.1

    def test_designed_mtd_beats_random_keyspace(self, net14, evaluator14):
        """The paper's headline comparison: the designed perturbation is at
        least as effective as every sampled random perturbation."""
        design = design_mtd_perturbation(net14, gamma_threshold=0.25, method="two-stage", seed=0)
        designed_eta = evaluator14.evaluate(design.perturbed_reactances).eta(0.5)
        baseline = RandomMTDBaseline(net14, evaluator14, max_relative_change=0.02)
        rng = np.random.default_rng(2)
        draws = [baseline.draw_perturbation(seed=rng) for _ in range(8)]
        random_etas = [evaluator14.evaluate(d.perturbed_reactances).eta(0.5) for d in draws]
        assert designed_eta >= max(random_etas)

    def test_subset_perturbation_mode(self, net14, evaluator14):
        baseline = RandomMTDBaseline(
            net14, evaluator14, max_relative_change=0.1, perturb_all_dfacts=False
        )
        perturbation = baseline.draw_perturbation(seed=3)
        assert 1 <= len(perturbation.perturbed_branches) <= len(net14.dfacts_branches)

    def test_invalid_parameters_rejected(self, net14, evaluator14):
        with pytest.raises(MTDDesignError):
            RandomMTDBaseline(net14, evaluator14, max_relative_change=0.0)

    def test_no_dfacts_rejected(self, evaluator14):
        net = case14(dfacts_branches=())
        with pytest.raises(MTDDesignError):
            RandomMTDBaseline(net, evaluator14)


class TestTradeoffCurve:
    def test_curve_structure_and_monotone_trends(self, net14, evaluator14):
        gammas = [0.05, 0.15, 0.25]
        curve = compute_tradeoff_curve(
            net14, evaluator14, gamma_thresholds=gammas, seed=0
        )
        assert len(curve) == 3
        np.testing.assert_allclose(curve.gammas(), gammas)
        etas = curve.eta_series(0.5)
        assert etas[0] <= etas[-1]
        assert np.all(curve.costs_percent() >= 0.0)
        assert np.all(curve.achieved_spas() >= curve.gammas() - 1e-6)

    def test_infeasible_thresholds_skipped(self, net14, evaluator14):
        curve = compute_tradeoff_curve(
            net14, evaluator14, gamma_thresholds=[0.1, 1.4], seed=0
        )
        assert len(curve) == 1

    def test_infeasible_thresholds_raise_when_requested(self, net14, evaluator14):
        with pytest.raises(MTDDesignError):
            compute_tradeoff_curve(
                net14,
                evaluator14,
                gamma_thresholds=[1.4],
                skip_infeasible=False,
                seed=0,
            )

    def test_cheapest_point_meeting_target(self, net14, evaluator14):
        curve = compute_tradeoff_curve(
            net14, evaluator14, gamma_thresholds=[0.05, 0.25], seed=0
        )
        point = curve.cheapest_point_meeting(delta=0.5, eta_target=0.5)
        assert point is not None
        assert point.eta[0.5] >= 0.5
        assert curve.cheapest_point_meeting(delta=0.5, eta_target=1.01) is None
