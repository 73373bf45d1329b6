"""End-to-end integration tests tied to the paper's headline results.

These tests exercise the full pipeline (case → OPF → measurement model →
attacks → MTD design → effectiveness and cost) the way the benchmark harness
does, with smaller Monte-Carlo budgets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    EffectivenessEvaluator,
    design_mtd_perturbation,
    mtd_operational_cost,
    solve_dc_opf,
)
from repro.attacks.fdi import stealthy_attack
from repro.estimation.linear_model import LinearModel
from repro.estimation.measurement import MeasurementSystem
from repro.mtd.perturbation import ReactancePerturbation


class TestMotivatingExample:
    """Section IV-B / Tables I-III on the 4-bus system."""

    def test_table_ii_exact_values(self, opf4):
        np.testing.assert_allclose(opf4.dispatch_mw, [350.0, 150.0], atol=1e-4)
        np.testing.assert_allclose(
            opf4.flows_mw, [126.56, 173.44, -43.44, -26.56], atol=0.01
        )
        assert opf4.cost == pytest.approx(11500.0, abs=1.0)

    def test_table_i_residual_pattern(self, net4):
        """Noise-free BDD residuals of the two attacks under the four
        single-line perturbations: each attack bypasses exactly two of them."""
        system = MeasurementSystem(net4)
        H = system.matrix()
        attacks = {
            "attack1": stealthy_attack(H, np.array([1.0, 1.0, 1.0])),
            "attack2": stealthy_attack(H, np.array([0.0, 0.0, 1.0])),
        }
        residuals = {}
        for name, attack in attacks.items():
            row = []
            for line in range(4):
                perturbation = ReactancePerturbation.single_line(net4, line, 0.2)
                model = LinearModel.from_measurement_system(
                    system.with_reactances(perturbation.perturbed_reactances)
                )
                # Unweighted residual, as in Table I (no measurement noise).
                row.append(np.linalg.norm(model.attack_residuals(attack)))
            residuals[name] = row
        # Attack 1 is detected only under perturbations of lines 1 and 2.
        assert residuals["attack1"][0] > 1.0
        assert residuals["attack1"][1] > 1.0
        assert residuals["attack1"][2] == pytest.approx(0.0, abs=1e-8)
        assert residuals["attack1"][3] == pytest.approx(0.0, abs=1e-8)
        # Attack 2 is detected only under perturbations of lines 3 and 4.
        assert residuals["attack2"][0] == pytest.approx(0.0, abs=1e-8)
        assert residuals["attack2"][1] == pytest.approx(0.0, abs=1e-8)
        assert residuals["attack2"][2] > 1.0
        assert residuals["attack2"][3] > 1.0

    def test_table_i_residual_magnitudes(self, net4):
        """The non-zero residuals match the paper's Table I values (≈2.8)."""
        system = MeasurementSystem(net4)
        H = system.matrix()
        attack = stealthy_attack(H, np.array([1.0, 1.0, 1.0]))
        perturbation = ReactancePerturbation.single_line(net4, 0, 0.2)
        model = LinearModel.from_measurement_system(
            system.with_reactances(perturbation.perturbed_reactances)
        )
        residual = np.linalg.norm(model.attack_residuals(attack))
        assert residual == pytest.approx(2.82, abs=0.05)

    def test_table_iii_every_perturbation_costs_money(self, net4, opf4):
        """Each single-line MTD perturbation increases the OPF cost, and the
        line-3 perturbation is the cheapest (Table III's qualitative
        finding)."""
        costs = []
        for line in range(4):
            perturbation = ReactancePerturbation.single_line(net4, line, 0.2)
            result = solve_dc_opf(net4, reactances=perturbation.perturbed_reactances)
            costs.append(result.cost)
        assert all(cost >= opf4.cost - 1e-6 for cost in costs)
        assert int(np.argmin(costs)) == 2
        assert max(costs) > opf4.cost + 1.0


class TestEndToEndMTD:
    """The designed MTD detects pre-perturbation attacks at a bounded cost."""

    def test_designed_mtd_detects_most_attacks(self, net14, opf14):
        evaluator = EffectivenessEvaluator(
            net14, operating_angles_rad=opf14.angles_rad, n_attacks=150, seed=2
        )
        design = design_mtd_perturbation(net14, gamma_threshold=0.25, method="two-stage", seed=0)
        effectiveness = evaluator.evaluate(design.perturbed_reactances)
        assert effectiveness.eta(0.5) > 0.6
        cost = mtd_operational_cost(net14, design.perturbed_reactances)
        assert cost.relative_increase < 0.10

    def test_cost_benefit_tradeoff_shape(self, net14):
        """Higher effectiveness targets cost more (Fig. 9's shape) at the
        evening-peak load."""
        loads = net14.loads_mw() * (220.0 / net14.total_load_mw())
        baseline = None
        from repro.opf.reactance_opf import solve_reactance_opf

        baseline = solve_reactance_opf(net14, loads_mw=loads, n_random_starts=1, seed=0)
        cheap = design_mtd_perturbation(
            net14,
            gamma_threshold=0.05,
            attacker_reactances=baseline.reactances,
            loads_mw=loads,
            method="two-stage",
            seed=0,
        )
        strict = design_mtd_perturbation(
            net14,
            gamma_threshold=0.35,
            attacker_reactances=baseline.reactances,
            loads_mw=loads,
            method="two-stage",
            seed=0,
        )
        cheap_cost = mtd_operational_cost(
            net14, cheap.perturbed_reactances, loads_mw=loads, baseline_result=baseline
        )
        strict_cost = mtd_operational_cost(
            net14, strict.perturbed_reactances, loads_mw=loads, baseline_result=baseline
        )
        assert strict_cost.relative_increase >= cheap_cost.relative_increase
        assert strict_cost.relative_increase > 0.0

    def test_thirty_bus_pipeline(self, net30):
        """The same pipeline runs on the IEEE 30-bus system (Fig. 6(b))."""
        baseline = solve_dc_opf(net30)
        evaluator = EffectivenessEvaluator(
            net30, operating_angles_rad=baseline.angles_rad, n_attacks=60, seed=4
        )
        weak = design_mtd_perturbation(net30, gamma_threshold=0.05, method="two-stage", seed=0)
        strong = design_mtd_perturbation(net30, gamma_threshold=0.25, method="two-stage", seed=0)
        eta_weak = evaluator.evaluate(weak.perturbed_reactances).eta(0.5)
        eta_strong = evaluator.evaluate(strong.perturbed_reactances).eta(0.5)
        assert eta_strong >= eta_weak
        assert eta_strong > 0.1
