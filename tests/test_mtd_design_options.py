"""Tests for MTD-design options added on top of the basic strategies:
cost-preferred anchoring and detection-only max-SPA results."""

from __future__ import annotations

import numpy as np
import pytest

import repro.mtd.design as design_module
from repro.exceptions import ConfigurationError, MTDDesignError
from repro.grid.cases import case14
from repro.mtd.design import (
    design_mtd_perturbation,
    max_spa_perturbation,
    spa_of_reactances,
)
from repro.grid.matrices import reduced_measurement_matrix
from repro.opf.dc_opf import solve_dc_opf
from repro.opf.reactance_opf import solve_reactance_opf


class TestUnknownMethod:
    """A misspelt design method is rejected, not run as the joint design."""

    @pytest.mark.parametrize("method", ["two_stage", "Joint", "max_spa"])
    def test_rejected_before_any_opf(self, net14, method, monkeypatch):
        def no_opf(*args, **kwargs):
            raise AssertionError("an OPF was solved before the method was checked")

        monkeypatch.setattr(design_module, "solve_dc_opf", no_opf)
        monkeypatch.setattr(design_module, "solve_reactance_opf", no_opf)
        with pytest.raises(ConfigurationError, match="unknown design method") as info:
            design_mtd_perturbation(net14, 0.2, method=method)
        # Not a design failure: the saturate fallback and the sweeps that
        # catch MTDDesignError must let it through.
        assert not isinstance(info.value, MTDDesignError)


class TestPreferredReactances:
    """The two-stage design should exploit a cost-preferred operating point."""

    @pytest.fixture(scope="class")
    def peak_setup(self):
        network = case14()
        loads = network.loads_mw() * (220.0 / network.total_load_mw())
        # The attacker's knowledge is the previous hour's (different) optimum;
        # the operator's preferred reactances are the current-hour optimum.
        stale = solve_reactance_opf(
            network, loads_mw=network.loads_mw() * (208.0 / network.total_load_mw()),
            n_random_starts=1, seed=0,
        )
        current = solve_reactance_opf(network, loads_mw=loads, n_random_starts=1, seed=0)
        return network, loads, stale, current

    def test_preferred_anchor_never_increases_cost(self, peak_setup):
        network, loads, stale, current = peak_setup
        without = design_mtd_perturbation(
            network, gamma_threshold=0.1, attacker_reactances=stale.reactances,
            loads_mw=loads, method="two-stage", seed=0,
        )
        with_preferred = design_mtd_perturbation(
            network, gamma_threshold=0.1, attacker_reactances=stale.reactances,
            loads_mw=loads, method="two-stage",
            preferred_reactances=current.reactances, seed=0,
        )
        assert with_preferred.cost <= without.cost + 1e-6
        assert with_preferred.achieved_spa >= 0.1 - 1e-6

    def test_loose_target_is_nearly_free_with_preferred_anchor(self, peak_setup):
        """When the current optimum already differs enough from the attacker's
        knowledge, a loose SPA target should cost (almost) nothing."""
        network, loads, stale, current = peak_setup
        design = design_mtd_perturbation(
            network, gamma_threshold=0.05, attacker_reactances=stale.reactances,
            loads_mw=loads, method="two-stage",
            preferred_reactances=current.reactances, seed=0,
        )
        assert design.cost <= current.cost * 1.01

    def test_spa_still_measured_against_attacker(self, peak_setup):
        network, loads, stale, current = peak_setup
        design = design_mtd_perturbation(
            network, gamma_threshold=0.2, attacker_reactances=stale.reactances,
            loads_mw=loads, method="two-stage",
            preferred_reactances=current.reactances, seed=0,
        )
        attacker_matrix = reduced_measurement_matrix(network, stale.reactances)
        measured = spa_of_reactances(network, attacker_matrix, design.perturbed_reactances)
        assert measured == pytest.approx(design.achieved_spa, abs=1e-9)
        assert measured >= 0.2 - 1e-6


class TestMaxSpaFeasibilityOption:
    @pytest.fixture(scope="class")
    def stressed_network(self):
        """Every line perturbable and the load raised by 10%: the baseline
        dispatch is still feasible but the maximum-separation perturbation
        leaves no feasible dispatch."""
        return case14(dfacts_branches=tuple(range(1, 21))).with_scaled_loads(1.1)

    def test_infeasible_dispatch_raises_by_default(self, stressed_network):
        from repro.exceptions import MTDDesignError

        with pytest.raises(MTDDesignError):
            max_spa_perturbation(stressed_network, seed=0)

    def test_detection_only_mode_returns_placeholder(self, stressed_network):
        design = max_spa_perturbation(
            stressed_network, require_feasible_dispatch=False, seed=0
        )
        assert design.achieved_spa > 0.3
        assert not design.opf.success
        assert design.opf.cost == float("inf")
        # The geometric outcome is still fully usable.
        assert design.perturbation.perturbed_reactances.shape == (20,)

    def test_feasible_case_unaffected_by_flag(self, net14):
        default = max_spa_perturbation(net14, seed=0)
        relaxed = max_spa_perturbation(net14, require_feasible_dispatch=False, seed=0)
        assert default.opf.success and relaxed.opf.success
        np.testing.assert_allclose(
            default.perturbed_reactances, relaxed.perturbed_reactances
        )

    def test_baseline_dispatch_cost_available(self, net14):
        design = max_spa_perturbation(net14, seed=0)
        lp = solve_dc_opf(net14, reactances=design.perturbed_reactances)
        assert design.opf.cost == pytest.approx(lp.cost)
