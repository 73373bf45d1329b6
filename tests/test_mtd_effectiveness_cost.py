"""Tests for the MTD effectiveness metric and the operational-cost metric."""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from repro.estimation.bdd import BadDataDetector
from repro.estimation.linear_model import LinearModel
from repro.estimation.measurement import MeasurementSystem
from repro.exceptions import ConfigurationError, EstimationError
from repro.grid.cases.registry import load_case
from repro.grid.matrices import reduced_measurement_matrix
from repro.grid.network import PowerNetwork
from repro.mtd.cost import mtd_operational_cost
from repro.mtd.design import design_mtd_perturbation, max_spa_perturbation
from repro.mtd.effectiveness import (
    AttackerSide,
    EffectivenessEvaluator,
    EffectivenessResult,
)
from repro.mtd.subspace import subspace_angle
from repro.opf.dc_opf import solve_dc_opf


class TestEffectivenessResult:
    def test_eta_counts_threshold_fraction(self):
        result = EffectivenessResult(
            detection_probabilities=np.array([0.1, 0.6, 0.95, 0.99]),
            false_positive_rate=5e-4,
            method="analytic",
            spa_source=lambda: 0.0,
        )
        assert result.eta(0.5) == pytest.approx(0.75)
        assert result.eta(0.9) == pytest.approx(0.5)
        assert result.eta(0.99) == pytest.approx(0.25)

    def test_invalid_delta_rejected(self):
        result = EffectivenessResult(
            detection_probabilities=np.array([0.5]),
            false_positive_rate=5e-4,
            method="analytic",
            spa_source=lambda: 0.0,
        )
        with pytest.raises(ConfigurationError):
            result.eta(1.5)

    def test_undetectable_fraction(self):
        result = EffectivenessResult(
            detection_probabilities=np.array([5e-4, 0.9]),
            false_positive_rate=5e-4,
            method="analytic",
            spa_source=lambda: 0.0,
        )
        assert result.undetectable_fraction() == pytest.approx(0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_probabilities_rejected(self, bad):
        """A NaN would sort last and count as ``≥ δ``: a threshold query
        rejects any non-finite probability instead."""
        result = EffectivenessResult(
            detection_probabilities=np.array([0.2, bad, 0.9]),
            false_positive_rate=5e-4,
            method="analytic",
            spa_source=lambda: 0.0,
        )
        with pytest.raises(EstimationError, match="finite"):
            result.eta(0.5)
        with pytest.raises(EstimationError, match="finite"):
            result.undetectable_fraction()

    def test_summary_keys(self):
        result = EffectivenessResult(
            detection_probabilities=np.array([0.5, 0.7]),
            false_positive_rate=5e-4,
            method="analytic",
            spa_source=lambda: 0.0,
        )
        summary = result.summary()
        assert summary["n_attacks"] == 2
        assert 0.0 <= summary["eta(0.9)"] <= 1.0


class TestEffectivenessEvaluator:
    def test_identity_perturbation_is_ineffective(self, net14, evaluator14):
        """Without a perturbation every attack keeps its FP-rate detection
        probability (the pre-MTD vulnerability the paper starts from)."""
        result = evaluator14.evaluate(net14.reactances())
        assert result.eta(0.5) == pytest.approx(0.0)
        assert result.undetectable_fraction() == pytest.approx(1.0)

    def test_uniform_scaling_is_ineffective(self, net14, evaluator14):
        """H' = (1+η)H leaves the column space unchanged (paper Fig. 4a)."""
        result = evaluator14.evaluate(1.2 * net14.reactances())
        assert result.eta(0.5) == pytest.approx(0.0)

    def test_large_perturbation_is_effective(self, net14, evaluator14):
        x = net14.reactances()
        for index in net14.dfacts_branches:
            x[index] *= 1.5
        result = evaluator14.evaluate(x)
        assert result.eta(0.5) > 0.5

    def test_effectiveness_increases_with_subspace_angle(self, net14, evaluator14):
        """The paper's central conjecture (Fig. 6): η'(δ) grows with γ."""
        etas = []
        for gamma in (0.05, 0.15, 0.25):
            design = design_mtd_perturbation(
                net14, gamma_threshold=gamma, method="two-stage", seed=0
            )
            etas.append(evaluator14.evaluate(design.perturbed_reactances).eta(0.5))
        assert etas[0] <= etas[1] <= etas[2]
        assert etas[2] > etas[0]

    def test_monte_carlo_agrees_with_analytic(self, net14, opf14):
        evaluator = EffectivenessEvaluator(
            net14, operating_angles_rad=opf14.angles_rad, n_attacks=20, seed=3
        )
        x = net14.reactances()
        for index in net14.dfacts_branches:
            x[index] *= 0.6
        analytic = evaluator.evaluate(x, method="analytic")
        monte_carlo = evaluator.evaluate(x, method="monte-carlo", n_noise_trials=200, seed=5)
        np.testing.assert_allclose(
            analytic.detection_probabilities,
            monte_carlo.detection_probabilities,
            atol=0.12,
        )

    def test_unknown_method_rejected(self, net14, evaluator14):
        with pytest.raises(ConfigurationError):
            evaluator14.evaluate(net14.reactances(), method="bogus")

    def test_wrong_angle_length_rejected(self, net14):
        with pytest.raises(ConfigurationError):
            EffectivenessEvaluator(net14, operating_angles_rad=np.zeros(3))

    @pytest.mark.parametrize("method", ["analytic", "monte-carlo"])
    def test_spa_is_the_angle_to_the_post_matrix(self, net14, opf14, method):
        evaluator = EffectivenessEvaluator(
            net14, operating_angles_rad=opf14.angles_rad, n_attacks=10, seed=3
        )
        x = net14.reactances()
        x[np.array(net14.dfacts_branches)] *= np.linspace(0.8, 1.2, len(net14.dfacts_branches))
        result = evaluator.evaluate(x, method=method, n_noise_trials=20)
        expected = subspace_angle(
            evaluator.attacker_matrix, reduced_measurement_matrix(net14, x)
        )
        assert expected > 0.05
        assert abs(result.spa - expected) <= 1e-12

    def test_spa_is_computed_once_and_only_when_read(self, net14, evaluator14, monkeypatch):
        """Pricing takes no eigenvalue: the angle's one eigen-solve runs on
        the first read of ``spa``, and a second read reuses its value."""
        import repro.mtd.effectiveness as effectiveness_module

        calls = []
        eigensolves = []

        def counting(*args):
            calls.append(args)
            return subspace_angle(*args)

        eigvalsh = np.linalg.eigvalsh

        def counting_eigvalsh(matrix):
            eigensolves.append(matrix.shape)
            return eigvalsh(matrix)

        monkeypatch.setattr(effectiveness_module, "subspace_angle", counting)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        x = net14.reactances()
        x[np.array(net14.dfacts_branches)] *= 1.1
        result = evaluator14.evaluate(x)
        assert calls == [] and eigensolves == []
        first = result.spa
        assert result.spa == first
        assert len(calls) == 1 and len(eigensolves) == 1

    def test_analytic_dfacts_evaluation_forms_no_scaled_attacks(self, net14, opf14):
        """The rank-k pricing reads the state biases only, so the ensemble's
        scaled ``(B, M)`` attacks are formed by the first reader that needs
        them: here a Monte-Carlo evaluation."""
        evaluator = EffectivenessEvaluator(
            net14, operating_angles_rad=opf14.angles_rad, n_attacks=10, seed=3
        )
        x = net14.reactances()
        x[np.array(net14.dfacts_branches)] *= 1.1
        assert evaluator.evaluate(x).spa > 0.0
        assert "attacks" not in vars(evaluator.ensemble)
        evaluator.evaluate(x, method="monte-carlo", n_noise_trials=20)
        assert "attacks" in vars(evaluator.ensemble)

    def test_attacker_matrix_is_read_only(self, net14, evaluator14):
        H = evaluator14.attacker_matrix
        with pytest.raises(ValueError, match="read-only"):
            H[0, 0] = 1.0
        assert evaluator14.attacker_matrix is H
        assert np.array_equal(H, reduced_measurement_matrix(net14, evaluator14.base_reactances))

    def test_attacker_side_is_read_only(self, net14, opf14):
        side = AttackerSide.build(net14, opf14.angles_rad)
        evaluator = EffectivenessEvaluator.for_attacker_side(side, n_attacks=10, seed=3)
        x = net14.reactances()
        x[np.array(net14.dfacts_branches)] *= 1.1
        assert evaluator.evaluate(x).spa > 0.0
        assert evaluator.attacker_matrix is side.matrix
        for factor in ("angle_factor", "coupling", "residual_factor"):
            assert getattr(side, factor) is getattr(side, factor)
        for array in (side.matrix, side.angle_factor, side.coupling, side.residual_factor):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1
        for array in (side.reference_measurements, side.base_susceptances, side.dfacts):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        for sparse in (side.sparse_matrix, side.change_columns, side.incidence_t):
            row, col = sparse.nonzero()
            with pytest.raises(ValueError, match="read-only"):
                sparse[row[0], col[0]] = 1.0
            for array in (sparse.data, sparse.indices, sparse.indptr):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1


@lru_cache(maxsize=None)
def _side(case: str) -> AttackerSide:
    """The attacker side of ``case`` at its DC OPF point (read-only, shared)."""
    network = load_case(case)
    baseline = solve_dc_opf(network)
    return AttackerSide.build(network, baseline.angles_rad, baseline.reactances)


def _side_and_perturbation(case: str, change: float):
    """The attacker side of ``case`` at its DC OPF point, and its reactances
    with every D-FACTS branch scaled by ``1 + change`` (alternating sign)."""
    side = _side(case)
    network = side.network
    x = side.base_reactances.copy()
    dfacts = np.array(network.dfacts_branches)
    x[dfacts] *= 1.0 + change * np.where(np.arange(dfacts.size) % 2 == 0, 1.0, -1.0)
    return side, x


class TestBasisForm:
    """Attacks priced in the rank-k form match the measurement-space path."""

    #: Relative P_D tolerance, one for both backends of the measurement-space
    #: detector.  The rank-k form carries the smallness of an attack's
    #: residual in its branch differences ``Φg``, and ``K₀ = Uᵀ(I − P)U`` is
    #: not small against ``UᵀU`` off its null directions, so the normal
    #: equations keep its digits.
    RTOL = 1e-12
    #: Largest accepted gap between the rank-k angle and the array form.
    ANGLE_ATOL = 1e-14

    @classmethod
    def check_against_measurement_space(cls, side, x, n_attacks=60):
        """The evaluation of ``x`` against a measurement-space detector of
        ``H′`` (P_D) and against ``subspace_angle(H, H′)`` (γ)."""
        evaluator = EffectivenessEvaluator.for_attacker_side(side, n_attacks=n_attacks, seed=8)
        result = evaluator.evaluate(x)
        # The measurement-space detector resolves its backend by bus count,
        # as the evaluator's own detector would.
        detector = BadDataDetector(MeasurementSystem(side.network, reactances=x))
        expected = detector.detection_probabilities(evaluator.ensemble.attacks)
        assert np.max(np.abs(result.detection_probabilities - expected) / expected) <= cls.RTOL
        H_post = reduced_measurement_matrix(side.network, x)
        assert abs(result.spa - subspace_angle(side.matrix, H_post)) <= cls.ANGLE_ATOL
        return result, detector

    @pytest.mark.parametrize("case", ["ieee14", "ieee30", "synthetic118", "synthetic300"])
    @pytest.mark.parametrize("change", [0.0, 0.001, 0.02, 0.2])
    def test_probabilities_match_measurement_space(self, case, change):
        side, x = _side_and_perturbation(case, change)
        result, detector = self.check_against_measurement_space(side, x)
        assert detector.model.backend == ("dense" if case in ("ieee14", "ieee30") else "sparse")
        alpha = detector.false_positive_rate
        if change == 0.0:
            # Policy "none": every attack stays stealthy, exactly at α.
            np.testing.assert_array_equal(result.detection_probabilities, alpha)
            assert result.spa == 0.0
        else:
            assert np.max(result.detection_probabilities) > 1.0001 * alpha

    @pytest.mark.parametrize("case", ["ieee14", "ieee30"])
    def test_max_spa_design_matches_measurement_space(self, case):
        """At the ±50 % max-SPA design ``A = I + ΔV`` is farthest from ``I``."""
        side = _side(case)
        design = max_spa_perturbation(
            side.network, attacker_reactances=side.base_reactances, seed=0,
            require_feasible_dispatch=False,
        )
        x = design.perturbed_reactances
        relative = x[side.dfacts] / side.base_reactances[side.dfacts] - 1.0
        assert np.allclose(np.abs(relative), 0.5)
        result, _ = self.check_against_measurement_space(side, x)
        assert abs(result.spa - design.achieved_spa) <= self.ANGLE_ATOL
        assert result.eta(0.9) > 0.0

    @pytest.mark.parametrize("case", ["ieee14", "synthetic300"])
    def test_partial_perturbation_matches_measurement_space(self, case):
        """Branches left alone have ``Δb = 0``: zero columns of ``Φ``."""
        side, x = _side_and_perturbation(case, 0.2)
        x[side.dfacts[::2]] = side.base_reactances[side.dfacts[::2]]
        change = side.susceptance_change(x)
        assert np.count_nonzero(change) == side.dfacts.size // 2
        result, _ = self.check_against_measurement_space(side, x)
        assert result.spa > 0.0

    def test_post_contingency_side_matches_measurement_space(self):
        """A side with a D-FACTS branch out of service prices the others."""
        network = load_case("ieee14")
        outaged = network.dfacts_branches[1]  # the first one's outage is infeasible
        network = network.with_branch_outages([outaged])
        baseline = solve_dc_opf(network)
        side = AttackerSide.build(network, baseline.angles_rad, baseline.reactances)
        x = side.base_reactances.copy()
        x[side.network.arrays.branch_has_dfacts] *= 1.2
        assert side.susceptance_change(x).shape == (side.dfacts.size,)
        assert outaged not in side.dfacts
        result, _ = self.check_against_measurement_space(side, x)
        assert result.spa > 0.0

    def test_sparse_copy_is_the_dense_matrix(self):
        """The ensemble's CSR ``H`` is the dense ``H`` of the side, not the
        grid's sparse assembly (35 entries differ by an ulp)."""
        side, _ = _side_and_perturbation("synthetic300", 0.0)
        assert np.array_equal(side.sparse_matrix.toarray(), side.matrix)

    @pytest.mark.parametrize("case", ["ieee14", "synthetic300"])
    def test_coordinates_reproduce_the_attacks(self, case):
        """``U c`` reproduces ``(H′ − H_t) b`` for every attack's bias ``b``."""
        side, x = _side_and_perturbation(case, 0.2)
        evaluator = EffectivenessEvaluator.for_attacker_side(side, n_attacks=60, seed=8)
        change = side.susceptance_change(x)
        coordinates = evaluator._branch_differences * change
        rebuilt = (side.change_columns @ coordinates.T).T
        difference = reduced_measurement_matrix(side.network, x) - side.matrix
        expected = evaluator.ensemble.state_biases @ difference.T
        gap = np.linalg.norm(rebuilt - expected, axis=1) / np.linalg.norm(expected, axis=1)
        assert gap.max() <= 1e-12

    @pytest.mark.parametrize("case", ["ieee14", "synthetic118"])
    def test_one_residual_gram_per_evaluation(self, case, monkeypatch):
        """``K = Uᵀ(I − P′)U`` is formed once per evaluation, as the factors
        ``Φ`` and ``YYᵀ`` its pricing and its angle share; an analytic
        evaluation builds no :class:`LinearModel`, a Monte-Carlo one builds
        the one its noise draws need."""
        side, x = _side_and_perturbation(case, 0.2)
        evaluator = EffectivenessEvaluator.for_attacker_side(side, n_attacks=20, seed=8)
        side.coupling  # the side's own factors are built once, up front
        formed, models = [], []
        coupling = AttackerSide.coupling
        init = LinearModel.__init__

        def counting_coupling(self):
            formed.append(1)
            return coupling.fget(self)

        def counting_init(self, *args, **kwargs):
            models.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(AttackerSide, "coupling", property(counting_coupling))
        monkeypatch.setattr(LinearModel, "__init__", counting_init)

        evaluator.evaluate(x)  # its spa is never read
        assert (len(formed), len(models)) == (1, 0)
        read = evaluator.evaluate(x)
        assert (len(formed), len(models)) == (2, 0)
        expected = subspace_angle(side.matrix, reduced_measurement_matrix(side.network, x))
        assert abs(read.spa - expected) <= 1e-14
        assert len(formed) == 2  # the angle came from the evaluation's factors

        monte_carlo = evaluator.evaluate(x, method="monte-carlo", n_noise_trials=5)
        assert (len(formed), len(models)) == (2, 1)
        assert abs(monte_carlo.spa - expected) <= 1e-14
        assert (len(formed), len(models)) == (3, 1)


def _outaged_dfacts_side():
    """ieee14 with its first D-FACTS branch out of service (flat angles:
    only the side's matrices are read), and the branch's index."""
    network = load_case("ieee14")
    outaged = network.dfacts_branches[0]
    network = network.with_branch_outages([outaged])
    return AttackerSide.build(network, np.zeros(network.n_buses)), outaged


class TestRankKForm:
    """``H′ − H_t = U diag(Δb) A_Dᵀ`` and what the evaluator reads from it."""

    @pytest.mark.parametrize("case", ["ieee14", "synthetic300", "ieee14-n1"])
    def test_change_is_rank_k(self, case):
        if case == "ieee14-n1":
            # Every branch with D-FACTS hardware moves, the outaged one too:
            # its masked susceptance stays 0, so Δb is 0 there.
            side, outaged = _outaged_dfacts_side()
            hardware = np.flatnonzero(side.network.arrays.branch_has_dfacts)
            assert outaged in hardware and outaged not in side.dfacts
            x = side.base_reactances.copy()
            x[hardware] *= np.linspace(0.8, 1.2, hardware.size)
        else:
            side, x = _side_and_perturbation(case, 0.2)
        change = side.susceptance_change(x)
        assert change is not None and np.count_nonzero(change) > 0
        rebuilt = side.change_columns.toarray() @ np.diag(change) @ side.incidence_t.toarray()
        difference = reduced_measurement_matrix(side.network, x) - side.matrix
        scale = np.abs(side.matrix).max()
        assert np.abs(difference - rebuilt).max() <= 4 * np.finfo(float).eps * scale

    def test_angle_factor_spans_the_gain(self):
        side, _ = _side_and_perturbation("synthetic300", 0.0)
        H = side.matrix
        incidence = side.incidence_t.toarray().T
        expected = incidence.T @ np.linalg.solve(H.T @ H, incidence)
        R = side.angle_factor
        assert R.shape == (side.dfacts.size, side.dfacts.size)
        np.testing.assert_allclose(R.T @ R, expected, rtol=0.0, atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize(
        "case, shared", [("ieee14", 0), ("ieee30", 2), ("synthetic118", 6), ("synthetic300", 19)]
    )
    def test_side_factors_match_their_definitions(self, case, shared):
        """``V = A_Dᵀ(HᵀH)⁻¹HᵀU`` and ``R_EᵀR_E = Uᵀ(I − P)U`` of rank
        ``k − d``, with ``d = dim(Col H ∩ Col U)`` (``shared``)."""
        side = _side(case)
        H = side.matrix
        U = side.change_columns.toarray()
        incidence = side.incidence_t.toarray().T
        n, k = H.shape[1], side.dfacts.size
        assert n + k - np.linalg.matrix_rank(np.hstack([H, U])) == shared
        coupling = incidence.T @ np.linalg.solve(H.T @ H, H.T @ U)
        np.testing.assert_allclose(
            side.coupling, coupling, rtol=0.0, atol=1e-12 * np.abs(coupling).max()
        )
        Q, _ = np.linalg.qr(H)
        residual = U - Q @ (Q.T @ U)
        gram = residual.T @ residual
        R_E = side.residual_factor
        assert R_E.shape == (k - shared, k)
        np.testing.assert_allclose(R_E.T @ R_E, gram, rtol=0.0, atol=1e-12 * np.abs(gram).max())

    @pytest.mark.parametrize("case", ["ieee14", "synthetic300"])
    def test_zero_perturbation_is_exactly_stealthy(self, case):
        side, x = _side_and_perturbation(case, 0.0)
        evaluator = EffectivenessEvaluator.for_attacker_side(side, n_attacks=30, seed=2)
        result = evaluator.evaluate(x)
        np.testing.assert_array_equal(result.detection_probabilities, result.false_positive_rate)
        assert result.spa == 0.0

    def test_dfacts_inside_the_column_space_leave_every_attack_stealthy(self, net14, capfd):
        """D-FACTS on a radial branch only: its column lies in ``Col(H)``
        (``d = k``), so ``R_E`` has no rows, no attack leaves ``Col(H′)``
        and the angle is zero.  No LAPACK routine is handed the empty
        system (it would report an illegal argument)."""
        radial = net14.branch_between(6, 7).index
        network = PowerNetwork.from_components(
            net14.buses,
            (replace(b, has_dfacts=b.index == radial) for b in net14.branches),
            net14.generators,
        )
        side = AttackerSide.build(network, solve_dc_opf(network).angles_rad)
        assert side.residual_factor.shape == (0, 1)
        x = network.reactances()
        x[radial] *= 1.2
        result = EffectivenessEvaluator.for_attacker_side(side, n_attacks=5, seed=0).evaluate(x)
        np.testing.assert_array_equal(result.detection_probabilities, result.false_positive_rate)
        assert result.spa == 0.0
        assert capfd.readouterr().out == ""

    @pytest.mark.parametrize("method", ["analytic", "monte-carlo"])
    def test_invalid_reactances_raise_estimation_error(self, net14, evaluator14, method):
        """Both routes reject a non-positive or misshapen reactance vector
        with the measurement system's error, before any pricing."""
        x = net14.reactances()
        x[net14.dfacts_branches[0]] = -x[net14.dfacts_branches[0]]
        for bad in (x, net14.reactances()[:-1]):
            with pytest.raises(EstimationError):
                evaluator14.evaluate(bad, method=method, n_noise_trials=5)

    def test_non_dfacts_branch_prices_through_measurement_space(self, net14, monkeypatch):
        baseline = solve_dc_opf(net14)
        side = AttackerSide.build(net14, baseline.angles_rad, baseline.reactances)
        evaluator = EffectivenessEvaluator.for_attacker_side(side, n_attacks=40, seed=4)
        x = side.base_reactances.copy()
        fixed = np.setdiff1d(np.arange(x.size), side.dfacts)[0]
        x[fixed] *= 1.3
        x[side.dfacts] *= 1.1
        assert side.susceptance_change(x) is None
        models = []
        init = LinearModel.__init__

        def counting_init(self, *args, **kwargs):
            models.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(LinearModel, "__init__", counting_init)
        result = evaluator.evaluate(x)
        assert len(models) == 1
        detector = BadDataDetector(MeasurementSystem(net14, reactances=x))
        np.testing.assert_array_equal(
            result.detection_probabilities,
            detector.detection_probabilities(evaluator.ensemble.attacks),
        )
        expected = subspace_angle(side.matrix, reduced_measurement_matrix(net14, x))
        assert result.spa == expected and expected > 0.01
        # Neither reader touched the side's rank-k factors.
        assert "_factors" not in vars(side)


class TestOperationalCost:
    def test_identity_perturbation_costs_nothing(self, net14):
        breakdown = mtd_operational_cost(net14, net14.reactances())
        assert breakdown.relative_increase == pytest.approx(0.0, abs=1e-9)
        assert breakdown.percent_increase == pytest.approx(0.0, abs=1e-7)

    def test_cost_non_negative(self, net14):
        x = net14.reactances()
        for index in net14.dfacts_branches:
            x[index] *= 1.5
        breakdown = mtd_operational_cost(net14, x)
        assert breakdown.relative_increase >= 0.0
        assert breakdown.mtd_cost >= 0.0

    def test_reactance_opf_baseline_never_above_dispatch_only(self, net14):
        x = net14.reactances()
        for index in net14.dfacts_branches:
            x[index] *= 1.4
        dispatch_only = mtd_operational_cost(net14, x, baseline="dispatch-only")
        reactance_opf = mtd_operational_cost(net14, x, baseline="reactance-opf")
        assert reactance_opf.baseline_cost <= dispatch_only.baseline_cost + 1e-3
        assert reactance_opf.relative_increase >= dispatch_only.relative_increase - 1e-9

    def test_precomputed_baseline_reused(self, net14):
        baseline = solve_dc_opf(net14)
        breakdown = mtd_operational_cost(
            net14, net14.reactances(), baseline_result=baseline
        )
        assert breakdown.baseline is baseline
        assert breakdown.baseline_cost == pytest.approx(baseline.cost)

    def test_unknown_baseline_rejected(self, net14):
        with pytest.raises(ConfigurationError):
            mtd_operational_cost(net14, net14.reactances(), baseline="bogus")

    def test_absolute_increase_consistent(self, net14):
        x = net14.reactances()
        for index in net14.dfacts_branches:
            x[index] *= 0.6
        breakdown = mtd_operational_cost(net14, x)
        assert breakdown.absolute_increase == pytest.approx(
            breakdown.mtd_cost - breakdown.baseline_cost
        )

    def test_congested_system_shows_positive_premium(self, net14):
        """At the 6 PM-like load the best MTD perturbation that maximises the
        subspace angle is not free when priced against the eq-(1) baseline."""
        from repro.mtd.design import max_spa_perturbation

        loads = net14.loads_mw() * (220.0 / net14.total_load_mw())
        design = max_spa_perturbation(net14, loads_mw=loads, seed=0)
        breakdown = mtd_operational_cost(
            net14, design.perturbed_reactances, loads_mw=loads, baseline="reactance-opf"
        )
        assert breakdown.relative_increase > 0.0
