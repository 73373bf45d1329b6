"""Tests for the state-estimation stack (measurements, WLS, BDD, observability)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.estimation.bdd import BadDataDetector
from repro.estimation.linear_model import LinearModel
from repro.estimation.measurement import DEFAULT_NOISE_SIGMA, MeasurementSystem
from repro.estimation.observability import is_observable, observability_report
from repro.exceptions import EstimationError
from repro.powerflow.dc import solve_dc_power_flow


class TestMeasurementSystem:
    def test_dimensions(self, net14, measurement14):
        assert measurement14.n_measurements == 54
        assert measurement14.n_states == 13
        assert measurement14.matrix().shape == (54, 13)

    def test_noiseless_measurements_match_model(self, net14, opf14, measurement14):
        z = measurement14.noiseless_measurements(opf14.angles_rad)
        L = net14.n_branches
        # First L entries are the forward branch flows in per unit.
        np.testing.assert_allclose(z[:L] * net14.base_mva, opf14.flows_mw, atol=1e-6)
        # Next L are the reverse flows.
        np.testing.assert_allclose(z[L : 2 * L], -z[:L], atol=1e-12)

    def test_noise_statistics(self, opf14, measurement14):
        rng = np.random.default_rng(0)
        samples = np.array(
            [measurement14.measure(opf14.angles_rad, rng=rng) for _ in range(200)]
        )
        clean = measurement14.noiseless_measurements(opf14.angles_rad)
        residuals = samples - clean
        assert abs(residuals.mean()) < 5e-4
        assert residuals.std() == pytest.approx(measurement14.noise_sigma, rel=0.1)

    def test_attack_is_added(self, opf14, measurement14):
        attack = np.zeros(54)
        attack[3] = 0.5
        clean = measurement14.measure(opf14.angles_rad, rng=1)
        attacked = measurement14.measure(opf14.angles_rad, rng=1, attack=attack)
        np.testing.assert_allclose(attacked - clean, attack, atol=1e-12)

    def test_wrong_attack_length_rejected(self, opf14, measurement14):
        with pytest.raises(EstimationError):
            measurement14.measure(opf14.angles_rad, attack=np.ones(3))

    def test_wrong_angle_length_rejected(self, measurement14):
        with pytest.raises(EstimationError):
            measurement14.noiseless_measurements(np.zeros(5))

    def test_invalid_noise_rejected(self, net14):
        with pytest.raises(EstimationError):
            MeasurementSystem(net14, noise_sigma=0.0)

    def test_with_reactances_changes_matrix(self, net14, measurement14):
        x = net14.reactances()
        x[0] *= 1.3
        perturbed = measurement14.with_reactances(x)
        assert not np.allclose(perturbed.matrix(), measurement14.matrix())
        assert perturbed.noise_sigma == measurement14.noise_sigma

    def test_default_noise_constant(self):
        assert DEFAULT_NOISE_SIGMA == pytest.approx(0.0015)


class TestWLSEstimator:
    def test_recovers_state_without_noise(self, net14, opf14, measurement14):
        model = LinearModel.from_measurement_system(measurement14)
        z = measurement14.noiseless_measurements(opf14.angles_rad)
        estimate = model.estimate_batch(z[None, :])
        expected = measurement14.reduce_angles(opf14.angles_rad)
        np.testing.assert_allclose(estimate.angles_rad[0], expected, atol=1e-9)
        assert estimate.residual_norms[0] == pytest.approx(0.0, abs=1e-8)

    def test_estimate_is_unbiased_under_noise(self, opf14, measurement14):
        model = LinearModel.from_measurement_system(measurement14)
        rng = np.random.default_rng(3)
        expected = measurement14.reduce_angles(opf14.angles_rad)
        estimates = []
        for _ in range(200):
            z = measurement14.measure(opf14.angles_rad, rng=rng)
            estimates.append(model.estimate_batch(z[None, :]).angles_rad[0])
        mean_estimate = np.mean(estimates, axis=0)
        np.testing.assert_allclose(mean_estimate, expected, atol=5e-4)

    def test_degrees_of_freedom(self, measurement14):
        model = LinearModel.from_measurement_system(measurement14)
        assert model.degrees_of_freedom == 54 - 13

    def test_wrong_measurement_length_rejected(self, measurement14):
        model = LinearModel.from_measurement_system(measurement14)
        with pytest.raises(EstimationError):
            model.estimate_batch(np.zeros(10)[None, :])

    def test_attack_residual_zero_for_stealthy_attack(self, measurement14, rng):
        """An attack a = Hc has zero residual on the matching system."""
        model = LinearModel.from_measurement_system(measurement14)
        attack = measurement14.matrix() @ rng.standard_normal(13)
        assert model.attack_residual_norms(attack[None, :])[0] == pytest.approx(0.0, abs=1e-8)

    def test_attack_residual_positive_for_generic_vector(self, measurement14, rng):
        model = LinearModel.from_measurement_system(measurement14)
        attack = rng.standard_normal(54)
        assert model.attack_residual_norms(attack[None, :])[0] > 0.0

    def test_attack_residual_wrong_length(self, measurement14):
        model = LinearModel.from_measurement_system(measurement14)
        with pytest.raises(EstimationError):
            model.attack_residuals(np.ones(5))


class TestBadDataDetector:
    def test_false_positive_rate_close_to_target(self, net14, opf14):
        system = MeasurementSystem(net14, noise_sigma=0.002)
        detector = BadDataDetector(system, false_positive_rate=0.05)
        rate = detector.empirical_false_positive_rate(
            opf14.angles_rad, n_trials=2000, rng=7
        )
        assert rate == pytest.approx(0.05, abs=0.02)

    def test_gross_error_detected(self, net14, opf14, measurement14):
        detector = BadDataDetector(measurement14)
        z = measurement14.noiseless_measurements(opf14.angles_rad)
        z[0] += 1.0  # a gross 100 MW error on one flow measurement
        assert detector.raises_alarm(z)

    def test_clean_measurements_pass(self, opf14, measurement14):
        detector = BadDataDetector(measurement14)
        z = measurement14.measure(opf14.angles_rad, rng=5)
        assert not detector.raises_alarm(z)

    def test_stealthy_attack_not_detected_analytically(self, measurement14, rng):
        detector = BadDataDetector(measurement14)
        attack = measurement14.matrix() @ rng.standard_normal(13)
        assert detector.detection_probability(attack) == pytest.approx(
            detector.false_positive_rate
        )

    def test_detection_probability_increases_with_attack_size(self, net14, measurement14, rng):
        x = net14.reactances()
        for index in net14.dfacts_branches:
            x[index] *= 1.5
        perturbed = measurement14.with_reactances(x)
        detector = BadDataDetector(perturbed)
        attack = measurement14.matrix() @ rng.standard_normal(13)
        small = detector.detection_probability(0.05 * attack)
        large = detector.detection_probability(0.5 * attack)
        assert large >= small

    def test_analytic_matches_monte_carlo(self, net14, opf14, measurement14, rng):
        """The closed-form noncentral-χ² evaluation matches the paper's
        Monte-Carlo procedure within sampling error."""
        x = net14.reactances()
        for index in net14.dfacts_branches:
            x[index] *= 0.6
        perturbed = measurement14.with_reactances(x)
        detector = BadDataDetector(perturbed, false_positive_rate=0.01)
        attack = measurement14.matrix() @ rng.standard_normal(13)
        attack *= 0.02 / np.linalg.norm(attack) * 54
        analytic = detector.detection_probability(attack)
        (empirical,) = detector.detection_probabilities_monte_carlo(
            attack[None, :], opf14.angles_rad, n_trials=400, rng=11
        )
        assert empirical == pytest.approx(analytic, abs=0.08)

    def test_invalid_fp_rate_rejected(self, measurement14):
        with pytest.raises(EstimationError):
            BadDataDetector(measurement14, false_positive_rate=1.5)

    def test_threshold_positive_and_monotone_in_alpha(self, measurement14):
        strict = BadDataDetector(measurement14, false_positive_rate=1e-4)
        loose = BadDataDetector(measurement14, false_positive_rate=1e-1)
        assert strict.threshold > loose.threshold > 0.0

    def test_threshold_is_the_chi2_quantile_bit_for_bit(self, measurement14):
        for alpha in (5e-4, 1e-2, 5e-4):
            detector = BadDataDetector(measurement14, false_positive_rate=alpha)
            dof = detector.degrees_of_freedom
            assert detector.threshold == float(np.sqrt(stats.chi2.ppf(1.0 - alpha, dof)))

    def test_invalid_trial_counts_rejected(self, opf14, measurement14):
        detector = BadDataDetector(measurement14)
        with pytest.raises(EstimationError):
            detector.detection_probabilities_monte_carlo(
                np.zeros((1, 54)), opf14.angles_rad, n_trials=0
            )
        with pytest.raises(EstimationError):
            detector.empirical_false_positive_rate(opf14.angles_rad, n_trials=0)


class TestObservability:
    def test_full_measurement_set_observable(self, net14):
        assert is_observable(net14)
        report = observability_report(net14)
        assert report.observable
        assert report.rank == 13
        assert report.undetermined_states == ()

    def test_injection_only_still_observable(self, net14):
        # Nodal injections alone span the state space for a connected grid.
        rows = np.arange(2 * net14.n_branches, net14.n_measurements)
        assert is_observable(net14, measurement_rows=rows)

    def test_single_flow_measurement_unobservable(self, net14):
        rows = np.array([0])
        report = observability_report(net14, measurement_rows=rows)
        assert not report.observable
        assert report.rank < report.n_states
        assert len(report.undetermined_states) > 0

    def test_boolean_mask_supported(self, net14):
        mask = np.ones(net14.n_measurements, dtype=bool)
        assert is_observable(net14, measurement_rows=mask)

    def test_bad_mask_length_rejected(self, net14):
        with pytest.raises(ValueError):
            observability_report(net14, measurement_rows=np.ones(3, dtype=bool))
