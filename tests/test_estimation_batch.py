"""Tests of the batched estimation kernel: LinearModel and the detector.

The contract under test: batched entry points perform the same
arithmetic as the scalar ones, equal to rounding (gemms of different
shapes may round differently), noise batches consume the RNG stream
exactly like sequential draws, and the detector's noncentral-χ² series
is scipy's survival function to rounding.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special, stats

from repro.estimation import bdd
from repro.estimation.bdd import DEFAULT_FALSE_POSITIVE_RATE, BadDataDetector
from repro.estimation.linear_model import BatchStateEstimate, LinearModel
from repro.estimation.measurement import DEFAULT_NOISE_SIGMA, MeasurementSystem
from repro.exceptions import EstimationError


@pytest.fixture(scope="module")
def model14(measurement14):
    return LinearModel(measurement14.matrix(), measurement14.weights())


@pytest.fixture()
def measurements14(measurement14, opf14, rng):
    """A small batch of noisy measurement vectors, shape (6, M)."""
    return np.stack(
        [measurement14.measure(opf14.angles_rad, rng=rng) for _ in range(6)]
    )


class TestLinearModel:
    def test_shapes(self, model14, measurement14):
        assert model14.n_measurements == measurement14.n_measurements
        assert model14.n_states == measurement14.n_states
        assert model14.degrees_of_freedom == (
            measurement14.n_measurements - measurement14.n_states
        )
        assert model14.q.shape == (model14.n_measurements, model14.n_states)
        assert model14.r.shape == (model14.n_states, model14.n_states)

    def test_batch_rows_match_scalar_rows(self, model14, measurement14, measurements14):
        """Every row of a big batch equals the corresponding batch-of-one."""
        batch = model14.estimate_batch(measurements14)
        assert isinstance(batch, BatchStateEstimate)
        for i, z in enumerate(measurements14):
            one = model14.estimate_batch(z[None, :])
            np.testing.assert_allclose(batch.angles_rad[i], one.angles_rad[0], rtol=1e-12, atol=1e-14)
            assert batch.residual_norms[i] == pytest.approx(one.residual_norms[0], rel=1e-12)

    def test_residual_norms_agree_with_estimate_batch(self, model14, measurements14):
        batch = model14.estimate_batch(measurements14)
        np.testing.assert_array_equal(
            model14.residual_norms(measurements14), batch.residual_norms
        )

    def test_attack_residuals_match_estimator(self, model14, evaluator14):
        attacks = evaluator14.ensemble.attacks[:8]
        batched = model14.attack_residual_norms(attacks)
        for i, attack in enumerate(attacks):
            one = model14.attack_residual_norms(attack[None, :])[0]
            assert batched[i] == pytest.approx(one, rel=1e-9)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_attack_residuals_match_normal_equations(self, backend, measurement14):
        """``(I − Γ)a`` against ``Γ = H(HᵀWH)⁻¹HᵀW`` formed explicitly."""
        model = LinearModel.from_measurement_system(measurement14, backend=backend)
        H, W = measurement14.matrix(), np.diag(measurement14.weights())
        gamma = H @ np.linalg.solve(H.T @ W @ H, H.T @ W)
        A = np.random.default_rng(8).normal(0.0, 0.01, size=(6, measurement14.n_measurements))
        np.testing.assert_allclose(
            model.attack_residuals(A), A - A @ gamma.T, rtol=1e-7, atol=1e-12
        )

    def test_shape_validation(self, model14):
        with pytest.raises(EstimationError):
            model14.residual_norms(np.zeros((3, 5)))
        with pytest.raises(EstimationError):
            model14.estimate_batch(np.zeros(7))

    def test_rank_deficient_rejected(self):
        H = np.ones((6, 2))  # two identical columns
        H[:, 1] = H[:, 0]
        with pytest.raises(EstimationError):
            LinearModel(H, np.ones(6))

    def test_bad_weights_rejected(self):
        H = np.random.default_rng(0).normal(size=(6, 2))
        with pytest.raises(EstimationError):
            LinearModel(H, np.zeros(6))
        with pytest.raises(EstimationError):
            LinearModel(H, np.ones(5))


#: 1e-12 … 1e4: from the α floor to certain detection, across the term limit.
NONCENTRALITIES = np.geomspace(1e-12, 1e4, 1000)


class TestNoncentralChi2Series:
    """``P_D`` from the central-χ² tail table against ``stats.ncx2.sf``."""

    @pytest.mark.parametrize("alpha", [5e-4, 1e-2, 5e-2])
    @pytest.mark.parametrize("dof", [1, 2, 9, 41, 83, 205, 1079, 3983])
    def test_matches_ncx2_sf(self, dof, alpha, monkeypatch):
        threshold = np.sqrt(stats.chi2.ppf(1.0 - alpha, dof))
        reference = stats.ncx2.sf(threshold**2, dof, NONCENTRALITIES)
        # The λ the series prices when alone in a batch.
        series = (
            special.pdtrc(bdd._MAX_SERIES_TERMS - 1, 0.5 * NONCENTRALITIES)
            < bdd._TRUNCATION * alpha
        )
        assert series.any() and not series.all()

        one_by_one = np.array(
            [bdd._detection_survival(lam[None], alpha, dof)[0] for lam in NONCENTRALITIES]
        )
        np.testing.assert_allclose(one_by_one, reference, rtol=1e-13, atol=0.0)
        np.testing.assert_array_equal(one_by_one[~series], reference[~series])

        largest = NONCENTRALITIES[series][-1]
        below = np.geomspace(1e-12, largest, 1000)
        with monkeypatch.context() as patch:
            # Under the limit the batch never reaches stats.ncx2.
            patch.setattr(bdd, "stats", SimpleNamespace(chi2=stats.chi2))
            priced = bdd._detection_survival(below, alpha, dof)
        np.testing.assert_allclose(
            priced, stats.ncx2.sf(threshold**2, dof, below), rtol=1e-13, atol=0.0
        )
        # One λ over the limit sends the whole batch to scipy, unchanged.
        np.testing.assert_array_equal(
            bdd._detection_survival(NONCENTRALITIES, alpha, dof), reference
        )


class TestBatchedDetector:
    def test_detection_probabilities_match_scalar(self, measurement14, evaluator14):
        detector = BadDataDetector(measurement14.with_reactances(
            measurement14.reactance_vector() * 1.1
        ))
        attacks = evaluator14.ensemble.attacks[:10]
        batched = detector.detection_probabilities(attacks)
        scalar = np.array([detector.detection_probability(a) for a in attacks])
        # A batch of one and a row of a batch of ten go through gemms of
        # different shapes; BLAS may round their accumulations differently
        # by an ulp, so the comparison is to floating-point accuracy.
        np.testing.assert_allclose(batched, scalar, rtol=1e-12, atol=1e-15)

    def test_stealthy_attack_reports_fp_floor(self, measurement14, evaluator14):
        detector = BadDataDetector(measurement14)
        # The ensemble was crafted from this very H, so attacks are stealthy
        # and the batched evaluator must report the alpha floor for all.
        probs = detector.detection_probabilities(evaluator14.ensemble.attacks[:5])
        np.testing.assert_allclose(probs, detector.false_positive_rate)

    def test_raises_alarms_matches_scalar(self, measurement14, opf14, rng, measurements14):
        detector = BadDataDetector(measurement14)
        alarms = detector.raises_alarms(measurements14)
        assert alarms.dtype == bool
        for i, z in enumerate(measurements14):
            assert alarms[i] == detector.raises_alarm(z)

    def test_measure_batch_stream_identical_to_sequential(self, measurement14, opf14):
        """The detector's attack-free ``(n, M)`` measurement batch consumes
        the stream like ``n`` sequential :meth:`MeasurementSystem.measure`
        calls, so its alarm fraction is the fraction over those draws."""
        # A high FP rate so that some attack-free draws alarm and some not.
        detector = BadDataDetector(measurement14, false_positive_rate=0.5)
        n = 40
        r1, r2 = np.random.default_rng(42), np.random.default_rng(42)
        fraction = detector.empirical_false_positive_rate(
            opf14.angles_rad, n_trials=n, rng=r1
        )
        draws = np.stack([measurement14.measure(opf14.angles_rad, rng=r2) for _ in range(n)])
        assert r1.bit_generator.state == r2.bit_generator.state
        assert 0.0 < fraction < 1.0
        assert fraction == np.count_nonzero(detector.raises_alarms(draws)) / n

    def test_measure_batch_with_attack(self, net14, opf14, evaluator14):
        """The detector's one ``(n, M)`` noise draw per attack consumes the
        stream like ``n`` sequential ``measure(..., attack=a)`` calls, so its
        alarm fraction is the fraction over those draws."""
        x = net14.reactances()
        x[list(net14.dfacts_branches)] *= 1.5
        system = MeasurementSystem.for_network(net14, reactances=x)
        detector = BadDataDetector(system)
        # Analytic detection probability about 0.67: some draws alarm, some not.
        attack = evaluator14.ensemble.attacks[0]
        n = 40
        r1, r2 = np.random.default_rng(9), np.random.default_rng(9)
        (probability,) = detector.detection_probabilities_monte_carlo(
            attack[None, :], opf14.angles_rad, n_trials=n, rng=r1
        )
        draws = np.stack(
            [system.measure(opf14.angles_rad, rng=r2, attack=attack) for _ in range(n)]
        )
        assert r1.bit_generator.state == r2.bit_generator.state
        assert 0.0 < probability < 1.0
        assert probability == np.count_nonzero(detector.raises_alarms(draws)) / n

    def test_monte_carlo_batched_matches_sequential_stream(self, measurement14, opf14, evaluator14):
        detector = BadDataDetector(
            measurement14.with_reactances(measurement14.reactance_vector() * 1.2)
        )
        attacks = evaluator14.ensemble.attacks[:3]
        batched = detector.detection_probabilities_monte_carlo(
            attacks, opf14.angles_rad, n_trials=40, rng=np.random.default_rng(9)
        )
        rng = np.random.default_rng(9)
        sequential = np.array(
            [
                detector.detection_probabilities_monte_carlo(
                    a[None, :], opf14.angles_rad, n_trials=40, rng=rng
                )[0]
                for a in attacks
            ]
        )
        np.testing.assert_array_equal(batched, sequential)

    def test_evaluator_kernels_agree(self, evaluator14, net14):
        """The evaluator's batched kernel agrees with a per-attack loop over
        the scalar detector (``evaluator14`` uses the default σ and α)."""
        x = net14.reactances() * 1.15
        detector = BadDataDetector(
            MeasurementSystem.for_network(
                net14, reactances=x, noise_sigma=DEFAULT_NOISE_SIGMA
            ),
            false_positive_rate=DEFAULT_FALSE_POSITIVE_RATE,
        )
        reference = np.array(
            [detector.detection_probability(a) for a in evaluator14.ensemble.attacks]
        )
        batched = evaluator14.evaluate(x)
        np.testing.assert_allclose(
            reference, batched.detection_probabilities, atol=1e-12
        )
