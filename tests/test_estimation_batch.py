"""Tests of the batched estimation kernel: LinearModel and its cache.

The contract under test is the one the engine's batch mode relies on:
batched entry points perform the *same arithmetic* as the scalar ones (a
batch of one is bit-identical), noise batches consume the RNG stream
exactly like sequential draws, and cached factorizations are
interchangeable with freshly built ones.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.estimation.bdd import DEFAULT_FALSE_POSITIVE_RATE, BadDataDetector
from repro.estimation.linear_model import BatchStateEstimate, LinearModel, LinearModelCache
from repro.estimation.measurement import DEFAULT_NOISE_SIGMA, MeasurementSystem
from repro.estimation.state_estimator import WLSStateEstimator
from repro.exceptions import ConfigurationError, EstimationError


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

    def test_batch_of_one_matches_scalar_estimator(self, model14, measurement14, measurements14):
        estimator = WLSStateEstimator(measurement14)
        for z in measurements14:
            single = estimator.estimate(z)
            batch = model14.estimate_batch(z[None, :])
            assert isinstance(batch, BatchStateEstimate)
            np.testing.assert_array_equal(batch.angles_rad[0], single.angles_rad)
            assert batch.residual_norms[0] == single.residual_norm

    def test_batch_rows_match_scalar_rows(self, model14, measurement14, measurements14):
        """Every row of a big batch equals the corresponding batch-of-one."""
        batch = model14.estimate_batch(measurements14)
        for i, z in enumerate(measurements14):
            one = model14.estimate_batch(z[None, :])
            np.testing.assert_allclose(batch.angles_rad[i], one.angles_rad[0], rtol=1e-12, atol=1e-14)
            assert batch.residual_norms[i] == pytest.approx(one.residual_norms[0], rel=1e-12)

    def test_residual_norms_agree_with_estimate_batch(self, model14, measurements14):
        batch = model14.estimate_batch(measurements14)
        np.testing.assert_array_equal(
            model14.residual_norms(measurements14), batch.residual_norms
        )

    def test_gain_cholesky(self, model14):
        U = model14.gain_cholesky()
        H, sqrt_w = model14.matrix, model14.sqrt_weights
        gain = (sqrt_w[:, None] * H).T @ (sqrt_w[:, None] * H)
        # gain entries span ~1e9, and exact zeros accumulate ~1e-8 of
        # rounding through the factorization; compare at machine precision
        # relative to the matrix scale.
        np.testing.assert_allclose(
            U.T @ U, gain, rtol=1e-9, atol=1e-12 * float(np.abs(gain).max())
        )
        assert np.all(np.diag(U) > 0)
        # upper triangular
        assert np.allclose(U, np.triu(U))

    def test_attack_residuals_match_estimator(self, model14, measurement14, evaluator14):
        estimator = WLSStateEstimator(measurement14)
        attacks = evaluator14.ensemble.attacks[:8]
        batched = model14.attack_residual_norms(attacks)
        for i, attack in enumerate(attacks):
            assert batched[i] == pytest.approx(estimator.attack_residual_norm(attack), rel=1e-9)

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
        r1, r2 = np.random.default_rng(42), np.random.default_rng(42)
        sequential = np.stack(
            [measurement14.measure(opf14.angles_rad, rng=r1) for _ in range(7)]
        )
        batched = measurement14.measure_batch(opf14.angles_rad, 7, rng=r2)
        np.testing.assert_array_equal(sequential, batched)

    def test_measure_batch_with_attack(self, measurement14, opf14, evaluator14):
        attack = evaluator14.ensemble.attacks[0]
        r1, r2 = np.random.default_rng(3), np.random.default_rng(3)
        sequential = np.stack(
            [measurement14.measure(opf14.angles_rad, rng=r1, attack=attack) for _ in range(4)]
        )
        batched = measurement14.measure_batch(opf14.angles_rad, 4, rng=r2, attack=attack)
        np.testing.assert_array_equal(sequential, batched)

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
                detector.detection_probability_monte_carlo(
                    a, opf14.angles_rad, n_trials=40, rng=rng
                )
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


class TestLinearModelCache:
    def _builder(self, measurement14):
        return lambda: LinearModel(measurement14.matrix(), measurement14.weights())

    def test_hit_miss_accounting(self, measurement14):
        cache = LinearModelCache(maxsize=4)
        build = self._builder(measurement14)
        first = cache.get_or_build("a", build)
        assert cache.stats() == {
            "hits": 0, "misses": 1, "evictions": 0, "entries": 1, "maxsize": 4,
        }
        again = cache.get_or_build("a", build)
        assert again is first  # the very same factorization object
        assert cache.hits == 1 and cache.misses == 1
        cache.get_or_build("b", build)
        assert cache.misses == 2
        assert len(cache) == 2 and "a" in cache and "b" in cache

    def test_lru_eviction(self, measurement14):
        cache = LinearModelCache(maxsize=2)
        build = self._builder(measurement14)
        a = cache.get_or_build("a", build)
        cache.get_or_build("b", build)
        cache.get_or_build("a", build)      # refresh "a" → "b" becomes LRU
        cache.get_or_build("c", build)      # evicts "b"
        assert cache.evictions == 1
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.get_or_build("a", build) is a

    def test_clear_preserves_counters(self, measurement14):
        cache = LinearModelCache(maxsize=2)
        cache.get_or_build("a", self._builder(measurement14))
        cache.clear()
        assert len(cache) == 0
        assert cache.misses == 1

    def test_invalid_maxsize(self):
        with pytest.raises(ConfigurationError):
            LinearModelCache(maxsize=0)

    def test_falsy_values_are_cached(self):
        """None/empty build products must hit the cache, not rebuild forever."""
        cache = LinearModelCache(maxsize=2)
        calls = []
        for _ in range(3):
            cache.get_or_build("k", lambda: calls.append(1))
        assert len(calls) == 1
        assert cache.misses == 1 and cache.hits == 2

    def test_mismatched_injected_model_rejected(self, measurement14, net30):
        """A mis-keyed cache entry must not silently corrupt detection stats."""
        model14 = LinearModel(measurement14.matrix(), measurement14.weights())
        other_sigma = MeasurementSystem.for_network(
            measurement14.network, noise_sigma=2 * measurement14.noise_sigma
        )
        with pytest.raises(EstimationError, match="noise level"):
            WLSStateEstimator(other_sigma, model=model14)
        system30 = MeasurementSystem.for_network(net30)
        with pytest.raises(EstimationError, match="shape"):
            WLSStateEstimator(system30, model=model14)

    def test_cached_model_bit_identical_results(self, evaluator14, net14):
        """Serving the factorization from the cache must not change results.

        Uses the Monte-Carlo method so the factorization cache is consulted
        on every call (the analytic path is memoised one level up).
        """
        x = net14.reactances() * 0.95
        cache = LinearModelCache()
        mc = dict(method="monte-carlo", n_noise_trials=20, seed=3)
        fresh = evaluator14.evaluate(x, **mc)
        cached_run = evaluator14.evaluate(x, model_cache=cache, **mc)
        cached_again = evaluator14.evaluate(x, model_cache=cache, **mc)
        np.testing.assert_array_equal(
            fresh.detection_probabilities, cached_run.detection_probabilities
        )
        np.testing.assert_array_equal(
            cached_run.detection_probabilities, cached_again.detection_probabilities
        )
        assert cache.hits == 1 and cache.misses == 1

    def test_analytic_memo_short_circuits_and_matches(self, evaluator14, net14, rng):
        """Repeated analytic evaluations of one perturbation hit the memo."""
        x = net14.reactances() * rng.uniform(0.9, 1.1, net14.n_branches)
        first = evaluator14.evaluate(x)
        memo_hits_before = evaluator14._analytic_memo.hits
        second = evaluator14.evaluate(x)
        assert evaluator14._analytic_memo.hits == memo_hits_before + 1
        np.testing.assert_array_equal(
            first.detection_probabilities, second.detection_probabilities
        )
        # Handed-out arrays are copies: mutating one must not poison the memo.
        second.detection_probabilities[:] = -1.0
        third = evaluator14.evaluate(x)
        np.testing.assert_array_equal(
            first.detection_probabilities, third.detection_probabilities
        )
