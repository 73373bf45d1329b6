"""Factorization-backend contracts: dense golden identity, sparse agreement.

Three families of guarantees from the backend-pluggable refactor:

* **Golden dense path** — ``backend="dense"`` must reproduce the
  pre-backend arithmetic *byte-for-byte*: same QR factors, same states,
  same residual norms as an inline ``np.linalg.qr``-based reference.
* **Sparse agreement** — the Q-less sparse backend must agree with the
  dense backend within the documented tolerance (~1e-9 relative on
  states and residual norms) on **every registered case** plus a
  file-referenced MATPOWER case, and must raise identical observability
  errors on rank-deficient models.
* **Plumbing** — the ``backend=`` knob of the estimation layer resolves
  ``"auto"`` by bus count, and the choice is observable via telemetry and
  the environment stamp.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from repro import telemetry
from repro.engine import scenario_suite
from repro.estimation.backends import (
    BACKEND_CHOICES,
    DenseQRBackend,
    SparseQlessBackend,
    available_backends,
    build_backend,
    resolve_backend,
)
from repro.estimation.bdd import BadDataDetector
from repro.estimation.linear_model import LinearModel
from repro.estimation.measurement import MeasurementSystem
from repro.exceptions import ConfigurationError, EstimationError
from repro.grid.cases.registry import available_cases, load_case
from repro.grid.matrices import SPARSE_BUS_THRESHOLD
from repro.mtd.effectiveness import EffectivenessEvaluator
from repro.opf.dc_opf import solve_dc_opf
from repro.powerflow.dc import solve_dc_power_flow
from repro.telemetry.env import environment_info

#: Documented dense/sparse agreement tolerance (relative); see
#: docs/architecture.md "Factorization backends".
AGREEMENT_RTOL = 1e-9

#: Every registered case plus one file-referenced MATPOWER case, per the
#: acceptance criterion "agreement on every registered case".
AGREEMENT_CASES = tuple(available_cases()) + ("case30.m",)


def _both_models(case: str) -> tuple[MeasurementSystem, LinearModel, LinearModel]:
    system = MeasurementSystem(load_case(case))
    dense = LinearModel.from_measurement_system(system, backend="dense")
    sparse = LinearModel.from_measurement_system(system, backend="sparse")
    return system, dense, sparse


# ----------------------------------------------------------------------
# dense-vs-sparse agreement
# ----------------------------------------------------------------------
class TestAgreement:
    @pytest.mark.parametrize("case", AGREEMENT_CASES)
    def test_states_and_residual_norms_agree(self, case):
        system, dense, sparse = _both_models(case)
        rng = np.random.default_rng(11)
        Z = rng.normal(0.0, system.noise_sigma, size=(8, system.n_measurements))

        de = dense.estimate_batch(Z)
        se = sparse.estimate_batch(Z)
        theta_scale = max(float(np.abs(de.angles_rad).max()), 1e-12)
        assert np.allclose(
            se.angles_rad,
            de.angles_rad,
            rtol=AGREEMENT_RTOL,
            atol=AGREEMENT_RTOL * theta_scale,
        )
        assert np.allclose(
            se.residual_norms, de.residual_norms, rtol=AGREEMENT_RTOL, atol=0.0
        )

    @pytest.mark.parametrize("case", ("ieee14", "synthetic118"))
    def test_attack_noncentralities_and_gain_agree(self, case):
        system, dense, sparse = _both_models(case)
        rng = np.random.default_rng(5)
        A = rng.normal(0.0, 0.01, size=(4, system.n_measurements))

        lam_d = dense.attack_noncentralities(A)
        lam_s = sparse.attack_noncentralities(A)
        assert np.allclose(lam_s, lam_d, rtol=1e-8, atol=1e-8 * max(lam_d.max(), 1.0))

        # Both factor the same gain G = HᵀWH: the dense R (rows
        # sign-normalised) and the transposed sparse Cholesky factor L.
        gd = np.where(np.diag(dense.r) < 0.0, -1.0, 1.0)[:, None] * dense.r
        gs = sparse._fact._chol.T
        assert np.allclose(gs, gd, rtol=1e-7, atol=1e-7 * float(np.abs(gd).max()))

    def test_alarm_decisions_agree(self, net14, opf14):
        system = MeasurementSystem(net14)
        det_dense = BadDataDetector(system, backend="dense")
        det_sparse = BadDataDetector(system, backend="sparse")
        assert det_dense.threshold == det_sparse.threshold
        rng = np.random.default_rng(3)
        Z = np.stack([system.measure(opf14.angles_rad, rng=rng) for _ in range(32)])
        assert np.array_equal(
            det_dense.raises_alarms(Z), det_sparse.raises_alarms(Z)
        )
        a = np.zeros(system.n_measurements)
        a[0] = 0.05
        assert det_sparse.detection_probability(a) == pytest.approx(
            det_dense.detection_probability(a), rel=1e-9
        )

    def test_rank_deficient_raises_identically(self):
        H = np.zeros((8, 3))
        H[:, :2] = np.random.default_rng(0).normal(size=(8, 2))
        w = np.ones(8)
        with pytest.raises(EstimationError, match="unobservable"):
            LinearModel(H, w, backend="dense")
        with pytest.raises(EstimationError, match="unobservable"):
            LinearModel(H, w, backend="sparse")


class TestGainCholesky:
    @pytest.mark.parametrize("case", ("synthetic118", "synthetic300"))
    def test_factor_reproduces_the_gain(self, case):
        """The stored factor is lower triangular, read-only and ``LLᵀ = G``."""
        system = MeasurementSystem(load_case(case))
        sqrt_w = np.sqrt(system.weights())
        backend = SparseQlessBackend(system.matrix_sparse(), sqrt_w)
        L = backend._chol
        weighted = system.matrix_sparse().multiply(sqrt_w[:, None]).tocsr()
        gain = (weighted.T @ weighted).toarray()
        assert np.array_equal(L, np.tril(L)) and np.all(np.diag(L) > 0.0)
        assert np.linalg.norm(L @ L.T - gain) <= 1e-12 * np.linalg.norm(gain)
        assert not L.flags.writeable

    def test_vanishing_pivot_raises(self):
        """A numerically rank-deficient ``H`` passes the Cholesky with a
        pivot below the relative tolerance and is still rejected."""
        rng = np.random.default_rng(4)
        H = rng.normal(size=(12, 4))
        H[:, 3] = H[:, 0] + 1e-7 * rng.normal(size=12)
        with pytest.raises(EstimationError, match="unobservable") as info:
            SparseQlessBackend(scipy.sparse.csr_matrix(H), np.ones(12))
        assert info.value.__cause__ is None
        H[:, 3] = H[:, 0] + 1e-3 * rng.normal(size=12)
        SparseQlessBackend(scipy.sparse.csr_matrix(H), np.ones(12))

    def test_gain_not_positive_definite_raises(self):
        H = np.zeros((8, 3))
        H[:, :2] = np.random.default_rng(0).normal(size=(8, 2))
        with pytest.raises(EstimationError, match="unobservable") as info:
            SparseQlessBackend(scipy.sparse.csr_matrix(H), np.ones(8))
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


# ----------------------------------------------------------------------
# the single Monte-Carlo loop
# ----------------------------------------------------------------------
def _monte_carlo_setup(case: str, backend: str):
    """α = 0.05 detector, a one-entry attack and DC power-flow angles."""
    network = load_case(case)
    system = MeasurementSystem(network)
    detector = BadDataDetector(system, false_positive_rate=0.05, backend=backend)
    attack = np.zeros(system.n_measurements)
    attack[0] = 0.01
    return detector, attack, solve_dc_power_flow(network).angles_rad


class TestMonteCarloLoop:
    #: (case, backend) → (empirical FP rate, Monte-Carlo P_D of the attack)
    #: at n_trials=400, rng=5.  Exact values: they pin the noise stream and
    #: every alarm decision of the Monte-Carlo queries on both backends.
    PINNED = {
        ("ieee14", "dense"): (0.0625, 0.9125),
        ("synthetic300", "sparse"): (0.0525, 0.245),
    }

    def test_sparse_monte_carlo_never_densifies(self, monkeypatch):
        """All three Monte-Carlo queries stay on the sparse model's CSR ``H``."""
        detector, attack, angles = _monte_carlo_setup("synthetic118", "sparse")

        def densify(self):
            raise AssertionError("MeasurementSystem.matrix() on the sparse path")

        monkeypatch.setattr(MeasurementSystem, "matrix", densify)
        rate = detector.empirical_false_positive_rate(angles, n_trials=50, rng=1)
        single = detector.detection_probabilities_monte_carlo(
            attack[None, :], angles, n_trials=50, rng=1
        )[0]
        batch = detector.detection_probabilities_monte_carlo(
            np.vstack([attack, 2 * attack]), angles, n_trials=50, rng=1
        )
        assert 0.0 <= rate <= 1.0 and 0.0 <= single <= 1.0
        assert batch.shape == (2,) and batch[0] == single

    @pytest.mark.parametrize(("case", "backend"), sorted(PINNED))
    def test_pinned_monte_carlo_values(self, case, backend):
        detector, attack, angles = _monte_carlo_setup(case, backend)
        rate, probability = self.PINNED[(case, backend)]
        assert detector.empirical_false_positive_rate(angles, n_trials=400, rng=5) == rate
        assert (
            detector.detection_probabilities_monte_carlo(
                attack[None, :], angles, n_trials=400, rng=5
            )[0]
            == probability
        )


# ----------------------------------------------------------------------
# golden dense path
# ----------------------------------------------------------------------
class TestDenseGolden:
    def test_dense_matches_reference_arithmetic(self, measurement14):
        model = LinearModel.from_measurement_system(measurement14, backend="dense")
        H = measurement14.matrix()
        sqrt_w = np.sqrt(measurement14.weights())
        q_ref, r_ref = np.linalg.qr(sqrt_w[:, None] * H)
        assert np.array_equal(model.q, q_ref)
        assert np.array_equal(model.r, r_ref)

        rng = np.random.default_rng(2)
        Z = rng.normal(0.0, 0.01, size=(6, measurement14.n_measurements))
        weighted = Z * sqrt_w
        coeffs = weighted @ q_ref
        theta_ref = scipy.linalg.solve_triangular(r_ref, coeffs.T).T
        norms_ref = np.linalg.norm(weighted - coeffs @ q_ref.T, axis=1)
        est = model.estimate_batch(Z)
        assert np.array_equal(est.angles_rad, theta_ref)
        assert np.array_equal(est.residual_norms, norms_ref)

    def test_dense_backend_accepts_sparse_input(self, measurement14):
        dense_from_sparse = LinearModel(
            measurement14.matrix_sparse(), measurement14.weights(), backend="dense"
        )
        dense_from_array = LinearModel(
            measurement14.matrix(), measurement14.weights(), backend="dense"
        )
        assert np.array_equal(dense_from_sparse.q, dense_from_array.q)
        assert np.array_equal(dense_from_sparse.r, dense_from_array.r)


# ----------------------------------------------------------------------
# resolution and the sparse backend's surface
# ----------------------------------------------------------------------
class TestResolution:
    def test_available_backends(self):
        assert available_backends() == ("dense", "sparse")
        assert set(available_backends()) < set(BACKEND_CHOICES)

    def test_auto_crossover(self):
        assert resolve_backend("auto", n_buses=SPARSE_BUS_THRESHOLD - 1) == "dense"
        assert resolve_backend("auto", n_buses=SPARSE_BUS_THRESHOLD) == "sparse"
        assert resolve_backend("dense", n_buses=10**6) == "dense"
        assert resolve_backend("sparse", n_buses=2) == "sparse"

    def test_unknown_backend_rejected(self, measurement14):
        with pytest.raises(ConfigurationError, match="unknown factorization backend"):
            resolve_backend("qr", n_buses=14)
        with pytest.raises(ConfigurationError):
            LinearModel.from_measurement_system(measurement14, backend="qr")
        with pytest.raises(ConfigurationError):
            build_backend(np.eye(3), np.ones(3), "auto")  # must be resolved first

    def test_model_resolves_auto_by_size(self, measurement14):
        small = LinearModel.from_measurement_system(measurement14)
        assert small.backend == "dense"
        big = MeasurementSystem(load_case("synthetic118"))
        assert LinearModel.from_measurement_system(big).backend == "sparse"

    def test_sparse_backend_is_qless(self, measurement14):
        model = LinearModel.from_measurement_system(measurement14, backend="sparse")
        assert model.backend == "sparse"
        with pytest.raises(EstimationError, match="Q-less"):
            model.q
        with pytest.raises(EstimationError, match="Q-less"):
            model.r

    def test_backend_classes_exported(self):
        fact = build_backend(np.eye(4) + 1.0, np.ones(4), "dense")
        assert isinstance(fact, DenseQRBackend)
        fact = build_backend(scipy.sparse.eye(4, format="csr"), np.ones(4), "sparse")
        assert isinstance(fact, SparseQlessBackend)


# ----------------------------------------------------------------------
# detectors on either backend
# ----------------------------------------------------------------------
class TestCacheKeys:
    def test_sparse_backend_runs_and_agrees_to_tolerance(self):
        """A dense and a sparse detector of one perturbation price an
        ensemble alike (ieee14 at its DC OPF point).  The angle of a
        D-FACTS perturbation comes from the attacker side's factors, with
        no detector backend involved."""
        network = load_case("ieee14")
        baseline = solve_dc_opf(network)
        evaluator = EffectivenessEvaluator(
            network, baseline.angles_rad, baseline.reactances, n_attacks=16, seed=1
        )
        x = baseline.reactances.copy()
        x[np.array(network.dfacts_branches)] *= 1.2
        system = MeasurementSystem(network, reactances=x)
        dense = BadDataDetector(system, backend="dense")
        sparse = BadDataDetector(system, backend="sparse")
        assert (dense.model.backend, sparse.model.backend) == ("dense", "sparse")
        attacks = evaluator.ensemble.attacks
        np.testing.assert_allclose(
            sparse.detection_probabilities(attacks),
            dense.detection_probabilities(attacks),
            rtol=1e-6,
            atol=1e-9,
        )


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
class TestObservability:
    def test_factorization_counters(self, measurement14):
        telemetry.reset()
        with telemetry.enabled_scope():
            LinearModel.from_measurement_system(measurement14, backend="dense")
            LinearModel.from_measurement_system(measurement14, backend="sparse")
        snap = telemetry.snapshot()
        telemetry.reset()
        assert snap.counters["estimation.factorizations"] == 2
        assert snap.counters["estimation.backend.dense"] == 1
        assert snap.counters["estimation.backend.sparse"] == 1
        assert snap.histograms["estimation.factorize_seconds"]["count"] == 2

    def test_counters_silent_when_disabled(self, measurement14):
        telemetry.reset()
        LinearModel.from_measurement_system(measurement14, backend="dense")
        assert telemetry.snapshot().counters == {}

    def test_environment_stamp(self):
        assert environment_info()["factorization_backends"] == "dense,sparse"


# ----------------------------------------------------------------------
# scale registry
# ----------------------------------------------------------------------
class TestScaleCases:
    def test_synthetic1354_registered(self):
        assert "synthetic1354" in available_cases()
        network = load_case("synthetic1354")
        assert network.n_buses == 1354
        # Parameters stay overridable through the registry.
        assert load_case("synthetic1354", seed=7).n_buses == 1354

    def test_scale_suite_includes_production_size(self):
        cases = {spec.grid.case for spec in scenario_suite("scale")}
        assert "synthetic1354" in cases
