"""MTD effectiveness metric ``η'(δ)``.

Section V-A of the paper quantifies the effectiveness of an MTD ``H'``
against the set of attacks ``a = Hc`` crafted from the pre-perturbation
matrix ``H`` as the fraction whose detection probability under ``H'``
exceeds a level ``δ``:

.. math::  η'(δ) = λ(A'(δ)) / λ(A)

estimated by Monte Carlo over random state biases ``c`` (1000 attacks in the
paper).  For each attack the detection probability can be computed either in
closed form (noncentral-χ², see :class:`repro.estimation.bdd.BadDataDetector`)
or by the paper's Monte-Carlo procedure (1000 noisy measurement draws); the
two agree to Monte-Carlo accuracy and are cross-validated in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Literal

import numpy as np

from repro.attacks.generator import AttackEnsemble, generate_attack_ensemble
from repro.estimation.bdd import DEFAULT_FALSE_POSITIVE_RATE, BadDataDetector
from repro.estimation.backends import BACKEND_AUTO, resolve_backend
from repro.estimation.linear_model import LinearModel, LinearModelCache
from repro.estimation.measurement import DEFAULT_NOISE_SIGMA, MeasurementSystem
from repro.exceptions import ConfigurationError
from repro.grid.network import PowerNetwork
from repro.utils.rng import as_generator

DetectionMethod = Literal["analytic", "monte-carlo"]

#: Bound on the evaluator's per-perturbation memo of analytic results.
_ANALYTIC_MEMO_MAXSIZE = 64


@dataclass(frozen=True)
class EffectivenessResult:
    """Detection statistics of one MTD perturbation against one ensemble.

    Attributes
    ----------
    detection_probabilities:
        Per-attack detection probability ``P'_D(a)`` (array of length
        ``n_attacks``).
    false_positive_rate:
        The BDD false-positive rate ``α`` used.
    method:
        ``"analytic"`` or ``"monte-carlo"``.
    """

    detection_probabilities: np.ndarray
    false_positive_rate: float
    method: str

    def eta(self, delta: float) -> float:
        """The effectiveness ``η'(δ)``: fraction of attacks with ``P'_D ≥ δ``."""
        if not (0.0 <= delta <= 1.0):
            raise ConfigurationError(f"delta must be in [0, 1], got {delta}")
        if self.detection_probabilities.size == 0:
            return 0.0
        return float(np.mean(self.detection_probabilities >= delta))

    def eta_curve(self, deltas: np.ndarray | list[float]) -> np.ndarray:
        """Vectorised ``η'(δ)`` over several thresholds."""
        return np.array([self.eta(float(d)) for d in deltas])

    def undetectable_fraction(self, margin: float = 1e-6) -> float:
        """Fraction of attacks whose detection probability stays at ``α``.

        These are the attacks that remain (statistically) invisible after
        the MTD — the set ``A \\ A'(α)`` of the paper.
        """
        threshold = self.false_positive_rate + margin
        if self.detection_probabilities.size == 0:
            return 0.0
        return float(np.mean(self.detection_probabilities <= threshold))

    def summary(self) -> dict[str, float]:
        """Convenience summary used by reports and benchmarks."""
        probs = self.detection_probabilities
        return {
            "n_attacks": float(probs.size),
            "mean_detection_probability": float(np.mean(probs)) if probs.size else 0.0,
            "median_detection_probability": float(np.median(probs)) if probs.size else 0.0,
            "eta(0.5)": self.eta(0.5),
            "eta(0.8)": self.eta(0.8),
            "eta(0.9)": self.eta(0.9),
            "eta(0.95)": self.eta(0.95),
            "undetectable_fraction": self.undetectable_fraction(),
        }


class EffectivenessEvaluator:
    """Evaluates ``η'(δ)`` for MTD perturbations of a given network.

    The evaluator is bound to the *attacker's view*: the pre-perturbation
    reactances (hence measurement matrix ``H``) and the operating point used
    to scale attack magnitudes.  Each call to :meth:`evaluate` then prices a
    candidate post-perturbation reactance vector.

    Parameters
    ----------
    network:
        The grid under study.
    base_reactances:
        Pre-perturbation reactances defining the attacker's ``H`` (defaults
        to the network's nominal reactances).
    operating_angles_rad:
        The true bus angles of the operating point; used to build the
        reference measurement vector ``z`` for attack scaling and as the
        true state in Monte-Carlo detection runs.
    noise_sigma:
        Measurement noise standard deviation (p.u.).
    false_positive_rate:
        BDD false-positive rate ``α``.
    n_attacks:
        Ensemble size (paper: 1000).
    attack_ratio:
        Attack magnitude ``‖a‖₁/‖z‖₁`` (paper: ≈0.08).
    seed:
        Seed for the attack ensemble.
    backend:
        Factorisation backend for the per-perturbation detector models:
        ``"auto"`` (default — dense below
        :data:`~repro.grid.matrices.SPARSE_BUS_THRESHOLD` buses, sparse at
        or above), ``"dense"`` or ``"sparse"``.  Resolved once per
        evaluator; the resolved name participates in both the shared
        ``model_cache`` keys and the analytic memo keys, so evaluators on
        different backends never exchange factorizations.
    """

    def __init__(
        self,
        network: PowerNetwork,
        operating_angles_rad: np.ndarray,
        base_reactances: np.ndarray | None = None,
        noise_sigma: float = DEFAULT_NOISE_SIGMA,
        false_positive_rate: float = DEFAULT_FALSE_POSITIVE_RATE,
        n_attacks: int = 1000,
        attack_ratio: float = 0.08,
        seed: int | np.random.Generator | None = 0,
        backend: str = BACKEND_AUTO,
    ) -> None:
        self._network = network
        self._backend = resolve_backend(backend, n_buses=network.n_buses)
        self._angles = np.asarray(operating_angles_rad, dtype=float).ravel()
        if self._angles.shape[0] != network.n_buses:
            raise ConfigurationError(
                f"expected {network.n_buses} operating angles, got {self._angles.shape[0]}"
            )
        self._base_reactances = (
            network.reactances() if base_reactances is None else np.asarray(base_reactances, dtype=float)
        )
        self._noise_sigma = float(noise_sigma)
        self._alpha = float(false_positive_rate)
        self._pre_system = MeasurementSystem.for_network(
            network, reactances=self._base_reactances, noise_sigma=noise_sigma
        )
        # Analytic detection probabilities depend only on the perturbed
        # reactances (given this evaluator's fixed ensemble and α), so they
        # are memoised per perturbation.  The memo lives on the evaluator —
        # exactly the lifetime of the ensemble it is valid for — and reuses
        # the library's bounded-LRU cache for its eviction/accounting.
        self._analytic_memo = LinearModelCache(
            maxsize=_ANALYTIC_MEMO_MAXSIZE, telemetry_name="analytic_memo"
        )
        reference_z = self._pre_system.noiseless_measurements(self._angles)
        self._ensemble = generate_attack_ensemble(
            measurement_matrix=self._pre_system.matrix(),
            reference_measurements=reference_z,
            n_attacks=n_attacks,
            target_ratio=attack_ratio,
            seed=seed,
        )

    # ------------------------------------------------------------------
    @property
    def ensemble(self) -> AttackEnsemble:
        """The attack ensemble all perturbations are evaluated against."""
        return self._ensemble

    @property
    def attacker_matrix(self) -> np.ndarray:
        """The attacker's (pre-perturbation) measurement matrix ``H``."""
        return self._pre_system.matrix()

    @property
    def base_reactances(self) -> np.ndarray:
        """Pre-perturbation reactance vector."""
        return self._base_reactances.copy()

    @property
    def backend(self) -> str:
        """The resolved factorization backend, ``"dense"`` or ``"sparse"``."""
        return self._backend

    # ------------------------------------------------------------------
    def evaluate(
        self,
        perturbed_reactances: np.ndarray,
        method: DetectionMethod = "analytic",
        n_noise_trials: int = 1000,
        operating_angles_rad: np.ndarray | None = None,
        seed: int | np.random.Generator | None = 0,
        model_cache: LinearModelCache | None = None,
    ) -> EffectivenessResult:
        """Evaluate the detection statistics of one candidate perturbation.

        Parameters
        ----------
        perturbed_reactances:
            Post-perturbation branch reactances ``x'``, shape ``(L,)``.
        method:
            ``"analytic"`` (noncentral-χ², fast, default) or
            ``"monte-carlo"`` (the paper's procedure: ``n_noise_trials``
            noisy measurement draws per attack).
        n_noise_trials:
            Number of noise draws per attack for the Monte-Carlo method.
        operating_angles_rad:
            True post-perturbation state for the Monte-Carlo method;
            defaults to the evaluator's operating point.  (The analytic
            method does not depend on the true state.)
        seed:
            Seed for the Monte-Carlo noise streams.
        model_cache:
            Optional :class:`~repro.estimation.linear_model.
            LinearModelCache` from which the perturbation's factorized
            measurement model is served (and into which a freshly built one
            is stored).  The batched engine passes one cache per trial
            batch so trials sharing a (case, perturbation) pair factorize
            once.  Reuse is bit-identical to rebuilding.
        """
        x = np.asarray(perturbed_reactances, dtype=float).ravel()
        if method == "analytic":
            # Memo-first: a hit skips building the measurement system and
            # its factorization entirely, which is the dominant cost when
            # trials share a perturbation.  A copy is handed out so callers
            # can never corrupt the memo.
            probabilities = self._analytic_memo.get_or_build(
                (x.tobytes(), self._backend),
                lambda: self._build_detector(x, model_cache).detection_probabilities(
                    self._ensemble.attacks
                ),
            ).copy()
        elif method == "monte-carlo":
            detector = self._build_detector(x, model_cache)
            rng = as_generator(seed)
            angles = self._angles if operating_angles_rad is None else np.asarray(operating_angles_rad, dtype=float)
            probabilities = detector.detection_probabilities_monte_carlo(
                self._ensemble.attacks, angles, n_trials=n_noise_trials, rng=rng
            )
        else:
            raise ConfigurationError(
                f"unknown detection method {method!r}; use 'analytic' or 'monte-carlo'"
            )
        return EffectivenessResult(
            detection_probabilities=probabilities,
            false_positive_rate=self._alpha,
            method=method,
        )

    def false_alarm_rate(
        self,
        perturbed_reactances: np.ndarray,
        n_trials: int = 1000,
        seed: int | np.random.Generator | None = 0,
        model_cache: LinearModelCache | None = None,
    ) -> float:
        """Empirical BDD false-alarm rate of one perturbation, attack-free.

        Draws ``n_trials`` noisy (unattacked) measurement vectors at the
        evaluator's operating point and reports the fraction the
        post-perturbation detector flags — the operational sanity check
        that a perturbation (or a post-contingency topology) keeps the
        BDD's alarm rate at its design level ``α``.
        """
        x = np.asarray(perturbed_reactances, dtype=float).ravel()
        detector = self._build_detector(x, model_cache)
        return float(
            detector.empirical_false_positive_rate(
                self._angles, n_trials=n_trials, rng=as_generator(seed)
            )
        )

    def _build_detector(
        self, reactances: np.ndarray, model_cache: LinearModelCache | None
    ) -> BadDataDetector:
        """Detector for one perturbation, factorized via ``model_cache`` if given."""
        post_system = MeasurementSystem.for_network(
            self._network, reactances=reactances, noise_sigma=self._noise_sigma
        )
        model: LinearModel | None = None
        if model_cache is not None:
            # The key carries the resolved backend: a shared cache serving
            # evaluators on different backends must never hand a sparse
            # factorization to a dense consumer (or vice versa).
            model = model_cache.get_or_build(
                (reactances.tobytes(), self._noise_sigma, self._backend),
                lambda: LinearModel.from_measurement_system(
                    post_system, backend=self._backend
                ),
            )
        return BadDataDetector(
            post_system,
            false_positive_rate=self._alpha,
            model=model,
            backend=self._backend,
        )

    def evaluate_perturbation(self, perturbation, **kwargs) -> EffectivenessResult:
        """Evaluate a :class:`~repro.mtd.perturbation.ReactancePerturbation`."""
        return self.evaluate(perturbation.perturbed_reactances, **kwargs)

    def cache_stats(self) -> dict[str, dict[str, Any]]:
        """Accounting for the evaluator's per-perturbation analytic memo.

        Surfaces the previously internal :meth:`LinearModelCache.stats`
        counters (hits/misses/evictions/occupancy) so run reports and the
        engine's per-scenario telemetry can attribute reuse to this
        evaluator.  Keyed by cache name for forward compatibility with
        evaluators that hold more than one cache.
        """
        return {"analytic_memo": self._analytic_memo.stats()}


__all__ = [
    "EffectivenessEvaluator",
    "EffectivenessResult",
    "DetectionMethod",
]
