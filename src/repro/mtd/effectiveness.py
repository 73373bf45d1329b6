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
Each evaluation also reports the perturbation's subspace angle
``γ(H, H')`` (Section V-C), read from the detector's own factorization of
``H'`` when first asked for.

Both come from one ``n × n`` matrix per perturbation.  With the thin QR
``H = QR`` of the attacker's matrix, every attack ``a_k = Hb_k`` is
``Q y_k`` with ``y_k = R b_k``; an analytic evaluation hands the detector
these coordinates, which prices them as ``σ⁻² y_kᵀSy_k`` from
``S = Qᵀ(I − P')Q``, and the angle is ``arcsin √λ_max(S)`` of the same
``S``, kept by the detector's model.

Everything an evaluator knows before its ensemble — the attacker's ``H``
(dense, and a CSR copy for the ensemble product), the reference
measurements ``z`` and, on first use, the factors ``Q`` and ``R`` of
``H`` — is an :class:`AttackerSide`.  It depends only on the network, the
attacker's reactances and the operating angles, so the scenario engine
builds it once per scenario context and every trial's evaluator shares it
(:meth:`EffectivenessEvaluator.for_attacker_side`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Literal

import numpy as np
import scipy.sparse

from repro.attacks.generator import AttackEnsemble, generate_attack_ensemble
from repro.estimation.bdd import DEFAULT_FALSE_POSITIVE_RATE, BadDataDetector
from repro.estimation.measurement import DEFAULT_NOISE_SIGMA, MeasurementSystem
from repro.exceptions import ConfigurationError
from repro.grid.network import PowerNetwork
from repro.mtd.subspace import FactoredMatrix, subspace_angle
from repro.utils.rng import as_generator

DetectionMethod = Literal["analytic", "monte-carlo"]


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
    spa_source:
        Zero-argument callable giving :attr:`spa`.  It runs on the first
        read of :attr:`spa` only, so a caller that never reads the angle
        does not pay for it.
    """

    detection_probabilities: np.ndarray
    false_positive_rate: float
    method: str
    spa_source: Callable[[], float] = field(repr=False, compare=False)

    @cached_property
    def spa(self) -> float:
        """The subspace angle ``γ(H, H')`` (radians) between the attacker's
        matrix and the evaluated post-perturbation matrix."""
        return float(self.spa_source())

    def eta(self, delta: float) -> float:
        """The effectiveness ``η'(δ)``: fraction of attacks with ``P'_D ≥ δ``."""
        if not (0.0 <= delta <= 1.0):
            raise ConfigurationError(f"delta must be in [0, 1], got {delta}")
        if self.detection_probabilities.size == 0:
            return 0.0
        return float(np.mean(self.detection_probabilities >= delta))

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


@dataclass(frozen=True, eq=False)
class AttackerSide:
    """The attacker's view of one operating point, built once and shared.

    Noise, false-positive rate and the attack ensemble enter none of it,
    so one side serves every evaluator of a scenario context.  Its arrays
    are read-only: a caller writing into them would corrupt every evaluator
    that shares the side.

    Memory: :attr:`matrix` holds two dense ``(M, n)`` arrays once its basis
    has been read — ``H`` and ``Q`` — about 6.6 MB at 300 buses and 135 MB
    at 1354, plus the ``(n, n)`` factor ``R`` (0.7 and 14.6 MB);
    :attr:`sparse_matrix` adds ``O(nnz(H))``.

    Attributes
    ----------
    network:
        The grid under study.
    base_reactances:
        The attacker's (pre-perturbation) reactances.
    operating_angles:
        The true bus angles of the operating point, shape ``(N,)``.
    matrix:
        The attacker's measurement matrix ``H`` (``matrix.matrix``) with its
        thin-QR factors ``Q`` (``matrix.basis``) and ``R``
        (``matrix.triangular``), computed on the first read of either.
    sparse_matrix:
        A CSR copy of the same ``H``, for the ensemble product ``a = Hb``.
        It is converted from the dense array, not assembled by the grid's
        sparse builder (whose entries may differ by an ulp), so the
        attacks, ``Q`` and ``R`` all come from one matrix.
    reference_measurements:
        The noiseless measurements ``z = Hθ`` the attack magnitudes are
        scaled against.
    """

    network: PowerNetwork
    base_reactances: np.ndarray
    operating_angles: np.ndarray
    matrix: FactoredMatrix
    sparse_matrix: scipy.sparse.csr_matrix
    reference_measurements: np.ndarray

    @classmethod
    def build(
        cls,
        network: PowerNetwork,
        operating_angles_rad: np.ndarray,
        base_reactances: np.ndarray | None = None,
    ) -> "AttackerSide":
        """Assemble the side of ``network`` at one operating point.

        ``base_reactances`` defaults to the network's nominal reactances.
        Raises :class:`~repro.exceptions.ConfigurationError` when the angle
        vector does not have one entry per bus.
        """
        angles = np.asarray(operating_angles_rad, dtype=float).ravel()
        if angles.shape[0] != network.n_buses:
            raise ConfigurationError(
                f"expected {network.n_buses} operating angles, got {angles.shape[0]}"
            )
        base = network.reactances() if base_reactances is None else np.asarray(base_reactances, dtype=float)
        system = MeasurementSystem.for_network(network, reactances=base)
        matrix = FactoredMatrix(system.matrix())
        sparse = scipy.sparse.csr_matrix(matrix.matrix)
        for array in (sparse.data, sparse.indices, sparse.indptr):
            array.flags.writeable = False
        reference = matrix.matrix @ system.reduce_angles(angles)
        reference.flags.writeable = False
        return cls(network, base, angles, matrix, sparse, reference)


class EffectivenessEvaluator:
    """Evaluates ``η'(δ)`` for MTD perturbations of a given network.

    The evaluator is bound to the *attacker's view*: the pre-perturbation
    reactances (hence measurement matrix ``H``) and the operating point used
    to scale attack magnitudes, held as an :class:`AttackerSide`.  The
    constructor builds that side itself; :meth:`for_attacker_side` binds an
    evaluator to a side that already exists.  Each call to :meth:`evaluate`
    then prices a candidate post-perturbation reactance vector.

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
    ) -> None:
        self._bind(
            AttackerSide.build(network, operating_angles_rad, base_reactances),
            noise_sigma, false_positive_rate, n_attacks, attack_ratio, seed,
        )

    @classmethod
    def for_attacker_side(
        cls,
        side: AttackerSide,
        noise_sigma: float = DEFAULT_NOISE_SIGMA,
        false_positive_rate: float = DEFAULT_FALSE_POSITIVE_RATE,
        n_attacks: int = 1000,
        attack_ratio: float = 0.08,
        seed: int | np.random.Generator | None = 0,
    ) -> "EffectivenessEvaluator":
        """An evaluator over an existing attacker side.

        The remaining parameters are the constructor's.  The result is the
        evaluator the constructor would build from the side's network,
        angles and reactances, without assembling ``H`` again.
        """
        evaluator = cls.__new__(cls)
        evaluator._bind(side, noise_sigma, false_positive_rate, n_attacks, attack_ratio, seed)
        return evaluator

    def _bind(
        self,
        side: AttackerSide,
        noise_sigma: float,
        false_positive_rate: float,
        n_attacks: int,
        attack_ratio: float,
        seed: int | np.random.Generator | None,
    ) -> None:
        self._side = side
        self._noise_sigma = float(noise_sigma)
        self._alpha = float(false_positive_rate)
        self._ensemble = generate_attack_ensemble(
            measurement_matrix=side.sparse_matrix,
            reference_measurements=side.reference_measurements,
            n_attacks=n_attacks,
            target_ratio=attack_ratio,
            seed=seed,
        )

    @cached_property
    def _coordinates(self) -> np.ndarray:
        """The ensemble's attacks in the basis ``Q``: rows ``y_k = R b_k``."""
        return self._ensemble.state_biases @ self._side.matrix.triangular.T

    # ------------------------------------------------------------------
    @property
    def ensemble(self) -> AttackEnsemble:
        """The attack ensemble all perturbations are evaluated against."""
        return self._ensemble

    @property
    def attacker_matrix(self) -> np.ndarray:
        """The attacker's (pre-perturbation) measurement matrix ``H``, read-only."""
        return self._side.matrix.matrix

    @property
    def base_reactances(self) -> np.ndarray:
        """Pre-perturbation reactance vector."""
        return self._side.base_reactances.copy()

    # ------------------------------------------------------------------
    def evaluate(
        self,
        perturbed_reactances: np.ndarray,
        method: DetectionMethod = "analytic",
        n_noise_trials: int = 1000,
        operating_angles_rad: np.ndarray | None = None,
        seed: int | np.random.Generator | None = 0,
    ) -> EffectivenessResult:
        """Evaluate the detection statistics of one candidate perturbation.

        Builds the post-perturbation :class:`BadDataDetector` and returns
        its detection probabilities for the evaluator's attack ensemble,
        together with the subspace angle ``γ(H, H')``, read from the
        detector's factorization of ``H'`` on first access of
        :attr:`EffectivenessResult.spa`.  The analytic method prices the
        attacks by their coordinates in the basis of ``H``, so it forms
        the ``n × n`` matrix the angle is read from, and reading the angle
        afterwards costs one eigenvalue.

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
        """
        if method not in ("analytic", "monte-carlo"):
            raise ConfigurationError(
                f"unknown detection method {method!r}; use 'analytic' or 'monte-carlo'"
            )
        detector = self._build_detector(perturbed_reactances)
        if method == "analytic":
            probabilities = detector.detection_probabilities(
                self._coordinates, basis=self._side.matrix.basis
            )
        else:
            rng = as_generator(seed)
            angles = (
                self._side.operating_angles
                if operating_angles_rad is None
                else np.asarray(operating_angles_rad, dtype=float)
            )
            probabilities = detector.detection_probabilities_monte_carlo(
                self._ensemble.attacks, angles, n_trials=n_noise_trials, rng=rng
            )
        return EffectivenessResult(
            detection_probabilities=probabilities,
            false_positive_rate=self._alpha,
            method=method,
            # Lazy: only the random policy reads the angle.  After an
            # analytic evaluation it is one eigenvalue of the Gram the
            # detector's model kept; a Monte-Carlo one forms it on read.
            spa_source=partial(subspace_angle, self._side.matrix, detector.model),
        )

    def false_alarm_rate(
        self,
        perturbed_reactances: np.ndarray,
        n_trials: int = 1000,
        seed: int | np.random.Generator | None = 0,
    ) -> float:
        """Empirical BDD false-alarm rate of one perturbation, attack-free.

        Draws ``n_trials`` noisy (unattacked) measurement vectors at the
        evaluator's operating point and reports the fraction the
        post-perturbation detector flags — the operational sanity check
        that a perturbation (or a post-contingency topology) keeps the
        BDD's alarm rate at its design level ``α``.
        """
        detector = self._build_detector(perturbed_reactances)
        return float(
            detector.empirical_false_positive_rate(
                self._side.operating_angles, n_trials=n_trials, rng=as_generator(seed)
            )
        )

    def _build_detector(self, perturbed_reactances: np.ndarray) -> BadDataDetector:
        """The post-perturbation detector of one reactance vector.

        Its model picks the factorization backend from the bus count (see
        :func:`~repro.estimation.backends.resolve_backend`).
        """
        post_system = MeasurementSystem.for_network(
            self._side.network,
            reactances=np.asarray(perturbed_reactances, dtype=float).ravel(),
            noise_sigma=self._noise_sigma,
        )
        return BadDataDetector(post_system, false_positive_rate=self._alpha)


__all__ = [
    "AttackerSide",
    "EffectivenessEvaluator",
    "EffectivenessResult",
    "DetectionMethod",
]
