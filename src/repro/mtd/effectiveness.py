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
``γ(H, H')`` (Section V-C), computed when first asked for.

Both come from ``k × k`` matrices.  A D-FACTS perturbation of the ``k``
branches ``D`` changes the attacker's ``H`` by ``H′ − H = U diag(Δb)
A_Dᵀ``, with ``u_j = [e_j; −e_j; a_j]`` the forward-flow, reverse-flow and
injection rows of branch ``j``, ``A_D`` its columns of the reduced
incidence and ``Δb`` the susceptance changes.  Everything else the
post-perturbation detector's ``K = Uᵀ(I − P′)U`` depends on is fixed per
``H``: the angle factor ``R``, the coupling ``V = A_Dᵀ(HᵀH)⁻¹HᵀU`` and the
factor ``R_E`` of ``Uᵀ(I − P)U``.  A
:class:`~repro.mtd.subspace.RankKPerturbation` of the side and ``Δb``
combines them into ``Φ`` and ``YYᵀ`` (see :mod:`repro.mtd.subspace`), so
an attack ``a = Hb`` has noncentrality ``σ⁻²‖L_c⁻¹Φg‖²``, ``g = A_Dᵀb``
its state bias's differences across the changed branches, and the angle
is ``arctan √λ_max(YYᵀ)``.  An analytic evaluation of a D-FACTS perturbation
therefore assembles no ``H′``, factors nothing and builds no detector: the
pricing reads only ``α``, ``σ`` and the degrees of freedom, which the
change leaves as they are, so one detector per evaluator serves every
such evaluation.  A perturbation that
also changes a branch without D-FACTS, and every Monte-Carlo evaluation,
prices its attacks in measurement space, through the detector's own
factorization of ``H′``.

Everything an evaluator knows before its ensemble — the attacker's ``H``
(dense, and a CSR copy for the ensemble product), the reference
measurements ``z``, the rank-``k`` blocks ``U`` and ``A_D`` and, on first
use, the factors ``R``, ``V`` and ``R_E`` — is an :class:`AttackerSide`.
It depends only on the network, the attacker's reactances and the
operating angles, so the scenario engine builds it once per scenario
context and every trial's evaluator shares it
(:meth:`EffectivenessEvaluator.for_attacker_side`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Literal, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse

from repro.attacks.generator import AttackEnsemble, generate_attack_ensemble
from repro.estimation.bdd import DEFAULT_FALSE_POSITIVE_RATE, BadDataDetector
from repro.estimation.measurement import DEFAULT_NOISE_SIGMA, MeasurementSystem
from repro.exceptions import ConfigurationError, EstimationError
from repro.grid.matrices import _reciprocal_reactances
from repro.grid.network import PowerNetwork
from repro.mtd.subspace import RankKPerturbation, subspace_angle
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

    The threshold queries (:meth:`threshold_fractions`, and :meth:`eta`
    and :meth:`undetectable_fraction` through it) count from one ascending
    copy of the probabilities, sorted on the first query:
    ``(n − #{P'_D < δ})/n`` divides the same exact count by ``n`` as
    ``np.mean(P'_D >= δ)``, so the fractions are bit-identical to the
    mean's.  A NaN would sort last and count as ``≥ δ`` where the mean
    counts it as neither, so that first query rejects non-finite
    probabilities.
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

    @cached_property
    def _ascending(self) -> np.ndarray:
        """The detection probabilities in ascending order, sorted once."""
        ascending = np.sort(self.detection_probabilities, axis=None)
        if ascending.size and not (np.isfinite(ascending[0]) and np.isfinite(ascending[-1])):
            raise EstimationError("detection probabilities must be finite")
        return ascending

    def threshold_fractions(
        self, deltas: Sequence[float], margin: float = 1e-6
    ) -> tuple[list[float], float]:
        """Every ``η'(δ)`` of ``deltas`` and the undetectable fraction, at once.

        Returns ``([eta(δ) for δ in deltas], undetectable_fraction(margin))``
        from one ``searchsorted`` over the sorted probabilities: the count
        below each ``δ`` and the count below the float after ``α + margin``,
        which is the count at or below ``α + margin``.
        """
        for delta in deltas:
            if not (0.0 <= delta <= 1.0):
                raise ConfigurationError(f"delta must be in [0, 1], got {delta}")
        ascending = self._ascending
        n = ascending.size
        if n == 0:
            return [0.0] * len(deltas), 0.0
        floor = math.nextafter(self.false_positive_rate + margin, math.inf)
        *below, at_floor = np.searchsorted(ascending, [*deltas, floor]).tolist()
        return [(n - count) / n for count in below], at_floor / n

    def eta(self, delta: float) -> float:
        """The effectiveness ``η'(δ)``: fraction of attacks with ``P'_D ≥ δ``."""
        return self.threshold_fractions((delta,))[0][0]

    def undetectable_fraction(self, margin: float = 1e-6) -> float:
        """Fraction of attacks whose detection probability stays at ``α``.

        These are the attacks that remain (statistically) invisible after
        the MTD — the set ``A \\ A'(α)`` of the paper: ``P'_D ≤ α + margin``.
        """
        return self.threshold_fractions((), margin)[1]

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

    Memory: :attr:`matrix` is one dense ``(M, n)`` array, about 3.3 MB at
    300 buses and 67 MB at 1354; :attr:`sparse_matrix` and
    :attr:`change_columns` add ``O(nnz(H))``; once read,
    :attr:`angle_factor`, :attr:`coupling` and :attr:`residual_factor`
    add at most one ``(k, k)`` array each (0.2 and 4.3 MB at 162 and 731
    D-FACTS branches).

    Attributes
    ----------
    network:
        The grid under study.
    base_reactances:
        The attacker's (pre-perturbation) reactances.
    operating_angles:
        The true bus angles of the operating point, shape ``(N,)``.
    matrix:
        The attacker's measurement matrix ``H``.
    sparse_matrix:
        A CSR copy of the same ``H``, for the ensemble product ``a = Hb``.
        It is converted from the dense array, not assembled by the grid's
        sparse builder (whose entries may differ by an ulp), so the
        attacks and ``H`` are one matrix.
    reference_measurements:
        The noiseless measurements ``z = Hθ`` the attack magnitudes are
        scaled against.
    base_susceptances:
        The attacker's branch susceptances ``b = 1/x``, zero on branches
        out of service, shape ``(L,)``.
    dfacts:
        The ``k`` in-service D-FACTS branches ``D``, ascending.
    change_columns:
        ``U``, shape ``(M, k)``, CSC: column ``j`` is
        ``[e_j; −e_j; a_j]`` for branch ``D[j]``, so that a perturbation
        of those branches gives ``H′ − H = U diag(Δb) A_Dᵀ``.
    incidence_t:
        ``A_Dᵀ``, the transposed reduced incidence of those branches,
        shape ``(k, n)``, CSR: ``A_Dᵀb`` is a state bias's difference
        across each branch.
    """

    network: PowerNetwork
    base_reactances: np.ndarray
    operating_angles: np.ndarray
    matrix: np.ndarray
    sparse_matrix: scipy.sparse.csr_matrix
    reference_measurements: np.ndarray
    base_susceptances: np.ndarray
    dfacts: np.ndarray
    change_columns: scipy.sparse.csc_matrix
    incidence_t: scipy.sparse.csr_matrix

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
        system = MeasurementSystem(network, reactances=base)
        matrix = system.matrix()
        sparse = scipy.sparse.csr_matrix(matrix)
        reference = matrix @ system.reduce_angles(angles)
        topology = network.arrays.topology
        susceptances = _reciprocal_reactances(network.arrays, base)
        dfacts = np.asarray(network.dfacts_branches, dtype=np.intp)
        incidence = topology.incidence_sparse()[:, dfacts]
        flows = scipy.sparse.identity(network.n_branches, format="csc")[:, dfacts]
        columns = scipy.sparse.vstack([flows, -flows, incidence], format="csc")
        incidence_t = incidence[topology.non_slack()].T.tocsr()
        for array in (
            matrix, sparse.data, sparse.indices, sparse.indptr, reference, susceptances,
            dfacts, columns.data, columns.indices, columns.indptr,
            incidence_t.data, incidence_t.indices, incidence_t.indptr,
        ):
            array.flags.writeable = False
        return cls(
            network, base, angles, matrix, sparse, reference,
            susceptances, dfacts, columns, incidence_t,
        )

    @cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(R, V, R_E)`` from :func:`_change_factors`, read-only, computed once."""
        factors = _change_factors(self.sparse_matrix, self.incidence_t, self.change_columns)
        for factor in factors:
            factor.flags.writeable = False
        return factors

    @property
    def angle_factor(self) -> np.ndarray:
        """The triangular ``R``, ``RᵀR = A_Dᵀ(HᵀH)⁻¹A_D``, shape ``(min(n, k), k)``."""
        return self._factors[0]

    @property
    def coupling(self) -> np.ndarray:
        """``V = A_Dᵀ(HᵀH)⁻¹HᵀU``, shape ``(k, k)``."""
        return self._factors[1]

    @property
    def residual_factor(self) -> np.ndarray:
        """``R_E`` with ``R_EᵀR_E = Uᵀ(I − P)U``, shape ``(k − d, k)``.

        ``P`` projects onto ``Col(H)`` and ``d = dim(Col H ∩ Col U)``: a
        D-FACTS column in ``Col(H)``, such as a radial branch's, adds to
        ``d``.
        """
        return self._factors[2]

    def susceptance_change(self, reactances: np.ndarray) -> np.ndarray | None:
        """``Δb`` on the D-FACTS branches, or ``None`` if another branch changed.

        Takes the susceptances masked by branch status, so a perturbed
        reactance of a branch out of service changes nothing.  With
        ``None``, the perturbation is no rank-``k`` change along
        :attr:`change_columns`.  Raises
        :class:`~repro.exceptions.EstimationError` if ``reactances`` does
        not hold one positive reactance per branch, as the measurement
        system of an invalid vector would.
        """
        try:
            susceptances = _reciprocal_reactances(self.network.arrays, reactances)
        except ValueError as error:
            raise EstimationError(str(error)) from error
        change = susceptances - self.base_susceptances
        on_dfacts = change[self.dfacts]
        if np.count_nonzero(change) != np.count_nonzero(on_dfacts):
            return None
        return on_dfacts


#: Pivots of ``K₀ = Uᵀ(I − P)U`` at or below this fraction of its largest
#: diagonal entry count as zero.  ``K₀`` comes from the normal equations, so
#: its null directions keep rounding that grows with ``cond(H)²``: pivots
#: up to 1.2e-13 of the largest diagonal entry on synthetic1354, against a
#: smallest genuine pivot of 5.7e-3 there (7.2e-3 on synthetic300).
_PIVOT_RTOL = 1e-10


def _change_factors(
    matrix: scipy.sparse.csr_matrix,
    incidence_t: scipy.sparse.csr_matrix,
    columns: scipy.sparse.csc_matrix,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``R``, ``V`` and ``R_E`` of one ``H`` and its D-FACTS blocks.

    One dense Cholesky ``HᵀH = LLᵀ`` of the ``n × n`` gain and one
    triangular solve with ``2k`` right-hand sides give ``W_A = L⁻¹A_D``
    and ``W_U = L⁻¹HᵀU``.  ``R`` is the triangular factor of ``W_A``,
    ``V = W_AᵀW_U``, and ``R_E`` the pivoted Cholesky factor of
    ``K₀ = UᵀU − W_UᵀW_U`` (LAPACK ``dpstrf``), scattered back to the
    columns' order, with one row per pivot above :data:`_PIVOT_RTOL`.
    Raises :class:`numpy.linalg.LinAlgError` (a :class:`ValueError`) if
    ``H`` is rank deficient.
    """
    chol = scipy.linalg.cholesky(
        (matrix.T @ matrix).toarray(), lower=True, overwrite_a=True, check_finite=False
    )
    k = columns.shape[1]
    whitened = scipy.linalg.solve_triangular(
        chol,
        scipy.sparse.hstack([incidence_t.T, matrix.T @ columns]).toarray(),
        lower=True, overwrite_b=True, check_finite=False,
    )
    across, along = whitened[:, :k], whitened[:, k:]
    gram = (columns.T @ columns).toarray() - along.T @ along
    tolerance = _PIVOT_RTOL * np.max(np.diag(gram), initial=0.0)
    factor, pivots, rank, _ = scipy.linalg.lapack.dpstrf(gram, tol=tolerance)
    residual_factor = np.zeros((rank, k))
    residual_factor[:, pivots - 1] = np.triu(factor[:rank])
    return np.linalg.qr(across, mode="r"), across.T @ along, residual_factor


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
    def _branch_differences(self) -> np.ndarray:
        """``A_Dᵀb_k`` for every attack: its state-bias differences across
        the D-FACTS branches, shape ``(n_attacks, k)``."""
        differences: np.ndarray = (self._side.incidence_t @ self._ensemble.state_biases.T).T
        return differences

    @cached_property
    def _rank_k_detector(self) -> BadDataDetector:
        """The one detector that prices every analytic D-FACTS evaluation.

        Built on first use, over the attacker's measurement system.  The
        rank-``k`` pricing reads only the detector's ``α``, ``σ`` and
        degrees of freedom, and a D-FACTS change leaves all three as they
        are (it keeps the shape of ``H``), so this detector prices every
        perturbation of the side's D-FACTS branches.  It never builds a
        model of ``H``.
        """
        system = MeasurementSystem(
            self._side.network, reactances=self._side.base_reactances, noise_sigma=self._noise_sigma
        )
        return BadDataDetector(system, false_positive_rate=self._alpha)

    # ------------------------------------------------------------------
    @property
    def ensemble(self) -> AttackEnsemble:
        """The attack ensemble all perturbations are evaluated against."""
        return self._ensemble

    @property
    def attacker_side(self) -> AttackerSide:
        """The attacker's side the evaluator is bound to, shared and read-only."""
        return self._side

    @property
    def attacker_matrix(self) -> np.ndarray:
        """The attacker's (pre-perturbation) measurement matrix ``H``, read-only."""
        return self._side.matrix

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

        Returns the post-perturbation detection probabilities of the
        evaluator's attack ensemble, together with the subspace angle
        ``γ(H, H')``, computed on first access of
        :attr:`EffectivenessResult.spa`.  For a perturbation of D-FACTS
        branches only, both come from one
        :class:`~repro.mtd.subspace.RankKPerturbation` (see the module
        docstring): the analytic method prices the attacks by their branch
        differences, through the evaluator's one detector (a D-FACTS
        change keeps the detector's ``α``, ``σ`` and degrees of freedom),
        and reading the angle reuses what the pricing formed.  Neither
        assembles nor factors ``H′``, and no detector is built per call.
        The Monte-Carlo method, and any perturbation of a branch without
        D-FACTS, build the post-perturbation :class:`BadDataDetector`.

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
        change = self._side.susceptance_change(perturbed_reactances)
        perturbation = None if change is None else RankKPerturbation(self._side, change)
        detector = (
            self._rank_k_detector
            if method == "analytic" and perturbation is not None
            else self._build_detector(perturbed_reactances)
        )
        if method == "monte-carlo":
            rng = as_generator(seed)
            angles = (
                self._side.operating_angles
                if operating_angles_rad is None
                else np.asarray(operating_angles_rad, dtype=float)
            )
            probabilities = detector.detection_probabilities_monte_carlo(
                self._ensemble.attacks, angles, n_trials=n_noise_trials, rng=rng
            )
        elif perturbation is None:
            probabilities = detector.detection_probabilities(self._ensemble.attacks)
        else:
            probabilities = detector.detection_probabilities(
                self._branch_differences, perturbation
            )
        return EffectivenessResult(
            detection_probabilities=probabilities,
            false_positive_rate=self._alpha,
            method=method,
            # Lazy: only the random policy reads the angle.
            spa_source=partial(self._angle, detector, perturbation),
        )

    def _angle(
        self, detector: BadDataDetector, perturbation: RankKPerturbation | None
    ) -> float:
        """``γ(H, H′)`` of an evaluated perturbation, on the first read of its spa.

        From the rank-``k`` form when the perturbation changes D-FACTS
        branches only; otherwise from the detector's ``H′``.
        """
        if perturbation is None:
            return subspace_angle(self._side.matrix, detector.system.matrix())
        return subspace_angle(perturbation)

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

        Its model, built on the detector's first measurement-space query,
        picks the factorization backend from the bus count (see
        :func:`~repro.estimation.backends.resolve_backend`).
        """
        post_system = MeasurementSystem(
            self._side.network, reactances=perturbed_reactances, noise_sigma=self._noise_sigma
        )
        return BadDataDetector(post_system, false_positive_rate=self._alpha)


__all__ = [
    "AttackerSide",
    "EffectivenessEvaluator",
    "EffectivenessResult",
    "DetectionMethod",
]
