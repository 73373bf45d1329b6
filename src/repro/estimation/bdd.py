"""Residual-based bad-data detection.

The detector compares the weighted residual norm of a state-estimation run
against a threshold ``τ`` chosen so that the false-positive (FP) rate under
attack-free Gaussian noise equals a target ``α`` (paper Section III).  With
measurement weights equal to ``1/σ²``, the squared weighted residual under
the null hypothesis follows a χ² distribution with ``M − (N−1)`` degrees of
freedom, which gives the threshold in closed form; under an FDI attack the
statistic is noncentral χ² with noncentrality ``‖W^{1/2}(I−Γ)a‖²`` (paper
Appendix B), which gives the detection probability in closed form as well.
Monte-Carlo counterparts of both quantities are provided for validation and
for exactly mirroring the paper's simulation methodology.

Every query comes in a *batched* form
(:meth:`BadDataDetector.detection_probabilities`,
:meth:`BadDataDetector.raises_alarms`,
:meth:`BadDataDetector.detection_probabilities_monte_carlo`) that consumes
``(B, M)`` stacks and evaluates them with single BLAS calls against the
detector's factorized :class:`~repro.estimation.linear_model.LinearModel`;
the scalar methods are thin wrappers over a batch of one (the empirical
false-positive rate is the zero attack), so scalar and batched results are
bit-identical by construction.

Attacks built as ``a = H_t b`` from a known matrix ``H_t`` can also be
handed over in the *rank-k form*, when the detector's ``H`` differs from
``H_t`` by a rank-``k`` change ``U diag(Δb) A_Dᵀ`` (a D-FACTS
perturbation of ``k`` branches).  The detector's residual of ``a`` is then
that of ``U c`` with ``c = Δb ⊙ A_Dᵀb``, so every noncentrality is a
quadratic form ``σ⁻² cᵀKc`` of one ``k × k`` matrix ``K = Uᵀ(I − P)U``
(a :class:`~repro.estimation.linear_model.ResidualGram`), and no attack is
projected in measurement space.  Both forms give the same
probabilities to rounding; the measurement-space form stays the general
one (learned attacks, Monte Carlo, perturbations of branches without
D-FACTS).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import stats

from repro.exceptions import EstimationError
from repro.estimation.backends import BACKEND_AUTO
from repro.estimation.linear_model import LinearModel, ResidualGram
from repro.estimation.measurement import MeasurementSystem
from repro.utils.rng import as_generator

#: False-positive rate used throughout the paper's simulations.
DEFAULT_FALSE_POSITIVE_RATE: float = 5e-4


@lru_cache(maxsize=64)
def _residual_threshold(false_positive_rate: float, dof: int) -> float:
    """Threshold ``τ`` on the weighted residual norm for FP rate ``α``.

    ``r² = ‖W^{1/2}(z − Hθ̂)‖² ~ χ²(dof)`` under H0, so ``τ`` is the square
    root of the χ² quantile.  A pure function of ``(α, dof)``, computed
    once per pair: the quantile costs more than many a detector build.
    """
    return float(np.sqrt(stats.chi2.ppf(1.0 - false_positive_rate, dof)))


class BadDataDetector:
    """χ²-threshold bad-data detector bound to a measurement system.

    Parameters
    ----------
    system:
        The measurement model of the (possibly MTD-perturbed) grid the
        operator currently runs.
    false_positive_rate:
        Target FP rate ``α`` (default ``5e-4`` as in the paper).
    backend:
        Factorisation backend of the detector's model: ``"auto"`` (default,
        chosen by bus count), ``"dense"`` or ``"sparse"`` (see
        :mod:`repro.estimation.backends`).

    Raises
    ------
    EstimationError
        If the FP rate is outside ``(0, 1)``, or the measurement matrix is
        rank deficient (unobservable network) or has no redundancy.
    """

    def __init__(
        self,
        system: MeasurementSystem,
        false_positive_rate: float = DEFAULT_FALSE_POSITIVE_RATE,
        backend: str = BACKEND_AUTO,
    ) -> None:
        if not (0.0 < false_positive_rate < 1.0):
            raise EstimationError(
                f"false_positive_rate must be in (0, 1), got {false_positive_rate}"
            )
        self._system = system
        self._alpha = float(false_positive_rate)
        self._model = LinearModel.from_measurement_system(system, backend=backend)
        dof = self._model.degrees_of_freedom
        if dof <= 0:
            raise EstimationError(
                "the measurement set has no redundancy; bad-data detection is impossible"
            )
        self._dof = dof
        self._threshold = _residual_threshold(self._alpha, dof)

    # ------------------------------------------------------------------
    @property
    def model(self) -> LinearModel:
        """The factorized linear model behind every query."""
        return self._model

    @property
    def system(self) -> MeasurementSystem:
        """The measurement system the detector operates on."""
        return self._system

    @property
    def threshold(self) -> float:
        """Detection threshold ``τ`` on the weighted residual norm."""
        return self._threshold

    @property
    def false_positive_rate(self) -> float:
        """Configured false-positive rate ``α``."""
        return self._alpha

    @property
    def degrees_of_freedom(self) -> int:
        """Degrees of freedom of the residual statistic."""
        return self._dof

    # ------------------------------------------------------------------
    def raises_alarm(self, measurements: np.ndarray) -> bool:
        """True when the residual of one ``(M,)`` vector exceeds the threshold."""
        z = np.asarray(measurements, dtype=float).ravel()
        return bool(self.raises_alarms(z[None, :])[0])

    def raises_alarms(self, measurements: np.ndarray) -> np.ndarray:
        """Vectorised alarm decisions for a measurement batch.

        Parameters
        ----------
        measurements:
            Stacked measurement vectors, shape ``(B, M)``.

        Returns
        -------
        numpy.ndarray
            Boolean alarms, shape ``(B,)``; entry ``i`` equals
            ``raises_alarm(measurements[i])`` bit-for-bit.
        """
        return self._model.residual_norms(measurements) >= self._threshold

    # ------------------------------------------------------------------
    # Detection probability of an FDI attack
    # ------------------------------------------------------------------
    def detection_probability(self, attack: np.ndarray) -> float:
        """Closed-form detection probability ``P_D(a) = P(r ≥ τ)``.

        Under the attack the squared weighted residual is noncentral χ² with
        ``dof`` degrees of freedom and noncentrality
        ``λ = ‖W^{1/2}(I−Γ)a‖²`` (paper Appendix B), so
        ``P_D = 1 − F_{ncχ²}(τ²; dof, λ)``.
        """
        a = np.asarray(attack, dtype=float).ravel()
        return float(self.detection_probabilities(a[None, :])[0])

    def detection_probabilities(
        self, attacks: np.ndarray, gram: ResidualGram | None = None
    ) -> np.ndarray:
        """Closed-form detection probabilities of a whole attack batch.

        Parameters
        ----------
        attacks:
            Stacked attack vectors, shape ``(B, M)``; with ``gram``, their
            rank-k coordinates ``c_i``, shape ``(B, k)`` (see the module
            docstring).
        gram:
            Optional :class:`~repro.estimation.linear_model.ResidualGram`
            ``K = Uᵀ(I − P)U`` of the block ``U`` the coordinates refer to,
            against this detector's :attr:`model`; read (and formed, if
            no one has yet) here.

        Returns
        -------
        numpy.ndarray
            ``P_D(a_i)``, shape ``(B,)``.  Attacks with zero residual
            component (stealthy against *this* model) report the
            false-positive floor ``α``.

        Notes
        -----
        One gemm for the batch of noncentralities plus one vectorised
        noncentral-χ² survival evaluation — the per-attack Python loop of
        the reference implementation is gone.
        """
        lams = self._model.attack_noncentralities(attacks, gram=gram)
        probabilities = np.full(lams.shape, self._alpha)
        visible = lams > 0.0
        if np.any(visible):
            probabilities[visible] = stats.ncx2.sf(
                self._threshold**2, self._dof, lams[visible]
            )
        return probabilities

    def detection_probabilities_monte_carlo(
        self,
        attacks: np.ndarray,
        angles_rad: np.ndarray,
        n_trials: int = 1000,
        rng: int | np.random.Generator | None = None,
    ) -> np.ndarray:
        """Monte-Carlo detection probabilities, mirroring the paper's method.

        For each attack, ``n_trials`` noisy measurement vectors are drawn
        for the true state ``angles_rad``, the attack is added to each, and
        the fraction of draws raising an alarm is its estimate.

        Parameters
        ----------
        attacks:
            Stacked attack vectors, shape ``(n_attacks, M)``.
        angles_rad:
            True bus angles (full vector including the slack), shape
            ``(N,)``.
        n_trials:
            Noise draws per attack.
        rng:
            Seed or generator.  The noise is drawn attack by attack in row
            order, so a batch consumes the stream exactly as its rows
            would, passed one at a time as batches of one.

        Returns
        -------
        numpy.ndarray
            Estimated detection probabilities, shape ``(n_attacks,)``.
        """
        if n_trials <= 0:
            raise EstimationError(f"n_trials must be positive, got {n_trials}")
        rng = as_generator(rng)
        A = np.atleast_2d(np.asarray(attacks, dtype=float))
        # The noiseless measurement vector is shared by every attack and
        # comes from the factorized model's Jacobian (kept sparse on the
        # sparse backend by apply_states).  Each attack's (n_trials, M)
        # noise matrix is one draw, consuming the stream exactly like
        # n_trials sequential MeasurementSystem.measure calls.
        z0 = self._model.apply_states(self._system.reduce_angles(angles_rad))
        if A.shape[1] != z0.shape[0]:
            raise EstimationError(
                f"attack length {A.shape[1]} does not match measurement count {z0.shape[0]}"
            )
        sigma = self._system.noise_sigma
        probabilities = np.empty(A.shape[0])
        for k in range(A.shape[0]):
            Z = z0[None, :] + rng.normal(0.0, sigma, size=(n_trials, z0.shape[0]))
            Z = Z + A[k][None, :]
            probabilities[k] = np.count_nonzero(self.raises_alarms(Z)) / n_trials
        return probabilities

    def empirical_false_positive_rate(
        self,
        angles_rad: np.ndarray,
        n_trials: int = 2000,
        rng: int | np.random.Generator | None = None,
    ) -> float:
        """Estimate the FP rate by Monte Carlo on attack-free measurements.

        The zero attack through :meth:`detection_probabilities_monte_carlo`:
        adding ``0.0`` leaves every noisy draw unchanged.
        """
        zero = np.zeros((1, self._model.n_measurements))
        return float(self.detection_probabilities_monte_carlo(zero, angles_rad, n_trials, rng)[0])


__all__ = ["BadDataDetector", "DEFAULT_FALSE_POSITIVE_RATE"]
