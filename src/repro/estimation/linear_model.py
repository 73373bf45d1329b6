"""Factorized linear measurement models.

This module is the heart of the vectorised estimation kernels.  A
:class:`LinearModel` captures everything the estimation stack derives from
one (measurement matrix, weights) pair — the Jacobian ``H``, a
factorisation of the weighted Jacobian ``W^{1/2}H`` and the implied
residual projector — and exposes *batched* linear-algebra entry points:
state estimation, weighted residual norms and attack noncentralities for
``(B, M)`` stacks of measurement / attack vectors, each evaluated with a
single BLAS call instead of a per-vector Python loop.

The factorisation itself is pluggable (see
:mod:`repro.estimation.backends`): the default ``backend="auto"`` keeps
the original dense QR path — byte-for-byte unchanged — below
:data:`~repro.grid.matrices.SPARSE_BUS_THRESHOLD` buses and switches to a
Q-less Cholesky of the gain matrix above it, so 1000+ bus cases never
materialise a dense ``(M, n)`` factor.

Shapes used throughout (matching the paper's Section III):

* ``M`` — number of measurements (``2L + N``),
* ``n`` — number of estimated states (``N − 1``),
* ``B`` — batch size (noise draws, attacks, or trials).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse

from repro.estimation.backends import (
    BACKEND_AUTO,
    BACKEND_SPARSE,
    MatrixLike,
    build_backend,
    resolve_backend,
)
from repro.exceptions import EstimationError
from repro.telemetry import metrics as _metrics
from repro.telemetry.config import _STATE as _TELEMETRY

if TYPE_CHECKING:
    from repro.estimation.measurement import MeasurementSystem


@dataclass(frozen=True)
class BatchStateEstimate:
    """Vectorised output of a batched WLS state-estimation run.

    Attributes
    ----------
    angles_rad:
        Estimated non-slack bus angles, shape ``(B, n)``; row ``i`` is the
        state vector of measurement row ``i``.
    residual_norms:
        Weighted residual norms ``‖W^{1/2}(z_i − Hθ̂_i)‖``, shape ``(B,)``.
    estimated_measurements:
        Fitted measurement vectors ``Hθ̂_i``, shape ``(B, M)``.
    """

    angles_rad: np.ndarray
    residual_norms: np.ndarray
    estimated_measurements: np.ndarray


class LinearModel:
    """One-off factorisation of a weighted linear measurement model.

    Parameters
    ----------
    matrix:
        The (reduced) measurement Jacobian ``H``, shape ``(M, n)`` with
        ``M > n`` — a dense array or any scipy sparse matrix.  Must have
        full column rank (observable network).
    weights:
        Measurement weights ``1/σ²``, shape ``(M,)``, all strictly positive.
    backend:
        Factorisation backend: ``"auto"`` (default — dense below
        :data:`~repro.grid.matrices.SPARSE_BUS_THRESHOLD` buses, sparse at
        or above it), ``"dense"`` (thin QR, the original golden-pinned
        arithmetic) or ``"sparse"`` (Q-less gain-matrix Cholesky; see
        :mod:`repro.estimation.backends`).

    Raises
    ------
    EstimationError
        If shapes are inconsistent, weights are not positive, or ``H`` is
        rank deficient.
    ConfigurationError
        For an unknown backend name.

    Notes
    -----
    On the dense backend the model stores the thin QR factorisation
    ``W^{1/2}H = QR`` and all derived quantities reuse it:

    * states: ``θ̂ = R⁻¹ Qᵀ W^{1/2} z``,
    * residual projector (weighted space): ``I − QQᵀ``.

    The sparse backend factorises ``G = HᵀWH = LLᵀ`` directly (a dense
    Cholesky of the ``n × n`` gain) and evaluates the same quantities
    without materialising ``Q``; results agree with the dense backend to
    solver tolerance (the tier-1 agreement tests pin the bound).

    A D-FACTS perturbation's attacks need no model at all: the detector
    prices them in the rank-``k`` form from the attacker's factors (see
    :mod:`repro.estimation.bdd`), and builds its model only for a
    measurement-space query.
    """

    def __init__(
        self,
        matrix: MatrixLike,
        weights: np.ndarray,
        backend: str = BACKEND_AUTO,
    ) -> None:
        sparse_input = scipy.sparse.issparse(matrix)
        if sparse_input:
            H: MatrixLike = matrix
            shape = matrix.shape
        else:
            H = np.asarray(matrix, dtype=float)
            if H.ndim != 2:
                raise EstimationError(
                    f"expected a 2-D measurement matrix, got shape {H.shape}"
                )
            shape = H.shape
        w = np.asarray(weights, dtype=float).ravel()
        if w.shape[0] != shape[0]:
            raise EstimationError(
                f"weights length {w.shape[0]} does not match measurement count {shape[0]}"
            )
        if np.any(w <= 0):
            raise EstimationError("all measurement weights must be strictly positive")
        self._sqrt_w = np.sqrt(w)
        # The reduced Jacobian has one column per non-slack bus, so the
        # network size that drives the "auto" crossover is ``n + 1``.
        resolved = resolve_backend(backend, n_buses=shape[1] + 1)
        start = time.perf_counter()
        self._fact = build_backend(H, self._sqrt_w, resolved)
        elapsed = time.perf_counter() - start
        if _TELEMETRY.enabled:
            # Observation only: the factorisation is timed unconditionally
            # (it is one perf_counter call), the metrics are recorded only
            # when telemetry is on.
            _metrics.counter("estimation.factorizations")
            _metrics.counter(f"estimation.backend.{resolved}")
            _metrics.histogram("estimation.factorize_seconds", elapsed)

    # ------------------------------------------------------------------
    @classmethod
    def from_measurement_system(
        cls, system: "MeasurementSystem", backend: str = BACKEND_AUTO
    ) -> "LinearModel":
        """Build the model of a measurement system, backend-aware.

        Resolves ``backend`` first so the sparse path builds ``H`` with
        the CSR builder (:meth:`~repro.estimation.measurement.
        MeasurementSystem.matrix_sparse`) — the dense Jacobian is never
        formed above the crossover.
        """
        resolved = resolve_backend(backend, n_buses=system.n_states + 1)
        if resolved == BACKEND_SPARSE:
            return cls(system.matrix_sparse(), system.weights(), backend=resolved)
        return cls(system.matrix(), system.weights(), backend=resolved)

    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """The resolved backend name, ``"dense"`` or ``"sparse"``."""
        return self._fact.name

    @property
    def q(self) -> np.ndarray:
        """Orthonormal factor of ``W^{1/2}H``, shape ``(M, n)``.

        Raises :class:`EstimationError` on the Q-less sparse backend.
        """
        return self._fact.q

    @property
    def r(self) -> np.ndarray:
        """Triangular factor of ``W^{1/2}H``, shape ``(n, n)``.

        Raises :class:`EstimationError` on the Q-less sparse backend.
        """
        return self._fact.r

    @property
    def n_measurements(self) -> int:
        """``M``, the number of measurements."""
        return self._fact.n_measurements

    @property
    def n_states(self) -> int:
        """``n``, the number of estimated states."""
        return self._fact.n_states

    @property
    def degrees_of_freedom(self) -> int:
        """Residual degrees of freedom ``M − n`` of the χ² statistic."""
        return self.n_measurements - self.n_states

    def apply_states(self, states: np.ndarray) -> np.ndarray:
        """Noiseless measurements ``Hθ`` of a state vector or stack.

        Parameters
        ----------
        states:
            Reduced (non-slack) state vector, shape ``(n,)``, or a stack
            ``(B, n)``.

        Returns
        -------
        numpy.ndarray
            ``Hθ`` (shape ``(M,)``) or ``θ Hᵀ`` (shape ``(B, M)``) —
            evaluated sparsely on the sparse backend, so hot loops never
            densify ``H``.
        """
        arr = np.asarray(states, dtype=float)
        if arr.ndim not in (1, 2) or arr.shape[-1] != self.n_states:
            raise EstimationError(
                f"expected states of shape (B, {self.n_states}) or "
                f"({self.n_states},), got {arr.shape}"
            )
        return self._fact.apply_states(arr)

    # ------------------------------------------------------------------
    def _as_batch(self, vectors: np.ndarray, what: str) -> tuple[np.ndarray, bool]:
        """Coerce a ``(M,)`` vector or ``(B, M)`` stack to 2-D."""
        arr = np.asarray(vectors, dtype=float)
        single = arr.ndim == 1
        if single:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.n_measurements:
            raise EstimationError(
                f"expected {what} of shape (B, {self.n_measurements}) or "
                f"({self.n_measurements},), got {np.asarray(vectors).shape}"
            )
        return arr, single

    def _weighted_residuals(self, vectors: np.ndarray, what: str) -> tuple[np.ndarray, bool]:
        """``W^{1/2}(I − Γ)v`` for every row, plus the 1-D input flag.

        The one projection behind the residual-norm and attack-residual
        queries: ``W^{1/2}v − Γ_w W^{1/2}v`` with ``Γ_w`` the backend's
        weighted projection.
        """
        V, single = self._as_batch(vectors, what)
        weighted = V * self._sqrt_w
        return weighted - self._fact.project_weighted(weighted), single

    def estimate_batch(self, measurements: np.ndarray) -> BatchStateEstimate:
        """Batched state estimation with residual norms.

        Parameters
        ----------
        measurements:
            Measurement vectors, shape ``(B, M)``.

        Returns
        -------
        BatchStateEstimate
            States ``(B, n)``, weighted residual norms ``(B,)`` and fitted
            measurements ``(B, M)``, all computed with single BLAS calls.
        """
        Z, _ = self._as_batch(measurements, "measurements")
        weighted = Z * self._sqrt_w
        # Each backend computes the three outputs from shared
        # intermediates; per backend the norm arithmetic is identical to
        # residual_norms() (the norm of the project_weighted() complement),
        # so every alarm decision agrees bit-for-bit.
        theta, residual_norms, fitted = self._fact.estimate(weighted)
        return BatchStateEstimate(
            angles_rad=theta,
            residual_norms=residual_norms,
            estimated_measurements=fitted,
        )

    def residual_norms(self, measurements: np.ndarray) -> np.ndarray:
        """Weighted residual norms of a measurement batch.

        Parameters
        ----------
        measurements:
            Measurement vectors, shape ``(B, M)``.

        Returns
        -------
        numpy.ndarray
            ``‖W^{1/2}(z_i − Hθ̂_i)‖`` for every row, shape ``(B,)``.

        Notes
        -----
        The dense backend projects in weighted space
        (``r = ‖(I − QQᵀ)W^{1/2}z‖``) — one ``(B, M) @ (M, n)`` product
        and one ``(B, n) @ (n, M)`` product; the sparse backend evaluates
        the mathematically identical fitted measurements ``W^{1/2}Hθ̂``
        through the gain-matrix Cholesky.
        """
        residuals, _ = self._weighted_residuals(measurements, "measurements")
        return np.linalg.norm(residuals, axis=1)

    def attack_residuals(self, attacks: np.ndarray) -> np.ndarray:
        """Deterministic residual components ``(I − Γ)a`` of an attack batch.

        Parameters
        ----------
        attacks:
            Attack vectors ``a``, shape ``(B, M)`` (or ``(M,)``).

        Returns
        -------
        numpy.ndarray
            Measurement-space residuals, shape matching the input.
        """
        residuals, single = self._weighted_residuals(attacks, "attacks")
        residual = residuals / self._sqrt_w
        return residual[0] if single else residual

    def attack_residual_norms(self, attacks: np.ndarray) -> np.ndarray:
        """Weighted norms ``‖W^{1/2}(I − Γ)a_i‖`` of an attack batch.

        Parameters
        ----------
        attacks:
            Attack vectors, shape ``(B, M)``.

        Returns
        -------
        numpy.ndarray
            Norms, shape ``(B,)``.
        """
        residuals, _ = self._weighted_residuals(attacks, "attacks")
        return np.linalg.norm(residuals, axis=1)

    def attack_noncentralities(self, attacks: np.ndarray) -> np.ndarray:
        """Noncentrality parameters ``λ_i = ‖W^{1/2}(I − Γ)a_i‖²``.

        Parameters
        ----------
        attacks:
            Attack vectors, shape ``(B, M)``.

        Returns
        -------
        numpy.ndarray
            Noncentralities of the residual χ² statistic, shape ``(B,)``.
        """
        return self.attack_residual_norms(attacks) ** 2


__all__ = ["LinearModel", "BatchStateEstimate"]
