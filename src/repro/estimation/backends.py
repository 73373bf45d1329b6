"""Pluggable factorization backends for the linear estimation stack.

A :class:`FactorizationBackend` owns everything a
:class:`~repro.estimation.linear_model.LinearModel` derives from one
(measurement matrix, weights) pair.  Besides ``Hθ`` it answers two
batched kernels: the state estimate
(:meth:`FactorizationBackend.estimate`) and the weighted projection onto
the column space (:meth:`FactorizationBackend.project_weighted`), from
which the model derives every residual norm and attack residual.  A
D-FACTS perturbation priced in the rank-``k`` form needs neither: its
``k × k`` factors come from the attacker's gain Cholesky (see
:mod:`repro.mtd.subspace`), and its detector builds no backend.  Two
first-class implementations exist:

``dense`` — :class:`DenseQRBackend`
    The original path: SVD observability guard, then the thin QR
    factorisation ``W^{1/2}H = QR`` with ``Q`` (shape ``(M, n)``)
    materialised.  States come from one triangular solve, the projection
    from ``QQᵀW^{1/2}z``, so residual norms are ``‖(I − QQᵀ)W^{1/2}z‖``.
    Its arithmetic is byte-for-byte the pre-backend ``LinearModel``
    (golden-pinned by the tier-1 tests).

``sparse`` — :class:`SparseQlessBackend`
    The scale path: ``H`` stays CSR, the gain matrix ``G = HᵀWH`` (shape
    ``(n, n)``) is assembled from the sparse product, densified and
    factorised once by a dense Cholesky ``G = LLᵀ``, and **no dense
    ``(M, n)`` factor is ever materialised** — neither ``Q`` nor a
    densified ``H``.  Memory is ``O(nnz(H) + n²)``: the dense ``L`` is
    14.6 MB at 1354 buses, the size of the gain itself.  States are two
    dense triangular solves through ``L``, the projection is evaluated
    directly as the fitted measurements ``W^{1/2}Hθ̂`` (mathematically
    identical to the projector form; the tier-1 agreement tests pin the
    two paths to ~1e-9 relative tolerance).  The observability guard is
    derived from the factorisation itself — a ``G`` that is not positive
    definite, or a vanishing pivot ``diag(L)²`` — instead of a dense SVD,
    so the guard stops being the O(M·n²) bottleneck.

``auto`` resolves per model: sparse at or above
:data:`~repro.grid.matrices.SPARSE_BUS_THRESHOLD` buses (the same
crossover the grid layer uses for its CSR builders), dense below it.
Every detector the library builds resolves ``auto``; the concrete names
let the scale benchmark and the agreement tests run both backends on one
matrix.

Shapes follow the paper's Section III conventions: ``M`` measurements,
``n = N − 1`` states, ``B`` batch rows.  Every batched method takes
*weighted* rows ``W^{1/2}z`` of shape ``(B, M)`` — the caller
(:class:`LinearModel`) owns input coercion and weighting so scalar and
batched entry points share one code path.
"""

from __future__ import annotations

import abc
from typing import Union

import numpy as np
import scipy.linalg
import scipy.sparse

from repro.exceptions import ConfigurationError, EstimationError
from repro.grid.matrices import SPARSE_BUS_THRESHOLD
from repro.utils.linalg import is_full_column_rank

#: A measurement Jacobian as accepted by the backends: dense array(-like)
#: or any scipy sparse matrix (converted to CSR internally).
MatrixLike = Union[np.ndarray, "scipy.sparse.spmatrix"]

#: Resolve per model size (the default everywhere a ``backend=`` knob
#: appears).
BACKEND_AUTO = "auto"
#: The original dense-QR path (byte-for-byte pre-backend arithmetic).
BACKEND_DENSE = "dense"
#: The Q-less gain-Cholesky path for large cases.
BACKEND_SPARSE = "sparse"

#: Every accepted value of a ``backend=`` knob.
BACKEND_CHOICES = (BACKEND_AUTO, BACKEND_DENSE, BACKEND_SPARSE)

#: Relative pivot tolerance of the sparse observability guard: the model
#: is rejected as rank deficient when ``min diag(L)² ≤ rtol · max diag(L)²``
#: for the Cholesky factor ``L`` of ``G = HᵀWH`` (``diag(L)²`` are the
#: pivots of ``G``'s unpivoted elimination).  ``G`` squares ``H``'s
#: condition number, so this is deliberately looser than the SVD guard's
#: machine-epsilon criterion; a network unobservable in exact arithmetic
#: produces an exactly (or catastrophically) singular ``G`` either way.
SPARSE_RANK_RTOL = 1e-10

#: Error raised when a model's Jacobian cannot support state estimation.
_RANK_DEFICIENT_MSG = (
    "measurement matrix is rank deficient; the network is unobservable"
)


def available_backends() -> tuple[str, ...]:
    """The concrete backend names this build can instantiate."""
    return (BACKEND_DENSE, BACKEND_SPARSE)


def resolve_backend(backend: str, n_buses: int) -> str:
    """Resolve a ``backend=`` knob to a concrete backend name.

    Parameters
    ----------
    backend:
        ``"auto"``, ``"dense"`` or ``"sparse"``.
    n_buses:
        Bus count of the model's network (``n_states + 1``); ``"auto"``
        selects ``"sparse"`` at or above
        :data:`~repro.grid.matrices.SPARSE_BUS_THRESHOLD` buses.

    Returns
    -------
    str
        ``"dense"`` or ``"sparse"``.

    Raises
    ------
    ConfigurationError
        For an unknown backend name.
    """
    if backend not in BACKEND_CHOICES:
        raise ConfigurationError(
            f"unknown factorization backend {backend!r}; "
            f"expected one of {BACKEND_CHOICES}"
        )
    if backend != BACKEND_AUTO:
        return backend
    return BACKEND_SPARSE if n_buses >= SPARSE_BUS_THRESHOLD else BACKEND_DENSE


class FactorizationBackend(abc.ABC):
    """One factorisation of a weighted Jacobian ``W^{1/2}H``.

    Subclasses factorise in ``__init__`` (raising
    :class:`~repro.exceptions.EstimationError` on a rank-deficient model)
    and then answer the batched queries below.  All ``weighted`` arguments
    are ``W^{1/2}z`` rows of shape ``(B, M)``.
    """

    #: Concrete backend name (``"dense"`` or ``"sparse"``).
    name: str = ""

    @property
    @abc.abstractmethod
    def n_measurements(self) -> int:
        """``M``, the number of measurements."""

    @property
    @abc.abstractmethod
    def n_states(self) -> int:
        """``n``, the number of estimated states."""

    @abc.abstractmethod
    def apply_states(self, states: np.ndarray) -> np.ndarray:
        """``Hθ`` for a ``(n,)`` state vector or ``(B, n)`` stack."""

    @abc.abstractmethod
    def estimate(
        self, weighted: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """States, weighted residual norms and fitted measurements.

        Returns ``(θ̂ (B, n), ‖W^{1/2}(z − Hθ̂)‖ (B,), Hθ̂ (B, M))`` with
        shared intermediates computed once.
        """

    @abc.abstractmethod
    def project_weighted(self, weighted: np.ndarray) -> np.ndarray:
        """The fitted component ``Γ_w v = W^{1/2}Hθ̂`` of weighted rows.

        The model derives every residual norm, attack residual and
        noncentrality from this single projection.
        """

    # -- dense-only accessors ------------------------------------------
    @property
    def q(self) -> np.ndarray:
        """Orthonormal QR factor — dense backend only."""
        raise EstimationError(
            f"the {self.name!r} backend is Q-less and does not materialize "
            "the Q/R factors; use backend='dense' for explicit factors"
        )

    @property
    def r(self) -> np.ndarray:
        """Triangular QR factor — dense backend only."""
        raise EstimationError(
            f"the {self.name!r} backend is Q-less and does not materialize "
            "the Q/R factors; use backend='dense' for explicit factors"
        )


class DenseQRBackend(FactorizationBackend):
    """Dense thin-QR factorisation — the library's original arithmetic.

    Stores ``Q`` (``(M, n)``) and ``R`` (``(n, n)``) of ``W^{1/2}H = QR``.
    Every method reproduces the pre-backend ``LinearModel`` expressions
    verbatim, so results are bit-identical to the golden-pinned baseline.
    """

    name = BACKEND_DENSE

    def __init__(self, matrix: MatrixLike, sqrt_weights: np.ndarray) -> None:
        if scipy.sparse.issparse(matrix):
            H = np.asarray(matrix.toarray(), dtype=float)
        else:
            H = np.asarray(matrix, dtype=float)
        self._H = H
        weighted_H = sqrt_weights[:, None] * H
        # SVD-based rank test: an unpivoted QR diagonal can look healthy on
        # nearly singular (Kahan-type) matrices, so the observability guard
        # keeps the singular-value criterion the estimator always used.
        if not is_full_column_rank(weighted_H):
            raise EstimationError(_RANK_DEFICIENT_MSG)
        self._q, self._r = np.linalg.qr(weighted_H)

    @property
    def n_measurements(self) -> int:
        return self._H.shape[0]

    @property
    def n_states(self) -> int:
        return self._H.shape[1]

    @property
    def q(self) -> np.ndarray:
        return self._q

    @property
    def r(self) -> np.ndarray:
        return self._r

    def apply_states(self, states: np.ndarray) -> np.ndarray:
        if states.ndim == 1:
            return self._H @ states
        return states @ self._H.T

    def estimate(
        self, weighted: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        coeffs = weighted @ self._q                 # (B, n)
        theta: np.ndarray = scipy.linalg.solve_triangular(self._r, coeffs.T).T
        fitted = theta @ self._H.T
        # The norm uses the projector identity ‖W^{1/2}(z − Hθ̂)‖ =
        # ‖(I − QQᵀ)W^{1/2}z‖ with project_weighted()'s arithmetic, so it
        # equals LinearModel.residual_norms() and every alarm decision in
        # the library agrees bit-for-bit.
        residual_norms = np.linalg.norm(weighted - coeffs @ self._q.T, axis=1)
        return theta, residual_norms, fitted

    def project_weighted(self, weighted: np.ndarray) -> np.ndarray:
        return (weighted @ self._q) @ self._q.T


class SparseQlessBackend(FactorizationBackend):
    """Q-less factorisation via a dense Cholesky of the gain matrix.

    Keeps ``H`` and ``W^{1/2}H`` in CSR, forms ``G = HᵀWH`` from the
    sparse product, and factorises it once as ``G = LLᵀ`` with a dense
    Cholesky.  Every query goes through ``L``: no ``(M, n)`` dense array
    is ever formed.  Memory is ``O(nnz(H) + n²)`` versus the dense
    backend's ``O(M·n)`` for ``Q`` alone.

    The observability guard comes from the factorisation itself: a ``G``
    that is not positive definite aborts the Cholesky, and a numerically
    rank-deficient one surfaces as a vanishing pivot ``diag(L)²``
    (relative tolerance :data:`SPARSE_RANK_RTOL`), replacing the
    dense-SVD check that would otherwise dominate the sparse path's cost.
    Both raise the dense backend's
    :class:`~repro.exceptions.EstimationError`.
    """

    name = BACKEND_SPARSE

    def __init__(self, matrix: MatrixLike, sqrt_weights: np.ndarray) -> None:
        if scipy.sparse.issparse(matrix):
            H = matrix.tocsr()
            if H.dtype != np.float64:
                H = H.astype(np.float64)
        else:
            H = scipy.sparse.csr_matrix(np.asarray(matrix, dtype=float))
        self._H = H
        self._Hw = H.multiply(sqrt_weights[:, None]).tocsr()
        gain = (self._Hw.T @ self._Hw).toarray()
        try:
            chol = scipy.linalg.cholesky(
                gain, lower=True, overwrite_a=True, check_finite=False
            )
        except np.linalg.LinAlgError as exc:
            # A leading minor that is not positive: G is singular (or
            # indefinite by rounding) — the SVD guard firing, sparse side.
            raise EstimationError(_RANK_DEFICIENT_MSG) from exc
        pivots = np.diag(chol) ** 2
        if pivots.size == 0 or not np.all(pivots > pivots.max() * SPARSE_RANK_RTOL):
            raise EstimationError(_RANK_DEFICIENT_MSG)
        chol.flags.writeable = False
        self._chol = chol

    @property
    def n_measurements(self) -> int:
        return int(self._H.shape[0])

    @property
    def n_states(self) -> int:
        return int(self._H.shape[1])

    def apply_states(self, states: np.ndarray) -> np.ndarray:
        if states.ndim == 1:
            return np.asarray(self._H @ states)
        return np.asarray((self._H @ states.T).T)

    def _solve_gain(self, weighted: np.ndarray) -> np.ndarray:
        """``G⁻¹HᵀW^{1/2}·`` for weighted rows: states as ``(n, B)``."""
        rhs = np.asarray(self._Hw.T @ weighted.T)
        solved: np.ndarray = scipy.linalg.cho_solve(
            (self._chol, True), rhs, overwrite_b=True, check_finite=False
        )
        return solved

    def estimate(
        self, weighted: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        theta_t = self._solve_gain(weighted)        # (n, B)
        fitted_weighted = np.asarray((self._Hw @ theta_t).T)
        # Direct form ‖W^{1/2}(z − Hθ̂)‖ — no projector, no Q — with
        # project_weighted()'s arithmetic.
        residual_norms = np.linalg.norm(weighted - fitted_weighted, axis=1)
        fitted = np.asarray((self._H @ theta_t).T)
        return theta_t.T, residual_norms, fitted

    def project_weighted(self, weighted: np.ndarray) -> np.ndarray:
        return np.asarray((self._Hw @ self._solve_gain(weighted)).T)


def build_backend(
    matrix: MatrixLike, sqrt_weights: np.ndarray, backend: str
) -> FactorizationBackend:
    """Factorise ``matrix`` with the *concrete* backend ``backend``.

    ``backend`` must already be resolved (``"dense"`` or ``"sparse"``);
    pass knob values through :func:`resolve_backend` first.
    """
    if backend == BACKEND_DENSE:
        return DenseQRBackend(matrix, sqrt_weights)
    if backend == BACKEND_SPARSE:
        return SparseQlessBackend(matrix, sqrt_weights)
    raise ConfigurationError(
        f"unresolved factorization backend {backend!r}; "
        f"expected {BACKEND_DENSE!r} or {BACKEND_SPARSE!r}"
    )


__all__ = [
    "BACKEND_AUTO",
    "BACKEND_CHOICES",
    "BACKEND_DENSE",
    "BACKEND_SPARSE",
    "SPARSE_RANK_RTOL",
    "FactorizationBackend",
    "DenseQRBackend",
    "SparseQlessBackend",
    "available_backends",
    "build_backend",
    "resolve_backend",
]
