"""Linear-algebra helpers shared by the estimation and MTD subpackages.

The moving-target-defense analysis in the paper is, at its core, a statement
about the geometry of the column spaces of measurement matrices.  The helpers
here provide numerically careful building blocks: orthonormal bases, rank
tests with explicit tolerances and column-space membership.  The weighted
residual projector ``I − Γ`` of state estimation lives in the factorized
:class:`~repro.estimation.linear_model.LinearModel`.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


def orthonormal_basis(matrix: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Return an orthonormal basis of ``Col(matrix)``.

    Uses the SVD (as :func:`scipy.linalg.orth`) so that near-rank-deficient
    inputs are handled gracefully.

    Parameters
    ----------
    matrix:
        Two-dimensional array whose column space is wanted.
    tol:
        Optional singular-value cut-off.  Defaults to scipy's machine-epsilon
        based heuristic.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {matrix.shape}")
    if tol is None:
        return scipy.linalg.orth(matrix)
    return scipy.linalg.orth(matrix, rcond=tol)


def is_full_column_rank(matrix: np.ndarray, tol: float | None = None) -> bool:
    """Check whether ``matrix`` has full column rank."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {matrix.shape}")
    rank = np.linalg.matrix_rank(matrix, tol=tol)
    return int(rank) == matrix.shape[1]


def vector_in_column_space(matrix: np.ndarray, vector: np.ndarray, tol: float = 1e-8) -> bool:
    """Test whether ``vector`` lies in ``Col(matrix)``.

    Implements the rank test of the paper's Proposition 1:
    ``rank(H') == rank([H' | v])``.  The comparison is made on the relative
    residual of the least-squares projection, which is numerically more
    stable than comparing integer ranks for nearly dependent columns.
    """
    H = np.asarray(matrix, dtype=float)
    v = np.asarray(vector, dtype=float).ravel()
    if H.shape[0] != v.shape[0]:
        raise ValueError(
            f"vector length {v.shape[0]} does not match matrix row count {H.shape[0]}"
        )
    norm_v = np.linalg.norm(v)
    if norm_v < tol:
        return True
    coeffs, *_ = np.linalg.lstsq(H, v, rcond=None)
    residual = v - H @ coeffs
    return float(np.linalg.norm(residual)) <= tol * max(1.0, norm_v)


__all__ = [
    "orthonormal_basis",
    "is_full_column_rank",
    "vector_in_column_space",
]
