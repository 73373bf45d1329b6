"""Principal angles between measurement-matrix column spaces.

The paper's central heuristic (Section V-C) is that an MTD perturbation is
more effective the larger the *smallest principal angle* (SPA)

.. math::  γ(H, H') = \\arccos \\max_{u ∈ Col(H), v ∈ Col(H'), ‖u‖=‖v‖=1} |uᵀv|

between the column spaces of the pre- and post-perturbation measurement
matrices.  ``γ = 0`` means the spaces share a direction (some attacks stay
perfectly stealthy); ``γ = π/2`` means the spaces are orthogonal (Theorem 1:
no stealthy attacks survive).

Reproduction note
-----------------
When the D-FACTS devices cover only a subset of the branches — the paper's
IEEE 14-bus setting has 6 devices on 20 lines — the two column spaces always
share non-trivial directions: any state bias that is constant across the two
endpoints of every perturbed line produces identical measurements before and
after the perturbation.  The *literal* smallest principal angle is therefore
identically zero for every realisable perturbation, which cannot be the
quantity the paper sweeps between 0 and 0.45 rad.  The paper's simulations
are built on MATLAB, whose ``subspace(A, B)`` function returns the *largest*
principal angle; that quantity reproduces the reported ranges and trends
exactly.  This library therefore uses the largest principal angle as the
operational design metric :func:`subspace_angle` (and in everything named
"SPA" downstream), while also exposing the literal
:func:`smallest_principal_angle` and the full spectrum
:func:`principal_angles` for analysis.  The theoretical results
(Proposition 1, Theorem 1) are unaffected: they are statements about column
space membership and orthogonality, not about a specific angle.  The
dimension of ``Col(H) ∩ Col(H')`` — the attacks that stay stealthy under
Proposition 1 — is the number of (numerically) zero entries of
:func:`principal_angles`.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.utils.linalg import orthonormal_basis


def principal_angles(matrix_a: np.ndarray, matrix_b: np.ndarray) -> np.ndarray:
    """All principal angles between ``Col(A)`` and ``Col(B)``, ascending.

    Uses the Björck–Golub SVD algorithm (via
    :func:`scipy.linalg.subspace_angles`).  The returned array has
    ``min(rank(A), rank(B))`` entries in ``[0, π/2]`` sorted from the
    smallest to the largest angle.
    """
    A = np.asarray(matrix_a, dtype=float)
    B = np.asarray(matrix_b, dtype=float)
    if A.ndim != 2 or B.ndim != 2:
        raise ValueError("principal_angles expects two 2-D matrices")
    if A.shape[0] != B.shape[0]:
        raise ValueError(
            f"matrices must live in the same ambient space, got {A.shape[0]} and {B.shape[0]} rows"
        )
    angles = scipy.linalg.subspace_angles(A, B)
    # scipy returns the angles in descending order; we standardise on
    # ascending so that index 0 is always the smallest principal angle.
    return np.sort(angles)


def smallest_principal_angle(matrix_a: np.ndarray, matrix_b: np.ndarray) -> float:
    """The SPA ``γ(A, B)`` in radians (Definition V.1 of the paper)."""
    angles = principal_angles(matrix_a, matrix_b)
    if angles.size == 0:
        return 0.0
    return float(angles[0])


def largest_principal_angle(matrix_a: np.ndarray, matrix_b: np.ndarray) -> float:
    """The largest principal angle, a complementary separation measure."""
    angles = principal_angles(matrix_a, matrix_b)
    if angles.size == 0:
        return 0.0
    return float(angles[-1])


def subspace_angle(matrix_a: np.ndarray, matrix_b: np.ndarray) -> float:
    """The operational subspace-separation metric ``γ(A, B)`` in radians.

    This is the quantity used as the MTD design criterion throughout the
    library.  It equals the *largest* principal angle between the two column
    spaces — the value MATLAB's ``subspace`` function returns and the one
    the paper's numerical results are based on (see the module docstring's
    reproduction note).  It is zero exactly when ``Col(B) ⊆ Col(A)`` (or
    vice versa), i.e. when the perturbation leaves every attack stealthy,
    and grows towards ``π/2`` as the perturbation pushes the measurement
    matrix away from the attacker's knowledge.
    """
    return largest_principal_angle(matrix_a, matrix_b)


def is_orthogonal_complement(
    matrix_a: np.ndarray, matrix_b: np.ndarray, tol: float = 1e-8
) -> bool:
    """Check the Theorem 1 condition: is ``Col(B)`` orthogonal to ``Col(A)``?

    Note that true orthogonal *complements* additionally require the two
    subspace dimensions to add up to the ambient dimension; for the MTD
    analysis only mutual orthogonality matters (every attack ``a ∈ Col(A)``
    then has ``H'ᵀa = 0``), so that is what this predicate tests.
    """
    basis_a = orthonormal_basis(matrix_a)
    basis_b = orthonormal_basis(matrix_b)
    if basis_a.size == 0 or basis_b.size == 0:
        return True
    cross = basis_a.T @ basis_b
    return bool(np.max(np.abs(cross)) <= tol)


__all__ = [
    "principal_angles",
    "smallest_principal_angle",
    "largest_principal_angle",
    "subspace_angle",
    "is_orthogonal_complement",
]
