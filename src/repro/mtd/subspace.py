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

The largest-angle kernel
------------------------
:func:`subspace_angle` of two arrays follows MATLAB ``subspace``:
orthonormal bases ``Q_a`` and ``Q_b`` (thin QR here), with ``Q_b`` the
narrower one, then the residual ``E = Q_b − Q_a(Q_aᵀQ_b)`` of projecting
``Q_b`` onto ``Col(Q_a)``.  The Björck–Golub sine form gives
``sin²γ = λ_max(EᵀE)`` from a small ``k × k`` Gram matrix, and stays
accurate at small angles; above ``π/4`` the kernel switches to the cosine
``σ_min(Q_aᵀQ_b)``, which is the accurate side there.  No SVD of an
``(M, k)`` matrix is taken.

The thin QR does not pivot, so it cannot drop a dependent column the way
an SVD basis (:func:`scipy.linalg.orth`) would: both inputs must have full
column rank, as every measurement matrix of an observable network does.
A rank-deficient input raises :class:`ValueError` instead of being
measured against a spurious direction.

:func:`principal_angles` and :func:`smallest_principal_angle` keep
scipy's rank-revealing full spectrum, because Proposition 1 counts its
zeros.

The attacker's side of the angle is usually fixed while the other side
varies: one ``H_t`` is priced against every perturbation of a scenario or
of a design search.  :func:`subspace_angle` therefore also accepts its
first argument as a :class:`FactoredMatrix`, which holds ``H_t`` read-only
and computes its thin QR basis (rank test included) on first use and keeps
it.  The results are bit-identical to passing the array, which takes the
same QR in every call.

The rank-k form
---------------
A D-FACTS perturbation of ``k`` branches changes ``H_t`` by a rank-``k``
matrix, ``H′ = H_t + U diag(d) Vᵀ``: ``U`` holds the measurement rows each
branch's susceptance enters, ``V`` the branch's columns of the reduced
incidence and ``d`` the susceptance changes.  Every ``u ∈ Col(H_t)`` is
``u = H_t b`` and leaves ``Col(H′)`` by ``(I − P′)H_t b = −(I − P′)U diag(d)
Vᵀb``, so with ``K = Uᵀ(I − P′)U`` and ``H_tᵀH_t = L_tL_tᵀ``

.. math::  \\sin^2 γ = λ_{max}(X K Xᵀ), \\qquad X = R\\,\\mathrm{diag}(d),

where ``R`` is the triangular factor of ``L_t⁻¹V`` (``RᵀR = Vᵀ(H_tᵀH_t)⁻¹V``,
fixed per ``H_t``).  :func:`subspace_angle` of a :class:`RankKChange`
reads the angle from these ``k × k`` matrices; the detector prices its
attacks from the same ``K``
(:meth:`~repro.estimation.bdd.BadDataDetector.detection_probabilities`),
so one perturbation forms ``K`` once, and its angle needs neither a dense
``H′`` nor an ``n × n`` matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from repro.estimation.linear_model import ResidualGram
from repro.utils.linalg import orthonormal_basis


def principal_angles(matrix_a: np.ndarray, matrix_b: np.ndarray) -> np.ndarray:
    """All principal angles between ``Col(A)`` and ``Col(B)``, ascending.

    Uses the Björck–Golub SVD algorithm (via
    :func:`scipy.linalg.subspace_angles`).  The returned array has
    ``min(rank(A), rank(B))`` entries in ``[0, π/2]`` sorted from the
    smallest to the largest angle.
    """
    A, B = _matrix_pair(matrix_a, matrix_b)
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


class FactoredMatrix:
    """A read-only full-column-rank matrix whose thin-QR basis is kept.

    Pass it as the first argument of :func:`subspace_angle` when one side
    of the angle is priced against many others: the orthonormal factor
    ``Q`` of the thin QR is computed on the first read of :attr:`basis`,
    through the same rank test as the array form, and reused by every
    later call.  Nothing is factored at construction, so a wrapper that is
    never measured costs nothing.

    Parameters
    ----------
    matrix:
        The ``(M, n)`` matrix.  It is held through a read-only view, not
        copied; the wrapped array must not be written afterwards.

    Raises
    ------
    ValueError
        At construction if ``matrix`` is not 2-D; on first use of
        :attr:`basis` if it is rank deficient (again on every later use).
    """

    def __init__(self, matrix: np.ndarray) -> None:
        view = np.asarray(matrix, dtype=float).view()
        if view.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {view.shape}")
        view.flags.writeable = False
        self._matrix = view

    @property
    def matrix(self) -> np.ndarray:
        """The wrapped matrix, read-only."""
        return self._matrix

    @cached_property
    def basis(self) -> np.ndarray:
        """The thin-QR factor ``Q`` of :attr:`matrix`, read-only, computed once."""
        basis = _orthonormal_factor(self._matrix)
        basis.flags.writeable = False
        return basis


@dataclass(frozen=True, eq=False)
class RankKChange:
    """A rank-``k`` change ``H′ = H + U diag(d) Vᵀ`` of ``H``, in ``k × k`` terms.

    The input of :func:`subspace_angle`'s rank-k form (see the module
    docstring); it builds neither matrix.

    Attributes
    ----------
    residual_gram:
        ``K = Uᵀ(I − P′)U``, shape ``(k, k)``, with ``P′`` the projector
        onto ``Col(H′)``: the
        :class:`~repro.estimation.linear_model.ResidualGram` of ``U``
        against the model that factors ``H′``, formed on first read.
    angle_factor:
        The triangular ``R`` with ``RᵀR = Vᵀ(HᵀH)⁻¹V``, shape ``(r, k)``
        with ``r = min(n, k)``; it depends on ``H`` and ``V`` only.
    scales:
        The change's ``d``, shape ``(k,)``.
    """

    residual_gram: ResidualGram
    angle_factor: np.ndarray
    scales: np.ndarray


def subspace_angle(
    matrix_a: np.ndarray | FactoredMatrix | RankKChange,
    matrix_b: np.ndarray | None = None,
) -> float:
    """The operational subspace-separation metric ``γ(A, B)`` in radians.

    This is the quantity used as the MTD design criterion throughout the
    library.  It equals the *largest* principal angle between the two column
    spaces — the value MATLAB's ``subspace`` function returns and the one
    the paper's numerical results are based on (see the module docstring's
    reproduction note).  It is zero exactly when ``Col(B) ⊆ Col(A)`` (or
    vice versa), i.e. when the perturbation leaves every attack stealthy,
    and grows towards ``π/2`` as the perturbation pushes the measurement
    matrix away from the attacker's knowledge.

    Parameters
    ----------
    matrix_a:
        The attacker's matrix ``H``, shape ``(M, n)``, full column rank, as
        an array or as a :class:`FactoredMatrix` that keeps its basis
        across calls.  Either form gives bit-identical results.  Or, alone,
        a :class:`RankKChange` of ``H``: the angle between ``H`` and its
        changed matrix, from ``k × k`` matrices (the module docstring's
        rank-k form).
    matrix_b:
        The post-perturbation matrix ``H'`` as an ``(M, n')`` array; omitted
        with a :class:`RankKChange`.

    Raises
    ------
    ValueError
        If the matrices are not 2-D with the same number of rows, or one of
        them is rank deficient.
    TypeError
        If a :class:`RankKChange` comes with a second matrix, or an array
        without one.
    """
    if isinstance(matrix_a, RankKChange):
        if matrix_b is not None:
            raise TypeError("subspace_angle takes a RankKChange alone")
        scaled = matrix_a.angle_factor * matrix_a.scales
        return _angle_from_residual_gram(scaled @ matrix_a.residual_gram.matrix @ scaled.T)
    if matrix_b is None:
        raise TypeError("subspace_angle needs a second matrix")
    side_a = matrix_a if isinstance(matrix_a, FactoredMatrix) else FactoredMatrix(matrix_a)
    _, B = _matrix_pair(side_a.matrix, matrix_b)
    return _largest_angle_of_bases(side_a.basis, _orthonormal_factor(B))


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


def _matrix_pair(matrix_a: np.ndarray, matrix_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two 2-D float matrices over the same ambient space."""
    A = np.asarray(matrix_a, dtype=float)
    B = np.asarray(matrix_b, dtype=float)
    if A.ndim != 2 or B.ndim != 2:
        raise ValueError("principal angles need two 2-D matrices")
    if A.shape[0] != B.shape[0]:
        raise ValueError(
            f"matrices must live in the same ambient space, got {A.shape[0]} and {B.shape[0]} rows"
        )
    return A, B


def _orthonormal_factor(matrix: np.ndarray) -> np.ndarray:
    """The thin-QR factor ``Q`` of a full-column-rank matrix.

    The rank test is the reciprocal condition estimate of ``R`` against
    the cut-off :func:`scipy.linalg.orth` applies to singular values,
    ``max(M, k)·ε``.
    """
    q, r = np.linalg.qr(matrix)
    rcond, _ = scipy.linalg.lapack.dtrcon(r)
    if not rcond > max(matrix.shape) * np.finfo(float).eps:
        raise ValueError(
            f"principal angles need a full-column-rank matrix; the {matrix.shape} "
            f"input has reciprocal condition {rcond:.3g}"
        )
    return q


def _largest_angle_of_bases(basis_a: np.ndarray, basis_b: np.ndarray) -> float:
    """The largest principal angle between two orthonormal bases."""
    if basis_a.shape[1] < basis_b.shape[1]:
        basis_a, basis_b = basis_b, basis_a
    cross = basis_a.T @ basis_b
    residual = basis_b - basis_a @ cross
    angle = _angle_from_residual_gram(residual.T @ residual)
    if angle > np.pi / 4:
        cosine = float(scipy.linalg.svdvals(cross).min())
        angle = float(np.arccos(min(cosine, 1.0)))
    return angle


def _angle_from_residual_gram(gram: np.ndarray) -> float:
    """``γ = arcsin √λ_max(S)`` for the residual Gram matrix ``S``."""
    sine_squared = float(np.linalg.eigvalsh(gram)[-1]) if gram.size else 0.0
    return float(np.arcsin(min(np.sqrt(max(sine_squared, 0.0)), 1.0)))


__all__ = [
    "FactoredMatrix",
    "RankKChange",
    "principal_angles",
    "smallest_principal_angle",
    "subspace_angle",
    "is_orthogonal_complement",
]
