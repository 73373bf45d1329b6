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
matrix, ``H′ = H_t + UΔA_Dᵀ``: ``U`` holds the measurement rows each
branch's susceptance enters, ``A_D`` the branch's columns of the reduced
incidence and ``Δ = diag(Δb)`` the susceptance changes.  Every
``u = H_t b ∈ Col(H_t)`` leaves ``Col(H′)`` by ``(I − P′)H_t b =
−(I − P′)UΔA_Dᵀb``, so both the angle and the detector's noncentralities
are read from ``K = Uᵀ(I − P′)U``.  ``K`` itself needs no ``H′``.  Split
``U = H_tB + E`` with ``B = G⁻¹H_tᵀU`` (``G = H_tᵀH_t = L_tL_tᵀ``) and
``E = (I − P_t)U``.  Then ``H′`` spans ``Col(H_t + EA⁻¹ΔA_Dᵀ)``, with
``A = I + ΔV`` and ``V = A_DᵀB``, and ``(I − P′)U = (I − P′)EA⁻¹``.  Inside
``Col(H_t) ⊕ Col(E)`` a Woodbury step gives

.. math::  K = A^{-T} R_E^T (I + YY^T)^{-1} R_E A^{-1},
           \\qquad Φ = R_E A^{-1} Δ, \\qquad Y = Φ R^T,

where ``R_EᵀR_E = K₀ = Uᵀ(I − P_t)U`` (a pivoted Cholesky of rank
``k − d``, ``d = dim(Col H_t ∩ Col U)``) and ``R`` is the triangular factor
of ``L_t⁻¹A_D`` (``RᵀR = T = A_DᵀG⁻¹A_D``).  ``R``, ``V`` and ``R_E`` are
fixed per ``H_t``; only ``Δ`` varies.  With ``L_cL_cᵀ = I + YYᵀ``:

* an attack ``a = H_t b`` has noncentrality ``λ = σ⁻²‖L_c⁻¹Φg‖²`` with
  ``g = A_Dᵀb``, its state bias's differences across the branches;
* ``sin²γ = λ_max(XKXᵀ)`` with ``X = RΔ``, and ``XKXᵀ = Yᵀ(I + YYᵀ)⁻¹Y``
  has eigenvalues ``s²/(1 + s²)`` for the singular values ``s`` of ``Y``,
  so ``γ = arctan √λ_max(YYᵀ)``.

With ``d = 0`` the same ``K`` reads ``K⁻¹ = ΔTΔ + A·K₀⁻¹·Aᵀ``.  ``A`` is
singular only at ``γ = π/2``.  :func:`subspace_angle` of a
:class:`RankKPerturbation` reads the angle from these ``k × k`` matrices,
and the detector prices its attacks from the same ``Φ`` and ``YYᵀ``
(:meth:`~repro.estimation.bdd.BadDataDetector.detection_probabilities`):
one perturbation forms them once, and neither reader assembles ``H′`` or
factors anything of size ``n``.  They are formed in one pass of direct
calls: LAPACK ``dgesv`` on the transposed view ``Aᵀ``, numpy's gemm for
``Y`` and BLAS ``dsyrk`` for the lower triangle of ``YYᵀ``, the only
triangle that LAPACK ``dpotrf`` (for ``L_c``) and
:func:`numpy.linalg.eigvalsh` (for ``λ_max``) read.  ``r = k − d = 0`` is
handled before any call, since BLAS reports an empty operand as an
illegal argument without raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg

from repro.utils.linalg import orthonormal_basis

if TYPE_CHECKING:
    from repro.mtd.effectiveness import AttackerSide


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
class RankKPerturbation:
    """A D-FACTS perturbation ``Δb`` of an attacker's ``H_t``, in ``k × k`` terms.

    Both readers of one perturbation take it: the detector's
    :meth:`~repro.estimation.bdd.BadDataDetector.detection_probabilities`
    and :func:`subspace_angle`.  Whichever reads it first forms ``Φ`` and
    ``YYᵀ`` (the module docstring's rank-k form), and both keep them; if
    neither reads it, nothing is formed.  It builds neither ``H′`` nor any
    ``n × n`` matrix.

    Attributes
    ----------
    side:
        The attacker's :class:`~repro.mtd.effectiveness.AttackerSide`,
        whose ``angle_factor`` ``R``, ``coupling`` ``V`` and
        ``residual_factor`` ``R_E`` it reads.
    scales:
        ``Δb``, the susceptance changes of the side's ``k`` D-FACTS
        branches, shape ``(k,)``.
    """

    side: AttackerSide
    scales: np.ndarray

    @cached_property
    def _blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """``Φ = R_E A⁻¹Δ``, shape ``(r, k)``, and the lower triangle of
        ``YYᵀ``, shape ``(r, r)`` (the upper one is zero), from the module
        docstring's one pass of direct calls.  ``Y`` stays on numpy's gemm:
        scipy's BLAS, a different OpenBLAS build, rounds ``ΦRᵀ`` differently
        at synthetic1354's ``k = 731``.  A singular ``A`` raises
        :class:`numpy.linalg.LinAlgError`.
        """
        side = self.side
        scales = self.scales
        k = scales.shape[0]
        residual_factor = side.residual_factor
        if residual_factor.shape[0] == 0:
            # r = 0: BLAS would report the empty operands as illegal arguments.
            return np.zeros((0, k)), np.zeros((0, 0))
        a = side.coupling * scales[:, None]
        a.flat[:: k + 1] += 1.0
        _, _, solved, info = scipy.linalg.lapack.dgesv(a.T, residual_factor.T, overwrite_a=True)
        if info > 0:
            raise np.linalg.LinAlgError("Singular matrix")
        phi = solved.T * scales
        y = phi @ side.angle_factor.T
        return phi, scipy.linalg.blas.dsyrk(1.0, y.T, trans=1, lower=1)

    @cached_property
    def residual_map(self) -> np.ndarray:
        """``L_c⁻¹Φ``, shape ``(r, k)``, with ``L_cL_cᵀ = I + YYᵀ``.

        An attack ``a = H_t b`` leaves the post-perturbation detector the
        residual norm ``‖L_c⁻¹Φg‖`` (unweighted), ``g = A_Dᵀb``.  The two
        ``r × r`` steps call LAPACK ``dpotrf`` and ``dtrtrs`` directly, the
        routines :func:`scipy.linalg.cholesky` and
        :func:`scipy.linalg.solve_triangular` reach, without their argument
        checks; a failed pivot raises the same
        :class:`numpy.linalg.LinAlgError`.  With ``r = 0`` (every D-FACTS
        column in ``Col(H_t)``) the empty ``Φ`` is the map: LAPACK rejects
        an empty system.
        """
        phi, gram = self._blocks
        if phi.size == 0:
            return phi
        chol, info = scipy.linalg.lapack.dpotrf(
            gram + np.eye(gram.shape[0]), lower=True, overwrite_a=True
        )
        if info > 0:
            raise np.linalg.LinAlgError(
                f"{info}-th leading minor of the array is not positive definite"
            )
        whitened, info = scipy.linalg.lapack.dtrtrs(chol, phi, lower=True)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"singular matrix: resolution failed at diagonal {info - 1}"
            )
        return whitened


def subspace_angle(
    matrix_a: np.ndarray | FactoredMatrix | RankKPerturbation,
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
        a :class:`RankKPerturbation` of ``H``: the angle between ``H`` and
        its perturbed matrix, ``arctan √λ_max(YYᵀ)`` from ``k × k``
        matrices (the module docstring's rank-k form).
    matrix_b:
        The post-perturbation matrix ``H'`` as an ``(M, n')`` array; omitted
        with a :class:`RankKPerturbation`.

    Raises
    ------
    ValueError
        If the matrices are not 2-D with the same number of rows, or one of
        them is rank deficient.
    TypeError
        If a :class:`RankKPerturbation` comes with a second matrix, or an
        array without one.
    """
    if isinstance(matrix_a, RankKPerturbation):
        if matrix_b is not None:
            raise TypeError("subspace_angle takes a RankKPerturbation alone")
        _, gram = matrix_a._blocks
        tangent_squared = float(np.linalg.eigvalsh(gram)[-1]) if gram.size else 0.0
        return float(np.arctan(np.sqrt(max(tangent_squared, 0.0))))
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
    "RankKPerturbation",
    "principal_angles",
    "smallest_principal_angle",
    "subspace_angle",
    "is_orthogonal_complement",
]
