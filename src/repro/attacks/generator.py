"""Random ensembles of stealthy FDI attacks.

The paper's effectiveness metric ``η'(δ)`` is estimated over an ensemble of
attack vectors ``a = Hc`` with ``c`` drawn from a Gaussian distribution and
the magnitude scaled to a fixed fraction of the legitimate measurements.
This module builds such ensembles reproducibly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse

from repro.exceptions import AttackConstructionError
from repro.attacks.scaling import (
    DEFAULT_MEASUREMENT_RATIO,
    measurement_ratio_factors,
)
from repro.utils.rng import as_generator


@dataclass(frozen=True)
class AttackEnsemble:
    """A collection of stealthy attacks crafted from one measurement matrix.

    The ensemble keeps each attack unscaled, with the factor that scales it,
    and forms the scaled :attr:`attacks` on their first read.  A reader of
    the state biases alone, such as the rank-``k`` pricing of a D-FACTS
    perturbation, never forms that ``(n_attacks, M)`` array; once formed,
    it is held beside the unscaled one.

    Attributes
    ----------
    unscaled_attacks:
        Array of shape ``(n_attacks, M)``; row ``i`` is ``H c₀ᵢ`` for the
        drawn bias ``c₀ᵢ``.
    scale_factors:
        Array of shape ``(n_attacks,)``; the factor that brings row ``i``
        to the target ratio.
    state_biases:
        Array of shape ``(n_attacks, N−1)``; the scaled ``c`` vectors.
    target_ratio:
        The ``‖a‖₁/‖z‖₁`` ratio the attacks were scaled to.
    """

    unscaled_attacks: np.ndarray
    scale_factors: np.ndarray
    state_biases: np.ndarray
    target_ratio: float

    @cached_property
    def attacks(self) -> np.ndarray:
        """Array of shape ``(n_attacks, M)``; each row is one attack vector
        ``a = Hc``, formed on first read."""
        attacks: np.ndarray = self.unscaled_attacks * self.scale_factors[:, None]
        return attacks

    def __len__(self) -> int:
        return self.state_biases.shape[0]

    def __iter__(self):
        return iter(self.attacks)

    def subset(self, indices: np.ndarray | list[int]) -> "AttackEnsemble":
        """Return a new ensemble restricted to ``indices``."""
        idx = np.asarray(indices, dtype=int)
        return AttackEnsemble(
            unscaled_attacks=self.unscaled_attacks[idx],
            scale_factors=self.scale_factors[idx],
            state_biases=self.state_biases[idx],
            target_ratio=self.target_ratio,
        )


def generate_attack_ensemble(
    measurement_matrix: np.ndarray | scipy.sparse.spmatrix,
    reference_measurements: np.ndarray,
    n_attacks: int = 1000,
    target_ratio: float = DEFAULT_MEASUREMENT_RATIO,
    seed: int | np.random.Generator | None = 0,
) -> AttackEnsemble:
    """Draw ``n_attacks`` random stealthy attacks ``a = Hc``.

    Parameters
    ----------
    measurement_matrix:
        The attacker's (pre-perturbation) measurement matrix ``H``, dense
        or any scipy sparse matrix; a sparse ``H`` forms the attacks with
        one sparse product (a few thousand nonzeros at 300 buses, against
        a dense ``(M, n)`` gemm).
    reference_measurements:
        A legitimate measurement vector ``z`` used for magnitude scaling.
    n_attacks:
        Ensemble size (the paper uses 1000).
    target_ratio:
        Desired ``‖a‖₁/‖z‖₁`` (the paper uses ≈0.08).
    seed:
        Seed or generator for reproducibility.

    Returns
    -------
    AttackEnsemble
    """
    if n_attacks <= 0:
        raise AttackConstructionError(f"n_attacks must be positive, got {n_attacks}")
    if scipy.sparse.issparse(measurement_matrix):
        H = measurement_matrix
    else:
        H = np.asarray(measurement_matrix, dtype=float)
    z = np.asarray(reference_measurements, dtype=float).ravel()
    if H.ndim != 2:
        raise AttackConstructionError(f"expected a 2-D measurement matrix, got shape {H.shape}")
    if z.shape[0] != H.shape[0]:
        raise AttackConstructionError(
            f"reference measurement length {z.shape[0]} does not match matrix rows {H.shape[0]}"
        )
    rng = as_generator(seed)
    # One (n_attacks, n) block takes the same normals, in the same order,
    # as one standard_normal(n) draw per attack, and one product with H
    # forms every raw attack a = Hc.
    biases = rng.standard_normal((n_attacks, H.shape[1]))
    raw = biases @ H.T
    # Each attack and its bias get the same factor, so a = Hc still holds.
    factors = measurement_ratio_factors(raw, z, target_ratio)
    biases *= factors[:, None]
    return AttackEnsemble(
        unscaled_attacks=raw,
        scale_factors=factors,
        state_biases=biases,
        target_ratio=float(target_ratio),
    )


__all__ = ["AttackEnsemble", "generate_attack_ensemble"]
