"""Attack magnitude scaling.

The paper scales random attacks so that ``‖a‖₁ / ‖z‖₁ ≈ 0.08``, i.e. the
injected corruption is small relative to the legitimate measurements, which
makes the resulting detection-probability statistics meaningful (an
arbitrarily large attack is trivially detectable after any perturbation).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import AttackConstructionError

#: The relative attack magnitude used in the paper's Monte-Carlo study.
DEFAULT_MEASUREMENT_RATIO: float = 0.08


def scale_attack_to_measurement_ratio(
    attack: np.ndarray,
    measurements: np.ndarray,
    target_ratio: float = DEFAULT_MEASUREMENT_RATIO,
) -> np.ndarray:
    """Rescale ``attack`` so that ``‖a‖₁ / ‖z‖₁`` equals ``target_ratio``.

    Parameters
    ----------
    attack:
        The unscaled attack vector ``a``, or a ``(B, M)`` stack of attacks
        each scaled on its own.
    measurements:
        The legitimate measurement vector ``z`` the ratio is taken against.
    target_ratio:
        Desired value of ``‖a‖₁ / ‖z‖₁`` (default 0.08 as in the paper).

    Returns
    -------
    numpy.ndarray
        The rescaled attack (or stack, one ratio per row).  Scaling
        preserves each attack's direction, so a stealthy attack stays
        stealthy.
    """
    a = np.asarray(attack, dtype=float)
    if a.ndim != 2:
        a = a.ravel()
    z = np.asarray(measurements, dtype=float).ravel()
    if a.shape[-1] != z.shape[0]:
        raise AttackConstructionError(
            f"attack length {a.shape[-1]} does not match measurement count {z.shape[0]}"
        )
    if target_ratio <= 0:
        raise AttackConstructionError(
            f"target_ratio must be strictly positive, got {target_ratio}"
        )
    attack_norms = np.sum(np.abs(a), axis=-1)
    measurement_norm = float(np.sum(np.abs(z)))
    if np.any(attack_norms <= 0):
        raise AttackConstructionError("cannot scale an all-zero attack vector")
    if measurement_norm <= 0:
        raise AttackConstructionError("measurement vector has zero L1 norm")
    factors = target_ratio * measurement_norm / attack_norms
    return a * (factors[:, None] if a.ndim == 2 else factors)


def attack_measurement_ratio(attack: np.ndarray, measurements: np.ndarray) -> float:
    """Return the current ratio ``‖a‖₁ / ‖z‖₁``."""
    a = np.asarray(attack, dtype=float).ravel()
    z = np.asarray(measurements, dtype=float).ravel()
    measurement_norm = float(np.sum(np.abs(z)))
    if measurement_norm <= 0:
        raise AttackConstructionError("measurement vector has zero L1 norm")
    return float(np.sum(np.abs(a))) / measurement_norm


__all__ = [
    "scale_attack_to_measurement_ratio",
    "attack_measurement_ratio",
    "DEFAULT_MEASUREMENT_RATIO",
]
