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
    stack = a if a.ndim == 2 else a.ravel()[None, :]
    scaled = stack * measurement_ratio_factors(stack, measurements, target_ratio)[:, None]
    return scaled if a.ndim == 2 else scaled[0]


def measurement_ratio_factors(
    attacks: np.ndarray,
    measurements: np.ndarray,
    target_ratio: float = DEFAULT_MEASUREMENT_RATIO,
) -> np.ndarray:
    """The factor that brings each attack row to ``‖a‖₁ / ‖z‖₁ = target_ratio``.

    :func:`scale_attack_to_measurement_ratio` multiplies each row by it;
    a caller that also holds what the attacks were made from (the state
    biases ``c`` of ``a = Hc``) rescales that by the same factors.

    Parameters
    ----------
    attacks:
        The unscaled attacks, shape ``(B, M)``.
    measurements:
        The legitimate measurement vector ``z``, shape ``(M,)``.
    target_ratio:
        Desired value of ``‖a‖₁ / ‖z‖₁``.

    Returns
    -------
    numpy.ndarray
        One factor per row, shape ``(B,)``.

    Raises
    ------
    AttackConstructionError
        If the lengths disagree, ``target_ratio ≤ 0``, an attack row is
        all zero or ``z`` has zero L1 norm.
    """
    z = np.asarray(measurements, dtype=float).ravel()
    if attacks.shape[-1] != z.shape[0]:
        raise AttackConstructionError(
            f"attack length {attacks.shape[-1]} does not match measurement count {z.shape[0]}"
        )
    if target_ratio <= 0:
        raise AttackConstructionError(
            f"target_ratio must be strictly positive, got {target_ratio}"
        )
    attack_norms = np.sum(np.abs(attacks), axis=-1)
    measurement_norm = float(np.sum(np.abs(z)))
    if np.any(attack_norms <= 0):
        raise AttackConstructionError("cannot scale an all-zero attack vector")
    if measurement_norm <= 0:
        raise AttackConstructionError("measurement vector has zero L1 norm")
    factors: np.ndarray = target_ratio * measurement_norm / attack_norms
    return factors


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
    "measurement_ratio_factors",
    "attack_measurement_ratio",
    "DEFAULT_MEASUREMENT_RATIO",
]
