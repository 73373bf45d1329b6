"""Construction of stealthy FDI attack vectors.

Following Liu, Ning and Reiter (and the paper's Section III), an attack
``a = Hc`` for any state bias ``c`` produces measurements that remain
perfectly consistent with the measurement model of the matrix ``H`` used to
craft it, so the BDD of a system still described by ``H`` cannot detect it
beyond its false-positive rate.  The MTD's entire purpose is to make the
operating system's matrix ``H'`` differ from the attacker's ``H``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import AttackConstructionError


def stealthy_attack(measurement_matrix: np.ndarray, state_bias: np.ndarray) -> np.ndarray:
    """Build the stealthy attack ``a = Hc``.

    Parameters
    ----------
    measurement_matrix:
        The (reduced) measurement matrix ``H`` known to the attacker.
    state_bias:
        The state perturbation ``c`` the attacker wants to inject, one entry
        per non-slack bus.

    Returns
    -------
    numpy.ndarray
        The attack vector ``a`` to be added to the measurements.
    """
    H = np.asarray(measurement_matrix, dtype=float)
    c = np.asarray(state_bias, dtype=float).ravel()
    if H.ndim != 2:
        raise AttackConstructionError(f"expected a 2-D measurement matrix, got shape {H.shape}")
    if c.shape[0] != H.shape[1]:
        raise AttackConstructionError(
            f"state bias length {c.shape[0]} does not match state dimension {H.shape[1]}"
        )
    return H @ c


def targeted_state_attack(
    measurement_matrix: np.ndarray,
    target_states: dict[int, float],
    n_states: int | None = None,
) -> np.ndarray:
    """Build an attack that biases specific state variables.

    Parameters
    ----------
    measurement_matrix:
        The attacker's measurement matrix ``H``.
    target_states:
        Mapping from state index (position in the non-slack bus ordering) to
        the desired bias, in radians.
    n_states:
        Optional explicit state dimension (defaults to ``H.shape[1]``).

    Returns
    -------
    numpy.ndarray
        The attack vector ``a = Hc`` with ``c`` zero except at the targets.
    """
    H = np.asarray(measurement_matrix, dtype=float)
    dimension = H.shape[1] if n_states is None else int(n_states)
    if dimension != H.shape[1]:
        raise AttackConstructionError(
            f"n_states={dimension} does not match measurement matrix width {H.shape[1]}"
        )
    c = np.zeros(dimension)
    for index, bias in target_states.items():
        if index < 0 or index >= dimension:
            raise AttackConstructionError(
                f"state index {index} is outside 0..{dimension - 1}"
            )
        c[index] = float(bias)
    if not np.any(c):
        raise AttackConstructionError("at least one non-zero state bias is required")
    return stealthy_attack(H, c)


__all__ = ["stealthy_attack", "targeted_state_attack"]
