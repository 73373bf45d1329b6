"""The SCADA measurement model.

Measurements are, in the paper's convention, the nodal power injections and
the forward and reverse branch power flows:

.. math::  z = Hθ + n, \\qquad H = [D Aᵀ; −D Aᵀ; A D Aᵀ]

with ``n`` zero-mean Gaussian noise.  The library works with the *reduced*
measurement matrix (slack column removed) and expresses measurements in per
unit; bus angles are in radians.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import EstimationError
from repro.grid.matrices import (
    NetworkLike,
    reduced_measurement_matrix,
    reduced_measurement_matrix_sparse,
)
from repro.utils.rng import as_generator

#: Default measurement noise standard deviation, in per unit (0.15 % of the
#: 100 MVA base, i.e. 0.15 MW).  The paper does not state its noise level;
#: this value is calibrated so that, with the paper's attack magnitude
#: (``‖a‖₁/‖z‖₁ ≈ 0.08``) and false-positive rate (5e-4), the detection
#: probability of the attack ensemble transitions from near zero to near one
#: across the subspace-angle range achievable by the paper's D-FACTS limits,
#: reproducing the shape of Fig. 6.  See EXPERIMENTS.md for the calibration.
DEFAULT_NOISE_SIGMA: float = 0.0015


@dataclass(frozen=True, eq=False)
class MeasurementSystem:
    """The measurement model of a (possibly perturbed) network.

    Instances are cheap, immutable views binding a network to a reactance
    vector and a noise level; the MTD machinery builds one per candidate
    perturbation.  Equality is identity, as for the network arrays it
    reads.

    Parameters
    ----------
    network:
        The underlying network (provides topology and slack bus); either a
        :class:`~repro.grid.network.PowerNetwork` or its
        :class:`~repro.grid.arrays.NetworkArrays` view — both carry the
        shared topology cache, so building the measurement matrix for a
        perturbed reactance vector reuses the incidence matrix instead of
        rebuilding it.
    reactances:
        Branch reactances defining the measurement matrix, one per branch
        (any array-like).  Held as a validated, read-only float copy.
        Defaults to the network's nominal reactances.
    noise_sigma:
        Standard deviation of the Gaussian measurement noise (per unit),
        identical for every sensor as in the paper's simulations.
    """

    network: NetworkLike
    reactances: np.ndarray | None = None
    noise_sigma: float = DEFAULT_NOISE_SIGMA

    def __post_init__(self) -> None:
        if self.noise_sigma <= 0:
            raise EstimationError(
                f"noise_sigma must be strictly positive, got {self.noise_sigma}"
            )
        if self.reactances is not None:
            x = np.array(np.ravel(self.reactances), dtype=float)
            if x.shape[0] != self.network.n_branches:
                raise EstimationError(
                    f"expected {self.network.n_branches} reactances, got {x.shape[0]}"
                )
            if np.any(x <= 0):
                raise EstimationError("all reactances must be strictly positive")
            x.flags.writeable = False
            object.__setattr__(self, "reactances", x)

    # ------------------------------------------------------------------
    @property
    def n_measurements(self) -> int:
        """Number of measurements ``M = 2L + N``."""
        return self.network.n_measurements

    @property
    def n_states(self) -> int:
        """Number of estimated states (non-slack bus angles, ``N − 1``)."""
        return self.network.n_buses - 1

    def reactance_vector(self) -> np.ndarray:
        """The reactance vector backing this measurement system (read-only
        when it overrides the network's)."""
        if self.reactances is None:
            return self.network.reactances()
        return self.reactances

    def matrix(self) -> np.ndarray:
        """The reduced measurement matrix ``H`` (``M x (N−1)``)."""
        return reduced_measurement_matrix(self.network, self.reactance_vector())

    def matrix_sparse(self):
        """The reduced measurement matrix ``H`` in CSR form.

        Built through the grid layer's sparse assembly, so the sparse
        factorization backend never forms the dense ``(M, N−1)`` array.
        Its entries equal :meth:`matrix`'s to rounding, not bit for bit:
        the two builders sum an injection row's branch terms in different
        orders, so a few injection-row entries differ by 1–2 ulp (2 of
        ieee30's, 35 of synthetic300's, 98 of synthetic1354's).  A CSR
        copy that must match the dense ``H`` exactly — the attacker's,
        whose attacks and QR factors must come from one matrix — is
        converted from :meth:`matrix` instead.
        """
        return reduced_measurement_matrix_sparse(self.network, self.reactance_vector())

    def weights(self) -> np.ndarray:
        """Measurement weights ``1/σ²`` (one per measurement)."""
        return np.full(self.n_measurements, 1.0 / self.noise_sigma**2)

    # ------------------------------------------------------------------
    def reduce_angles(self, angles_rad: np.ndarray) -> np.ndarray:
        """Drop the slack entry from a full bus-angle vector."""
        angles = np.asarray(angles_rad, dtype=float).ravel()
        if angles.shape[0] != self.network.n_buses:
            raise EstimationError(
                f"expected {self.network.n_buses} angles, got {angles.shape[0]}"
            )
        return angles[self.network.arrays.topology.non_slack()]

    def noiseless_measurements(self, angles_rad: np.ndarray) -> np.ndarray:
        """The exact measurement vector ``Hθ`` for a full angle vector (p.u.)."""
        return self.matrix() @ self.reduce_angles(angles_rad)

    def measure(
        self,
        angles_rad: np.ndarray,
        rng: int | np.random.Generator | None = None,
        attack: np.ndarray | None = None,
    ) -> np.ndarray:
        """Draw a noisy (optionally attacked) measurement vector.

        Parameters
        ----------
        angles_rad:
            True bus voltage angles (full vector including the slack).
        rng:
            Seed or generator for the measurement noise.
        attack:
            Optional FDI attack vector ``a`` added to the measurements.
        """
        rng = as_generator(rng)
        z = self.noiseless_measurements(angles_rad)
        z = z + rng.normal(0.0, self.noise_sigma, size=z.shape[0])
        if attack is not None:
            a = np.asarray(attack, dtype=float).ravel()
            if a.shape[0] != z.shape[0]:
                raise EstimationError(
                    f"attack length {a.shape[0]} does not match measurement count {z.shape[0]}"
                )
            z = z + a
        return z

    def with_reactances(self, reactances: np.ndarray) -> "MeasurementSystem":
        """Return a measurement system for a perturbed reactance vector."""
        return MeasurementSystem(
            self.network, reactances=reactances, noise_sigma=self.noise_sigma
        )


__all__ = ["MeasurementSystem", "DEFAULT_NOISE_SIGMA"]
