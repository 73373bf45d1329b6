"""Representation of MTD reactance perturbations.

A perturbation is the pair of the pre-perturbation reactance vector ``x``
and the post-perturbation vector ``x'``; the paper denotes their difference
``Δx = x − x'``.  Perturbations can only touch branches equipped with
D-FACTS devices and must stay within the device limits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import MTDDesignError
from repro.grid.arrays import NetworkArrays
from repro.grid.network import PowerNetwork
from repro.utils.rng import as_generator


@dataclass(frozen=True)
class ReactancePerturbation:
    """An MTD reactance perturbation applied to a network.

    Attributes
    ----------
    network:
        The network the perturbation applies to (provides D-FACTS limits).
    base_reactances:
        Pre-perturbation branch reactances ``x`` (p.u.).
    perturbed_reactances:
        Post-perturbation branch reactances ``x'`` (p.u.).
    """

    network: PowerNetwork
    base_reactances: np.ndarray
    perturbed_reactances: np.ndarray

    def __post_init__(self) -> None:
        base = np.asarray(self.base_reactances, dtype=float).ravel()
        perturbed = np.asarray(self.perturbed_reactances, dtype=float).ravel()
        n = self.network.n_branches
        if base.shape[0] != n or perturbed.shape[0] != n:
            raise MTDDesignError(
                f"reactance vectors must have {n} entries, got "
                f"{base.shape[0]} and {perturbed.shape[0]}"
            )
        if np.any(base <= 0) or np.any(perturbed <= 0):
            raise MTDDesignError("all reactances must be strictly positive")
        object.__setattr__(self, "base_reactances", base)
        object.__setattr__(self, "perturbed_reactances", perturbed)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, network: PowerNetwork) -> "ReactancePerturbation":
        """The do-nothing perturbation (``x' = x``)."""
        x = network.reactances()
        return cls(network=network, base_reactances=x, perturbed_reactances=x.copy())

    @classmethod
    def from_perturbed(
        cls,
        network: PowerNetwork,
        perturbed_reactances: np.ndarray,
        base_reactances: np.ndarray | None = None,
    ) -> "ReactancePerturbation":
        """Build a perturbation from an explicit post-perturbation vector."""
        base = network.reactances() if base_reactances is None else np.asarray(base_reactances, dtype=float)
        return cls(
            network=network,
            base_reactances=base,
            perturbed_reactances=np.asarray(perturbed_reactances, dtype=float),
        )

    @classmethod
    def single_line(
        cls,
        network: PowerNetwork,
        branch_index: int,
        relative_change: float,
        base_reactances: np.ndarray | None = None,
    ) -> "ReactancePerturbation":
        """Perturb one branch by a relative amount ``η``.

        This reproduces the motivating example's perturbations
        ``Δx^(k) = η [0, .., x_k, .., 0]``.
        """
        if branch_index < 0 or branch_index >= network.n_branches:
            raise MTDDesignError(
                f"branch index {branch_index} is outside 0..{network.n_branches - 1}"
            )
        base = network.reactances() if base_reactances is None else np.asarray(base_reactances, dtype=float).copy()
        perturbed = base.copy()
        perturbed[branch_index] = base[branch_index] * (1.0 + relative_change)
        if perturbed[branch_index] <= 0:
            raise MTDDesignError(
                f"relative change {relative_change} makes the reactance non-positive"
            )
        return cls(network=network, base_reactances=base, perturbed_reactances=perturbed)

    @classmethod
    def random(
        cls,
        network: PowerNetwork,
        max_relative_change: float,
        branch_indices: np.ndarray | list[int] | None = None,
        base_reactances: np.ndarray | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> "ReactancePerturbation":
        """Uniformly random perturbation of the D-FACTS branches.

        Each selected branch is perturbed by an amount drawn uniformly from
        ``[-max_relative_change, +max_relative_change]`` relative to its base
        value — the strategy of the prior work the paper compares against.
        """
        if max_relative_change < 0:
            raise MTDDesignError(
                f"max_relative_change must be non-negative, got {max_relative_change}"
            )
        rng = as_generator(seed)
        base = network.reactances() if base_reactances is None else np.asarray(base_reactances, dtype=float).copy()
        if branch_indices is None:
            branch_indices = np.array(network.dfacts_branches, dtype=int)
        else:
            branch_indices = np.asarray(branch_indices, dtype=int)
        if branch_indices.size == 0:
            raise MTDDesignError("no branches available to perturb")
        perturbed = base.copy()
        changes = rng.uniform(-max_relative_change, max_relative_change, size=branch_indices.size)
        perturbed[branch_indices] = base[branch_indices] * (1.0 + changes)
        return cls(network=network, base_reactances=base, perturbed_reactances=perturbed)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def delta(self) -> np.ndarray:
        """The perturbation vector ``Δx = x − x'`` (paper's sign convention)."""
        return self.base_reactances - self.perturbed_reactances

    @property
    def perturbed_branches(self) -> tuple[int, ...]:
        """Indices of branches whose reactance actually changed."""
        changed = np.where(np.abs(self.delta) > 1e-12)[0]
        return tuple(int(i) for i in changed)

    def relative_changes(self) -> np.ndarray:
        """Per-branch relative change ``(x' − x)/x``."""
        return (self.perturbed_reactances - self.base_reactances) / self.base_reactances

    def magnitude(self) -> float:
        """Root-mean-square relative change over the perturbed branches."""
        changes = self.relative_changes()
        perturbed = self.perturbed_branches
        if not perturbed:
            return 0.0
        return float(np.sqrt(np.mean(changes[list(perturbed)] ** 2)))

    # ------------------------------------------------------------------
    # Validity and application
    # ------------------------------------------------------------------
    def respects_dfacts_limits(self, tol: float = 1e-9) -> bool:
        """Check that the perturbation stays within the D-FACTS device limits.

        Branches without D-FACTS must be untouched; equipped branches must
        stay within ``[x_min, x_max]``.
        """
        arrays = self.network.arrays
        x_min, x_max = arrays.reactance_bounds()
        equipped = arrays.branch_has_dfacts
        value = self.perturbed_reactances
        untouched = np.abs(value - self.base_reactances) <= tol
        within = (value >= x_min - tol) & (value <= x_max + tol)
        return bool(np.all(np.where(equipped, within, untouched)))

    def require_valid(self) -> None:
        """Raise :class:`MTDDesignError` if the perturbation violates limits."""
        if not self.respects_dfacts_limits():
            raise MTDDesignError(
                "perturbation violates the D-FACTS limits or touches a branch "
                "without a D-FACTS device"
            )

    def apply(self) -> PowerNetwork:
        """Return the network with the perturbed reactances installed.

        Uses the reactance-only fast derivation of
        :meth:`~repro.grid.network.PowerNetwork.with_reactances` (structural
        re-validation skipped, topology cache shared).
        """
        return self.network.with_reactances(self.perturbed_reactances)

    def apply_arrays(self) -> "NetworkArrays":
        """The perturbed network as a structure-of-arrays compute view.

        The cheapest way to hand a perturbed variant to the matrix
        builders and solver layers: no per-component objects are built at
        all, and the topology cache is shared with the base network.
        """
        return self.network.arrays.with_reactances(self.perturbed_reactances)


__all__ = ["ReactancePerturbation"]
