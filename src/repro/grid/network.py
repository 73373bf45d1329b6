"""The :class:`PowerNetwork` container.

A :class:`PowerNetwork` bundles buses, branches and generators, validates
their structural consistency once at construction time, and offers
copy-with-changes constructors that the MTD machinery uses to derive
perturbed variants of a base case (different reactances, different loads)
without mutating shared state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.exceptions import GridModelError
from repro.grid.arrays import NetworkArrays
from repro.grid.components import Branch, Bus, Generator
from repro.utils.units import DEFAULT_BASE_MVA


@dataclass(frozen=True)
class PowerNetwork:
    """An immutable description of a transmission network.

    Parameters
    ----------
    buses, branches, generators:
        Component tuples.  Bus, branch and generator indices must each form
        the contiguous range ``0..len-1``; exactly one bus is the slack.
    base_mva:
        System MVA base used for per-unit conversion.
    name:
        Optional case name (e.g. ``"ieee14"``).
    """

    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]
    base_mva: float = DEFAULT_BASE_MVA
    name: str = ""

    def __post_init__(self) -> None:
        self._validate()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_components(
        cls,
        buses: Iterable[Bus],
        branches: Iterable[Branch],
        generators: Iterable[Generator],
        base_mva: float = DEFAULT_BASE_MVA,
        name: str = "",
    ) -> "PowerNetwork":
        """Build a network from iterables of components."""
        return cls(
            buses=tuple(buses),
            branches=tuple(branches),
            generators=tuple(generators),
            base_mva=float(base_mva),
            name=name,
        )

    def _validate(self) -> None:
        if not self.buses:
            raise GridModelError("a network must contain at least one bus")
        if not self.branches:
            raise GridModelError("a network must contain at least one branch")
        if self.base_mva <= 0:
            raise GridModelError(f"base_mva must be positive, got {self.base_mva}")

        # Component tuples must be *ordered by index*, not merely cover the
        # contiguous range: the arrays view (and the matrix builders on top
        # of it) extract fields in tuple order, so a permuted tuple would
        # silently permute every derived vector/matrix.
        bus_indices = [bus.index for bus in self.buses]
        if bus_indices != list(range(len(self.buses))):
            raise GridModelError(
                "bus indices must form the contiguous range 0..N-1 in tuple "
                f"order, got {bus_indices}"
            )
        slack_buses = [bus.index for bus in self.buses if bus.is_slack]
        if len(slack_buses) != 1:
            raise GridModelError(
                f"exactly one slack bus is required, found {len(slack_buses)}"
            )

        branch_indices = [branch.index for branch in self.branches]
        if branch_indices != list(range(len(self.branches))):
            raise GridModelError(
                "branch indices must form the contiguous range 0..L-1 in "
                f"tuple order, got {branch_indices}"
            )
        valid_buses = set(bus_indices)
        for branch in self.branches:
            if branch.from_bus not in valid_buses or branch.to_bus not in valid_buses:
                raise GridModelError(
                    f"branch {branch.index} references unknown bus "
                    f"({branch.from_bus} -> {branch.to_bus})"
                )

        gen_indices = [gen.index for gen in self.generators]
        if gen_indices != list(range(len(self.generators))):
            raise GridModelError(
                "generator indices must form the contiguous range 0..G-1 in "
                f"tuple order, got {gen_indices}"
            )
        for gen in self.generators:
            if gen.bus not in valid_buses:
                raise GridModelError(
                    f"generator {gen.index} references unknown bus {gen.bus}"
                )

        if not self._is_connected():
            raise GridModelError("the network graph must be connected")

    def _is_connected(self) -> bool:
        """Breadth-first connectivity check over the in-service branch graph."""
        adjacency: dict[int, list[int]] = {bus.index: [] for bus in self.buses}
        for branch in self.branches:
            if not branch.in_service:
                continue
            adjacency[branch.from_bus].append(branch.to_bus)
            adjacency[branch.to_bus].append(branch.from_bus)
        visited = {self.buses[0].index}
        frontier = [self.buses[0].index]
        while frontier:
            node = frontier.pop()
            for neighbour in adjacency[node]:
                if neighbour not in visited:
                    visited.add(neighbour)
                    frontier.append(neighbour)
        return len(visited) == len(self.buses)

    # ------------------------------------------------------------------
    # Vectorized compute representation
    # ------------------------------------------------------------------
    @property
    def arrays(self) -> NetworkArrays:
        """The structure-of-arrays compute view of this network.

        Materialised lazily on first access and cached for the lifetime of
        the (immutable) network, so the matrix builders and solver layers —
        which all operate on :class:`~repro.grid.arrays.NetworkArrays` —
        extract the component data and build the topology artifacts exactly
        once per network.  Reactance-only derivatives produced by
        :meth:`with_reactances` share the cached topology.
        """
        cached = self.__dict__.get("_arrays")
        if cached is None:
            cached = NetworkArrays.from_network(self)
            # Memoisation of a value derived purely from frozen fields:
            # observationally immutable, so exempt from the mutation rule.
            # repro-lint: disable=frozen-mutation
            object.__setattr__(self, "_arrays", cached)
        return cached

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def n_buses(self) -> int:
        """Number of buses ``N``."""
        return len(self.buses)

    @property
    def n_branches(self) -> int:
        """Number of branches ``L``."""
        return len(self.branches)

    @property
    def n_generators(self) -> int:
        """Number of generators."""
        return len(self.generators)

    @property
    def n_measurements(self) -> int:
        """Number of SCADA measurements ``M = 2L + N`` in the paper's model."""
        return 2 * self.n_branches + self.n_buses

    @property
    def slack_bus(self) -> int:
        """Index of the slack (angle reference) bus."""
        for bus in self.buses:
            if bus.is_slack:
                return bus.index
        raise GridModelError("no slack bus defined")  # pragma: no cover - validated

    @property
    def dfacts_branches(self) -> tuple[int, ...]:
        """Indices of in-service D-FACTS-equipped branches (the set L_D).

        Read from the cached :attr:`arrays` view, which computes the tuple
        once per network.
        """
        return self.arrays.dfacts_branches

    def branch_status(self) -> np.ndarray:
        """Per-branch service status as a boolean vector (``True`` = live)."""
        return np.array([branch.in_service for branch in self.branches], dtype=bool)

    # ------------------------------------------------------------------
    # Vector views
    # ------------------------------------------------------------------
    def loads_mw(self) -> np.ndarray:
        """Bus load vector in MW, ordered by bus index."""
        return self.arrays.loads_mw()

    def reactances(self) -> np.ndarray:
        """Branch reactance vector (per unit), ordered by branch index."""
        return self.arrays.reactances()

    def reactance_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(x_min, x_max)`` vectors honouring the D-FACTS limits.

        Branches without D-FACTS have ``x_min == x_max == x`` as in the
        paper's convention.
        """
        return self.arrays.reactance_bounds()

    def flow_limits_mw(self) -> np.ndarray:
        """Branch flow limit vector ``F^max`` in MW."""
        return self.arrays.flow_limits_mw()

    def generator_buses(self) -> np.ndarray:
        """Bus index of each generator, ordered by generator index."""
        return self.arrays.generator_buses()

    def generator_limits_mw(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(p_min, p_max)`` generator limit vectors in MW."""
        return self.arrays.generator_limits_mw()

    def generator_costs(self) -> np.ndarray:
        """Linear marginal cost vector in $/MWh, ordered by generator index."""
        return self.arrays.generator_costs()

    def total_load_mw(self) -> float:
        """Total system demand in MW."""
        return self.arrays.total_load_mw()

    def total_generation_capacity_mw(self) -> float:
        """Sum of generator maximum outputs in MW."""
        return self.arrays.total_generation_capacity_mw()

    def branch_between(self, bus_a: int, bus_b: int) -> Branch:
        """Return the first branch connecting ``bus_a`` and ``bus_b``.

        Raises :class:`GridModelError` if no such branch exists.
        """
        for branch in self.branches:
            if {branch.from_bus, branch.to_bus} == {bus_a, bus_b}:
                return branch
        raise GridModelError(f"no branch between buses {bus_a} and {bus_b}")

    # ------------------------------------------------------------------
    # Copy-with-changes constructors
    # ------------------------------------------------------------------
    def with_reactances(self, reactances: Sequence[float] | np.ndarray) -> "PowerNetwork":
        """Return a copy of the network with branch reactances replaced.

        ``reactances`` must contain one value per branch, ordered by branch
        index.  This is the primitive on which MTD perturbations are built,
        so it takes the *fast derivation path*: only the checks a reactance
        change can actually invalidate run (count and positivity — the same
        errors the full constructor would raise), the structural
        re-validation of ``__post_init__`` (index contiguity, slack
        uniqueness, the BFS connectivity scan) is skipped because the
        wiring is untouched, and the derived network shares its parent's
        cached :class:`~repro.grid.arrays.TopologyCache` through
        :attr:`arrays`.
        """
        x = np.asarray(reactances, dtype=float).ravel()
        if x.shape[0] != self.n_branches:
            raise GridModelError(
                f"expected {self.n_branches} reactances, got {x.shape[0]}"
            )
        if np.any(x <= 0):
            raise GridModelError("all reactances must be strictly positive")
        new_branches = tuple(
            branch.with_reactance(x[branch.index]) for branch in self.branches
        )
        derived = object.__new__(PowerNetwork)
        object.__setattr__(derived, "buses", self.buses)
        object.__setattr__(derived, "branches", new_branches)
        object.__setattr__(derived, "generators", self.generators)
        object.__setattr__(derived, "base_mva", self.base_mva)
        object.__setattr__(derived, "name", self.name)
        object.__setattr__(derived, "_arrays", self.arrays.with_reactances(x))
        return derived

    def with_branch_status(
        self, status: Sequence[bool] | np.ndarray
    ) -> "PowerNetwork":
        """Return a copy with per-branch service status replaced.

        ``status`` holds one boolean per branch (``True`` = in service),
        ordered by branch index.  Like :meth:`with_reactances` this is a
        *fast derivation path*: out-of-service branches keep their slot in
        the branch list (incidence, measurement dimensions and indexing are
        unchanged — only the branch susceptance is zeroed by the matrix
        builders), so the derived network shares its parent's cached
        :class:`~repro.grid.arrays.TopologyCache`, and the only structural
        check that a status change can invalidate — connectivity of the
        active subgraph — runs incrementally in
        :meth:`NetworkArrays.with_branch_status
        <repro.grid.arrays.NetworkArrays.with_branch_status>`.  An outage
        set that islands the grid raises
        :class:`~repro.exceptions.IslandingError` naming the branches.
        """
        s = np.asarray(status, dtype=bool).ravel()
        if s.shape[0] != self.n_branches:
            raise GridModelError(
                f"expected {self.n_branches} status flags, got {s.shape[0]}"
            )
        # Runs the islanding check (and raises) before any sharing happens.
        derived_arrays = self.arrays.with_branch_status(s)
        new_branches = tuple(
            branch if branch.in_service == bool(s[branch.index])
            else branch.with_status(bool(s[branch.index]))
            for branch in self.branches
        )
        derived = object.__new__(PowerNetwork)
        object.__setattr__(derived, "buses", self.buses)
        object.__setattr__(derived, "branches", new_branches)
        object.__setattr__(derived, "generators", self.generators)
        object.__setattr__(derived, "base_mva", self.base_mva)
        object.__setattr__(derived, "name", self.name)
        object.__setattr__(derived, "_arrays", derived_arrays)
        return derived

    def with_branch_outages(self, branch_indices: Iterable[int]) -> "PowerNetwork":
        """Return a copy with the listed branches taken out of service.

        Outages compose with any already present on ``self``; unknown
        branch indices raise :class:`GridModelError`, islanding outages
        raise :class:`~repro.exceptions.IslandingError`.
        """
        status = self.branch_status()
        for index in branch_indices:
            k = int(index)
            if not (0 <= k < self.n_branches):
                raise GridModelError(f"unknown branch index {k}")
            status[k] = False
        return self.with_branch_status(status)

    def with_generator_status(
        self, status: Sequence[bool] | np.ndarray | Mapping[int, bool]
    ) -> "PowerNetwork":
        """Return a copy with per-generator service status replaced.

        ``status`` is either a full per-generator vector or a mapping
        ``{generator_index: in_service}`` of units to change.  Generator
        outages do not change the network graph, so this goes through the
        ordinary validated constructor.
        """
        if isinstance(status, Mapping):
            flags = [gen.in_service for gen in self.generators]
            for index, value in status.items():
                if index < 0 or index >= self.n_generators:
                    raise GridModelError(f"unknown generator index {index}")
                flags[index] = bool(value)
        else:
            vector = np.asarray(status, dtype=bool).ravel()
            if vector.shape[0] != self.n_generators:
                raise GridModelError(
                    f"expected {self.n_generators} status flags, got {vector.shape[0]}"
                )
            flags = [bool(v) for v in vector]
        new_generators = tuple(
            gen if gen.in_service == flags[gen.index] else gen.with_status(flags[gen.index])
            for gen in self.generators
        )
        return PowerNetwork(
            buses=self.buses,
            branches=self.branches,
            generators=new_generators,
            base_mva=self.base_mva,
            name=self.name,
        )

    def with_loads(self, loads_mw: Sequence[float] | np.ndarray | Mapping[int, float]) -> "PowerNetwork":
        """Return a copy of the network with bus loads replaced.

        ``loads_mw`` is either a full per-bus vector (ordered by bus index)
        or a mapping ``{bus_index: load_mw}`` of buses to change.
        """
        current = self.loads_mw()
        if isinstance(loads_mw, Mapping):
            new_loads = current.copy()
            for bus_index, value in loads_mw.items():
                if bus_index < 0 or bus_index >= self.n_buses:
                    raise GridModelError(f"unknown bus index {bus_index}")
                new_loads[bus_index] = float(value)
        else:
            new_loads = np.asarray(loads_mw, dtype=float).ravel()
            if new_loads.shape[0] != self.n_buses:
                raise GridModelError(
                    f"expected {self.n_buses} loads, got {new_loads.shape[0]}"
                )
        if np.any(new_loads < 0):
            raise GridModelError("loads must be non-negative")
        new_buses = tuple(bus.with_load(new_loads[bus.index]) for bus in self.buses)
        return PowerNetwork(
            buses=new_buses,
            branches=self.branches,
            generators=self.generators,
            base_mva=self.base_mva,
            name=self.name,
        )

    def with_scaled_loads(self, factor: float) -> "PowerNetwork":
        """Return a copy with every bus load multiplied by ``factor``."""
        if factor < 0:
            raise GridModelError(f"scaling factor must be non-negative, got {factor}")
        return self.with_loads(self.loads_mw() * float(factor))

    def with_dfacts_on(
        self,
        branch_indices: Iterable[int],
        min_factor: float,
        max_factor: float,
    ) -> "PowerNetwork":
        """Return a copy with D-FACTS devices installed on selected branches.

        Existing D-FACTS installations on other branches are preserved.
        """
        targets = set(int(i) for i in branch_indices)
        unknown = targets - set(range(self.n_branches))
        if unknown:
            raise GridModelError(f"unknown branch indices: {sorted(unknown)}")
        new_branches = tuple(
            branch.with_dfacts(min_factor, max_factor)
            if branch.index in targets
            else branch
            for branch in self.branches
        )
        return PowerNetwork(
            buses=self.buses,
            branches=new_branches,
            generators=self.generators,
            base_mva=self.base_mva,
            name=self.name,
        )

    def describe(self) -> str:
        """Return a short human-readable summary of the case."""
        return (
            f"PowerNetwork(name={self.name or 'unnamed'!r}, buses={self.n_buses}, "
            f"branches={self.n_branches}, generators={self.n_generators}, "
            f"dfacts={len(self.dfacts_branches)}, "
            f"total_load={self.total_load_mw():.1f} MW)"
        )


__all__ = ["PowerNetwork"]
