"""Structure-of-arrays network representation — the vectorized compute core.

The MTD loop evaluates thousands of reactance-perturbed variants of one base
case.  Deriving each variant through the per-component dataclasses of
:mod:`repro.grid.components` means rebuilding ``L`` frozen :class:`Branch`
objects and re-running the full structural validation (including a
breadth-first connectivity check) even though only the reactance values
changed — pure Python object churn on the hottest path of the library.

:class:`NetworkArrays` stores the same case data as flat NumPy arrays (one
array per field instead of one object per component) and shares a
:class:`TopologyCache` of the artifacts that depend only on the wiring —
branch endpoints, the incidence matrix (dense and sparse), the non-slack
index vector and the generator-incidence matrix — across every reactance-only
derivative.  Deriving a perturbed variant is then a single positivity check
plus one array swap, and the matrix builders in :mod:`repro.grid.matrices`
reuse the cached incidence instead of rebuilding it per call.

:class:`~repro.grid.network.PowerNetwork` remains the validated
construction/IO facade: it lazily materialises its arrays view once
(:attr:`PowerNetwork.arrays <repro.grid.network.PowerNetwork.arrays>`) and
every consumer of the read API (matrix builders, power flow, OPF, the
estimation stack) accepts either representation — the two are bit-identical
by construction, which the golden tests in ``tests/test_grid_arrays.py``
assert against an independent reference implementation.

All arrays handed to or held by a :class:`NetworkArrays` are frozen
(``writeable=False``); accessor methods mirror the
:class:`~repro.grid.network.PowerNetwork` vector views and return fresh
mutable copies so existing callers keep their ownership semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GridModelError, IslandingError
from repro.telemetry import metrics as _metrics
from repro.telemetry.config import _STATE as _TELEMETRY

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.grid.network import PowerNetwork


def _topology_lookup(built: bool) -> None:
    """Mirror one TopologyCache artifact lookup into the telemetry counters."""
    if _TELEMETRY.enabled:
        _metrics.counter("cache.topology.misses" if built else "cache.topology.hits")


def _frozen(values: np.ndarray, dtype) -> np.ndarray:
    """A read-only, C-contiguous copy of ``values`` with the given dtype."""
    arr = np.ascontiguousarray(values, dtype=dtype)
    if arr is values or arr.base is values:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _disconnected_buses(
    from_bus: np.ndarray, to_bus: np.ndarray, n_buses: int, status: np.ndarray
) -> list[int]:
    """Buses unreachable from bus 0 over the in-service branch graph.

    Returns an empty list when the active subgraph is connected.  Used by
    the contingency derivation paths to reject islanding outages with a
    precise error instead of letting a singular susceptance matrix surface
    downstream.
    """
    adjacency: list[list[int]] = [[] for _ in range(n_buses)]
    for k in np.flatnonzero(status):
        u, v = int(from_bus[k]), int(to_bus[k])
        adjacency[u].append(v)
        adjacency[v].append(u)
    visited = np.zeros(n_buses, dtype=bool)
    visited[0] = True
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for neighbour in adjacency[node]:
            if not visited[neighbour]:
                visited[neighbour] = True
                frontier.append(neighbour)
    return [int(i) for i in np.flatnonzero(~visited)]


def _normalized_status(status: np.ndarray) -> np.ndarray | None:
    """Canonical form of a service-status mask: ``None`` when all-true.

    The all-in-service case is the overwhelmingly common one, and
    representing it as ``None`` keeps the status-free code paths (and their
    outputs) bit-identical to the pre-contingency library.
    """
    if status.all():
        return None
    return _frozen(status, bool)


class TopologyCache:
    """Wiring-dependent artifacts shared by reactance-only derivatives.

    Everything cached here is a pure function of the branch endpoints, the
    generator placement and the slack bus — none of it changes when an MTD
    perturbation moves reactances — so one cache instance is shared by a
    base :class:`NetworkArrays` and all its
    :meth:`~NetworkArrays.with_reactances` derivatives.  Each artifact is
    built lazily on first use, exactly once, with the same arithmetic as
    the historical per-call builders (asserted bit-for-bit in the golden
    tests).  Cached arrays are read-only; consumers that need a mutable
    array copy them.
    """

    __slots__ = (
        "from_bus",
        "to_bus",
        "slack",
        "n_buses",
        "gen_bus",
        "_incidence",
        "_incidence_sparse",
        "_non_slack",
        "_generator_incidence",
    )

    def __init__(
        self,
        from_bus: np.ndarray,
        to_bus: np.ndarray,
        slack: int,
        n_buses: int,
        gen_bus: np.ndarray,
    ) -> None:
        self.from_bus = _frozen(from_bus, np.intp)
        self.to_bus = _frozen(to_bus, np.intp)
        self.slack = int(slack)
        self.n_buses = int(n_buses)
        self.gen_bus = _frozen(gen_bus, np.intp)
        self._incidence: np.ndarray | None = None
        self._incidence_sparse: sp.csr_matrix | None = None
        self._non_slack: np.ndarray | None = None
        self._generator_incidence: np.ndarray | None = None

    @property
    def n_branches(self) -> int:
        return self.from_bus.shape[0]

    def incidence(self) -> np.ndarray:
        """The ``N x L`` branch-bus incidence matrix ``A`` (read-only)."""
        _topology_lookup(built=self._incidence is None)
        if self._incidence is None:
            A = np.zeros((self.n_buses, self.n_branches))
            cols = np.arange(self.n_branches)
            A[self.from_bus, cols] = 1.0
            A[self.to_bus, cols] = -1.0
            A.flags.writeable = False
            self._incidence = A
        return self._incidence

    def incidence_sparse(self) -> sp.csr_matrix:
        """``A`` as a CSR matrix, shape ``(N, L)`` (do not mutate)."""
        _topology_lookup(built=self._incidence_sparse is None)
        if self._incidence_sparse is None:
            L = self.n_branches
            cols = np.arange(L)
            rows = np.concatenate([self.from_bus, self.to_bus])
            data = np.concatenate([np.ones(L), -np.ones(L)])
            self._incidence_sparse = sp.csr_matrix(
                (data, (rows, np.concatenate([cols, cols]))),
                shape=(self.n_buses, L),
            )
        return self._incidence_sparse

    def non_slack(self) -> np.ndarray:
        """Indices of all buses except the slack, ascending (read-only)."""
        _topology_lookup(built=self._non_slack is None)
        if self._non_slack is None:
            keep = np.array(
                [i for i in range(self.n_buses) if i != self.slack], dtype=int
            )
            keep.flags.writeable = False
            self._non_slack = keep
        return self._non_slack

    def generator_incidence(self) -> np.ndarray:
        """The ``N x G`` generator-to-bus mapping matrix (read-only)."""
        _topology_lookup(built=self._generator_incidence is None)
        if self._generator_incidence is None:
            C = np.zeros((self.n_buses, self.gen_bus.shape[0]))
            C[self.gen_bus, np.arange(self.gen_bus.shape[0])] = 1.0
            C.flags.writeable = False
            self._generator_incidence = C
        return self._generator_incidence


@dataclass(frozen=True, eq=False)
class NetworkArrays:
    """Frozen structure-of-arrays view of a power network.

    One array per component field (instead of one frozen dataclass per
    component) plus a shared :class:`TopologyCache`.  Instances mirror the
    read API of :class:`~repro.grid.network.PowerNetwork` — ``n_buses``,
    ``slack_bus``, ``loads_mw()``, ``reactances()``, ``reactance_bounds()``
    and friends — so the matrix builders, power-flow solvers and OPF layers
    accept either representation interchangeably.

    Instances are cheap to derive: :meth:`with_reactances` swaps the
    reactance array (after a positivity check) and :meth:`with_branch_status`
    swaps the service-status mask (after an islanding check); both share
    every other field and the topology cache with their parent.  Equality is
    identity — use the field arrays directly when comparing contents.

    ``branch_status`` is ``None`` when every branch is in service (the
    common case, chosen so the status-free fast paths stay bit-identical),
    otherwise a frozen boolean mask of length ``L``.  An out-of-service
    branch keeps its slot — the incidence matrix, the measurement dimension
    ``M = 2L + N`` and all branch indexing are unchanged — and only its
    susceptance is zeroed by the matrix builders, which is what lets every
    outage derivative share one :class:`TopologyCache`.
    """

    base_mva: float
    name: str
    slack: int
    bus_load_mw: np.ndarray
    branch_from: np.ndarray
    branch_to: np.ndarray
    branch_reactance: np.ndarray
    branch_rate_mw: np.ndarray
    branch_has_dfacts: np.ndarray
    branch_dfacts_min: np.ndarray
    branch_dfacts_max: np.ndarray
    gen_bus: np.ndarray
    gen_p_min_mw: np.ndarray
    gen_p_max_mw: np.ndarray
    gen_cost_per_mwh: np.ndarray
    topology: TopologyCache = field(repr=False)
    branch_status: np.ndarray | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_network(cls, network: "PowerNetwork") -> "NetworkArrays":
        """Extract the arrays view of a validated :class:`PowerNetwork`.

        Called (once, lazily) by ``PowerNetwork.arrays``; the network's
        validation guarantees contiguous indices, so component order equals
        index order and the extraction is a straight column scan.
        """
        L = network.n_branches
        G = network.n_generators
        branches = network.branches
        generators = network.generators
        from_bus = np.fromiter((b.from_bus for b in branches), dtype=np.intp, count=L)
        to_bus = np.fromiter((b.to_bus for b in branches), dtype=np.intp, count=L)
        gen_bus = np.fromiter((g.bus for g in generators), dtype=np.intp, count=G)
        topology = TopologyCache(
            from_bus=from_bus,
            to_bus=to_bus,
            slack=network.slack_bus,
            n_buses=network.n_buses,
            gen_bus=gen_bus,
        )
        loads = np.zeros(network.n_buses)
        for bus in network.buses:
            loads[bus.index] = bus.load_mw
        return cls(
            base_mva=float(network.base_mva),
            name=network.name,
            slack=int(network.slack_bus),
            bus_load_mw=_frozen(loads, float),
            branch_from=topology.from_bus,
            branch_to=topology.to_bus,
            branch_reactance=_frozen(
                np.fromiter((b.reactance for b in branches), dtype=float, count=L), float
            ),
            branch_rate_mw=_frozen(
                np.fromiter((b.rate_mw for b in branches), dtype=float, count=L), float
            ),
            branch_has_dfacts=_frozen(
                np.fromiter((b.has_dfacts for b in branches), dtype=bool, count=L), bool
            ),
            branch_dfacts_min=_frozen(
                np.fromiter((b.dfacts_min_factor for b in branches), dtype=float, count=L),
                float,
            ),
            branch_dfacts_max=_frozen(
                np.fromiter((b.dfacts_max_factor for b in branches), dtype=float, count=L),
                float,
            ),
            gen_bus=topology.gen_bus,
            # Out-of-service generators keep their slot with a [0, 0]
            # dispatch range, so the OPF constraint shapes are stable
            # across generator contingencies.
            gen_p_min_mw=_frozen(
                np.fromiter(
                    (g.p_min_mw if g.in_service else 0.0 for g in generators),
                    dtype=float,
                    count=G,
                ),
                float,
            ),
            gen_p_max_mw=_frozen(
                np.fromiter(
                    (g.p_max_mw if g.in_service else 0.0 for g in generators),
                    dtype=float,
                    count=G,
                ),
                float,
            ),
            gen_cost_per_mwh=_frozen(
                np.fromiter((g.cost_per_mwh for g in generators), dtype=float, count=G),
                float,
            ),
            topology=topology,
            branch_status=_normalized_status(
                np.fromiter((b.in_service for b in branches), dtype=bool, count=L)
            ),
        )

    def with_reactances(self, reactances: Sequence[float] | np.ndarray) -> "NetworkArrays":
        """The reactance-only derivative — the MTD perturbation fast path.

        Validates shape and positivity (the only checks a reactance change
        can invalidate) and shares every other array *and* the topology
        cache with ``self``, so incidence/non-slack/generator-incidence
        artifacts are never rebuilt for a perturbed variant.
        """
        x = np.asarray(reactances, dtype=float).ravel()
        if x.shape[0] != self.n_branches:
            raise GridModelError(
                f"expected {self.n_branches} reactances, got {x.shape[0]}"
            )
        if np.any(x <= 0):
            raise GridModelError("all reactances must be strictly positive")
        return replace(self, branch_reactance=_frozen(x, float))

    def with_branch_status(
        self, status: Sequence[bool] | np.ndarray
    ) -> "NetworkArrays":
        """The topology-status derivative — the contingency fast path.

        ``status`` holds one boolean per branch (``True`` = in service).
        The wiring arrays and the :class:`TopologyCache` are shared with
        ``self`` — an outage zeroes the branch's susceptance in the matrix
        builders instead of deleting its incidence column — so a contingency
        screen over thousands of outages never rebuilds topology artifacts.
        Outages that would island the grid are rejected with
        :class:`~repro.exceptions.IslandingError` naming the out-of-service
        branches.
        """
        s = np.asarray(status, dtype=bool).ravel()
        if s.shape[0] != self.n_branches:
            raise GridModelError(
                f"expected {self.n_branches} status flags, got {s.shape[0]}"
            )
        normalized = _normalized_status(s)
        if normalized is None:
            if self.branch_status is None:
                return self
            return replace(self, branch_status=None)
        lost = _disconnected_buses(
            self.branch_from, self.branch_to, self.n_buses, s
        )
        if lost:
            outaged = tuple(int(k) for k in np.flatnonzero(~s))
            raise IslandingError(
                f"branch outage {list(outaged)} islands the network: "
                f"buses {lost} are disconnected",
                branches=outaged,
            )
        return replace(self, branch_status=normalized)

    def with_branch_outages(self, branch_indices: Sequence[int]) -> "NetworkArrays":
        """Convenience wrapper: take the listed branches out of service.

        Outages compose with any outages already present on ``self``.
        """
        status = self.in_service_mask()
        for index in branch_indices:
            k = int(index)
            if not (0 <= k < self.n_branches):
                raise GridModelError(f"unknown branch index {k}")
            status[k] = False
        return self.with_branch_status(status)

    # ------------------------------------------------------------------
    # PowerNetwork read-API mirror
    # ------------------------------------------------------------------
    @property
    def arrays(self) -> "NetworkArrays":
        """Self — lets consumers write ``network.arrays`` for either type."""
        return self

    @property
    def n_buses(self) -> int:
        """Number of buses ``N``."""
        return self.bus_load_mw.shape[0]

    @property
    def n_branches(self) -> int:
        """Number of branches ``L``."""
        return self.branch_reactance.shape[0]

    @property
    def n_generators(self) -> int:
        """Number of generators."""
        return self.gen_bus.shape[0]

    @property
    def n_measurements(self) -> int:
        """Number of SCADA measurements ``M = 2L + N``."""
        return 2 * self.n_branches + self.n_buses

    @property
    def slack_bus(self) -> int:
        """Index of the slack (angle reference) bus."""
        return self.slack

    @cached_property
    def dfacts_branches(self) -> tuple[int, ...]:
        """Indices of in-service branches equipped with D-FACTS devices.

        Computed on first read and kept: both masks it reads are frozen, and
        every derivation builds a new view.
        """
        return tuple(np.flatnonzero(self._active_dfacts()).tolist())

    def _active_dfacts(self) -> np.ndarray:
        """Boolean mask of D-FACTS branches that are in service."""
        if self.branch_status is None:
            return self.branch_has_dfacts
        return self.branch_has_dfacts & self.branch_status

    def in_service_mask(self) -> np.ndarray:
        """Per-branch service status as a fresh mutable boolean vector."""
        if self.branch_status is None:
            return np.ones(self.n_branches, dtype=bool)
        return self.branch_status.copy()

    @property
    def n_active_branches(self) -> int:
        """Number of in-service branches."""
        if self.branch_status is None:
            return self.n_branches
        return int(np.count_nonzero(self.branch_status))

    def loads_mw(self) -> np.ndarray:
        """Bus load vector in MW (a fresh mutable copy)."""
        return self.bus_load_mw.copy()

    def reactances(self) -> np.ndarray:
        """Branch reactance vector in per unit (a fresh mutable copy)."""
        return self.branch_reactance.copy()

    def reactance_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """``(x_min, x_max)`` honouring the D-FACTS limits.

        Branches without D-FACTS have ``x_min == x_max == x``, matching the
        per-component :attr:`Branch.reactance_min`/``_max`` convention.
        """
        x = self.branch_reactance
        dfacts = self._active_dfacts()
        x_min = np.where(dfacts, x * self.branch_dfacts_min, x)
        x_max = np.where(dfacts, x * self.branch_dfacts_max, x)
        return x_min, x_max

    def flow_limits_mw(self) -> np.ndarray:
        """Branch flow limit vector ``F^max`` in MW (a fresh mutable copy)."""
        return self.branch_rate_mw.copy()

    def generator_buses(self) -> np.ndarray:
        """Bus index of each generator (a fresh mutable copy)."""
        return np.asarray(self.gen_bus, dtype=int).copy()

    def generator_limits_mw(self) -> tuple[np.ndarray, np.ndarray]:
        """``(p_min, p_max)`` generator limit vectors in MW (copies)."""
        return self.gen_p_min_mw.copy(), self.gen_p_max_mw.copy()

    def generator_costs(self) -> np.ndarray:
        """Linear marginal cost vector in $/MWh (a fresh mutable copy)."""
        return self.gen_cost_per_mwh.copy()

    def total_load_mw(self) -> float:
        """Total system demand in MW."""
        return float(np.sum(self.bus_load_mw))

    def total_generation_capacity_mw(self) -> float:
        """Sum of generator maximum outputs in MW."""
        return float(np.sum(self.gen_p_max_mw))

    def describe(self) -> str:
        """A short human-readable summary of the case."""
        return (
            f"NetworkArrays(name={self.name or 'unnamed'!r}, buses={self.n_buses}, "
            f"branches={self.n_branches}, generators={self.n_generators}, "
            f"dfacts={len(self.dfacts_branches)}, "
            f"total_load={self.total_load_mw():.1f} MW)"
        )


__all__ = ["NetworkArrays", "TopologyCache"]
