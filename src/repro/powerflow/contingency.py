"""N-1 contingency analysis: LODF factors and incremental PTDF updates.

A branch outage changes the network topology, which historically forced a
full rebuild of every derived matrix (``B``, ``H``, PTDF) per contingency.
This module provides the *incremental* route: the classical line outage
distribution factors (LODF) express every post-outage quantity as a rank-1
update of the base-case PTDF.  Each outage needs only its own LODF column,
which :func:`ptdf_with_branch_outage` and :func:`screen_branch_outages`
compute per outaged branch:

.. math::

    \\text{LODF}_{l,k} = \\frac{\\varphi_{l,i_k} - \\varphi_{l,j_k}}
                              {1 - (\\varphi_{k,i_k} - \\varphi_{k,j_k})}

where ``φ`` is the base PTDF and ``(i_k, j_k)`` the terminals of the
outaged branch ``k``.  The post-outage PTDF is then

.. math::  \\varphi' = \\varphi + \\text{LODF}_{:,k} \\, \\varphi_{k,:}

with row ``k`` zeroed (a dead branch carries no flow) — a Sherman–Morrison
rank-1 identity on the reduced susceptance inverse.  The denominator
vanishes exactly when branch ``k`` is a bridge, i.e. when its outage
islands the grid, so a near-zero denominator doubles as the islanding
detector.

Decision policy (mirrored by :func:`post_outage_ptdf`):

* single-branch outage, well-conditioned denominator → rank-1 update;
* denominator within :data:`ISLANDING_TOL` of zero → exact graph check:
  a true bridge raises :class:`~repro.exceptions.IslandingError`, a merely
  ill-conditioned (but connected) outage falls back to a full rebuild;
* multi-branch outage → full rebuild on the status-derived network (the
  rank-1 identity does not compose safely across interacting outages).

The derived-network route (:meth:`PowerNetwork.with_branch_status
<repro.grid.network.PowerNetwork.with_branch_status>`) stays the semantic
ground truth: the golden tests assert the rank-1 results bit-close against
matrices rebuilt from the derived network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import IslandingError, PowerFlowError
from repro.grid.matrices import NetworkLike
from repro.powerflow.ptdf import ptdf_matrix
from repro.telemetry import metrics as _metrics
from repro.telemetry.config import _STATE as _TELEMETRY

#: Denominator magnitude below which a rank-1 LODF update is not trusted.
#: ``1 - (φ_{k,i_k} - φ_{k,j_k})`` is exactly zero for a bridge; values
#: merely *near* zero trigger the exact graph check / rebuild fallback.
ISLANDING_TOL: float = 1e-8


def _count(event: str) -> None:
    """Mirror one contingency-path decision into the telemetry counters."""
    if _TELEMETRY.enabled:
        _metrics.counter(f"contingency.{event}")


def _branch_terminals(network: NetworkLike) -> tuple[np.ndarray, np.ndarray]:
    arrays = network.arrays
    return arrays.branch_from, arrays.branch_to


def _check_branch_index(network: NetworkLike, branch: int) -> int:
    k = int(branch)
    if not (0 <= k < network.n_branches):
        raise PowerFlowError(f"unknown branch index {k}")
    return k


def bridge_branches(network: NetworkLike) -> tuple[int, ...]:
    """Indices of in-service branches whose outage would island the grid.

    Classical bridge finding (iterative Tarjan low-link) over the
    in-service branch multigraph.  Parallel branches between the same bus
    pair are never bridges — the edge *index*, not the neighbour, is
    excluded when recursing — and out-of-service branches neither appear
    as edges nor as candidates.
    """
    arrays = network.arrays
    n = arrays.n_buses
    status = arrays.branch_status
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k in range(arrays.n_branches):
        if status is not None and not status[k]:
            continue
        u, v = int(arrays.branch_from[k]), int(arrays.branch_to[k])
        adjacency[u].append((v, k))
        adjacency[v].append((u, k))

    order = np.full(n, -1, dtype=int)
    low = np.zeros(n, dtype=int)
    bridges: list[int] = []
    counter = 0
    for root in range(n):
        if order[root] != -1:
            continue
        # Iterative DFS: each stack frame is (node, incoming edge index,
        # iterator position into the adjacency list).
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]
        order[root] = low[root] = counter
        counter += 1
        while stack:
            node, in_edge, pos = stack[-1]
            if pos < len(adjacency[node]):
                stack[-1] = (node, in_edge, pos + 1)
                neighbour, edge = adjacency[node][pos]
                if edge == in_edge:
                    continue
                if order[neighbour] == -1:
                    order[neighbour] = low[neighbour] = counter
                    counter += 1
                    stack.append((neighbour, edge, 0))
                else:
                    low[node] = min(low[node], order[neighbour])
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[node])
                    if low[node] > order[parent]:
                        bridges.append(in_edge)
    return tuple(sorted(bridges))


def ptdf_with_branch_outage(
    network: NetworkLike,
    branch: int,
    base_ptdf: np.ndarray | None = None,
    reactances: np.ndarray | None = None,
) -> np.ndarray:
    """Post-outage PTDF of a single branch outage via the rank-1 update.

    Equivalent (to floating-point accuracy; asserted in the golden tests)
    to ``ptdf_matrix(network.with_branch_outages([branch]))`` but reuses
    the base factorisation: given ``base_ptdf`` the update costs one
    ``L x N`` outer product instead of a reduced-``B`` factorisation.

    Raises
    ------
    IslandingError
        When ``branch`` is a bridge (its LODF denominator vanishes).
    """
    k = _check_branch_index(network, branch)
    phi = ptdf_matrix(network, reactances) if base_ptdf is None else base_ptdf
    from_bus, to_bus = _branch_terminals(network)
    column = phi[:, from_bus[k]] - phi[:, to_bus[k]]
    denominator = 1.0 - column[k]
    if abs(denominator) < ISLANDING_TOL:
        raise IslandingError(
            f"branch outage [{k}] islands the network "
            f"(LODF denominator {denominator:.3e} vanishes)",
            branches=(k,),
        )
    _count("rank1_updates")
    updated = phi + np.outer(column / denominator, phi[k, :])
    updated[k, :] = 0.0
    return updated


def post_outage_ptdf(
    network: NetworkLike,
    branches: Sequence[int],
    base_ptdf: np.ndarray | None = None,
    reactances: np.ndarray | None = None,
) -> np.ndarray:
    """Post-outage PTDF for an arbitrary outage set, fast path when possible.

    Single-branch outages take the rank-1 route of
    :func:`ptdf_with_branch_outage`; multi-branch outages (where rank-1
    updates interact) and numerically borderline single outages fall back
    to a full rebuild on the status-derived network.  Islanding outage
    sets raise :class:`~repro.exceptions.IslandingError` on either route.
    """
    outages = sorted({_check_branch_index(network, b) for b in branches})
    if not outages:
        return ptdf_matrix(network, reactances) if base_ptdf is None else base_ptdf.copy()
    if len(outages) == 1:
        k = outages[0]
        phi = ptdf_matrix(network, reactances) if base_ptdf is None else base_ptdf
        from_bus, to_bus = _branch_terminals(network)
        denominator = 1.0 - (phi[k, from_bus[k]] - phi[k, to_bus[k]])
        if abs(denominator) >= ISLANDING_TOL:
            return ptdf_with_branch_outage(
                network, k, base_ptdf=phi, reactances=reactances
            )
        # Borderline denominator: an exact graph check separates a true
        # bridge (raise) from a merely ill-conditioned update (rebuild).
        # with_branch_outages performs the check and raises IslandingError.
    _count("rebuilds")
    derived = network.arrays.with_branch_outages(outages)
    if reactances is not None:
        derived = derived.with_reactances(reactances)
    return ptdf_matrix(derived)


@dataclass(frozen=True)
class ContingencyScreenResult:
    """Outcome of one N-1 screening sweep.

    Attributes
    ----------
    branch_indices:
        The outaged branch per screened contingency, in input order.
    flows_mw:
        Post-outage branch flows, shape ``(n_contingencies, L)``; row
        ``c`` is the flow vector with ``branch_indices[c]`` outaged (its
        own entry zero).
    method:
        ``"incremental"`` or ``"rebuild"`` — the route actually taken.
    """

    branch_indices: tuple[int, ...]
    flows_mw: np.ndarray
    method: str

    def overloads(self, limits_mw: np.ndarray, margin: float = 1.0) -> list[tuple[int, int]]:
        """``(outaged_branch, overloaded_branch)`` pairs exceeding limits."""
        limits = np.asarray(limits_mw, dtype=float).ravel()
        rows, cols = np.nonzero(np.abs(self.flows_mw) > margin * limits[None, :])
        return [(int(self.branch_indices[r]), int(c)) for r, c in zip(rows, cols)]


def screen_branch_outages(
    network: NetworkLike,
    branch_indices: Sequence[int],
    injections_mw: np.ndarray,
    method: str = "auto",
    reactances: np.ndarray | None = None,
    base_ptdf: np.ndarray | None = None,
) -> ContingencyScreenResult:
    """Screen single-branch outages: post-outage flows for each contingency.

    Parameters
    ----------
    network:
        The base network (all screened branches must be in service).
    branch_indices:
        Branches to outage, one contingency each.  A requested bridge
        raises :class:`~repro.exceptions.IslandingError` naming it; use
        :func:`bridge_branches` to pre-filter candidates.
    injections_mw:
        Balanced nodal injection vector, shape ``(N,)``.
    method:
        ``"incremental"`` (LODF flow transfer off one base PTDF,
        default via ``"auto"``) or ``"rebuild"`` (one PTDF factorisation
        per contingency on the status-derived network — the reference the
        incremental path is validated against).
    reactances:
        Optional branch-reactance override for the base case.
    base_ptdf:
        Optional precomputed base PTDF (incremental path only).
    """
    injections = np.asarray(injections_mw, dtype=float).ravel()
    if injections.shape[0] != network.n_buses:
        raise PowerFlowError(
            f"expected {network.n_buses} injections, got {injections.shape[0]}"
        )
    outages = [_check_branch_index(network, b) for b in branch_indices]
    if method == "auto":
        method = "incremental"
    if method not in ("incremental", "rebuild"):
        raise PowerFlowError(
            f"unknown screening method {method!r}; use 'auto', 'incremental' or 'rebuild'"
        )
    if method == "rebuild":
        arrays = network.arrays
        if reactances is not None:
            arrays = arrays.with_reactances(reactances)
        rows = []
        for k in outages:
            derived = arrays.with_branch_outages([k])
            rows.append(ptdf_matrix(derived) @ injections)
        _count("screen_rebuild")
        flows = np.asarray(rows) if rows else np.empty((0, network.n_branches))
        return ContingencyScreenResult(
            branch_indices=tuple(outages), flows_mw=flows, method="rebuild"
        )

    phi = ptdf_matrix(network, reactances) if base_ptdf is None else base_ptdf
    base_flows = phi @ injections
    from_bus, to_bus = _branch_terminals(network)
    k_idx = np.asarray(outages, dtype=np.intp)
    # (L, K) gather: column c is the flow-transfer direction of outage c.
    transfer = phi[:, from_bus[k_idx]] - phi[:, to_bus[k_idx]]
    denominator = 1.0 - transfer[k_idx, np.arange(k_idx.shape[0])]
    islanded = np.abs(denominator) < ISLANDING_TOL
    if np.any(islanded):
        offenders = tuple(int(k) for k in sorted(set(k_idx[islanded].tolist())))
        raise IslandingError(
            f"branch outage {list(offenders)} islands the network "
            "(LODF denominator vanishes)",
            branches=offenders,
        )
    scale = base_flows[k_idx] / denominator
    flows = base_flows[None, :] + (transfer * scale[None, :]).T
    flows[np.arange(k_idx.shape[0]), k_idx] = 0.0
    _count("screen_incremental")
    return ContingencyScreenResult(
        branch_indices=tuple(outages), flows_mw=flows, method="incremental"
    )


__all__ = [
    "ISLANDING_TOL",
    "ContingencyScreenResult",
    "bridge_branches",
    "ptdf_with_branch_outage",
    "post_outage_ptdf",
    "screen_branch_outages",
]
