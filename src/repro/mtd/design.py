"""MTD perturbation design (paper eq. (4)).

The defender selects the post-perturbation reactances ``x'`` by minimising
the operating cost subject to a lower bound on the smallest principal angle
between the attacker's measurement matrix ``H_t`` and the post-perturbation
matrix ``H'(x')``:

.. math::

    \\min_{g', x'} \\sum_i C_i(G'_i)
    \\quad \\text{s.t.} \\quad γ(H_t, H'(x')) ≥ γ_{th},
    \\; g' − l = B(x')θ', \\; |f'| ≤ f^{max}, \\; g^{min} ≤ g' ≤ g^{max},
    \\; x^{min} ≤ x' ≤ x^{max}.

Two solution strategies are provided:

* ``"joint"`` (default) — the faithful reproduction: a single non-linear
  program solved by SLSQP under MultiStart, exactly mirroring the paper's
  ``fmincon``/MultiStart approach.
* ``"two-stage"`` — a fast heuristic: find the maximum-SPA perturbation
  within the D-FACTS limits, walk back along the segment towards the nominal
  reactances until the SPA constraint is just met, and re-dispatch with the
  dispatch-only OPF.  The joint method uses this point as a feasible warm
  start, and falls back to it if no MultiStart run converges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np
from scipy.optimize import minimize

from repro.exceptions import (
    ConfigurationError,
    MTDDesignError,
    OPFConvergenceError,
    OPFInfeasibleError,
)
from repro.grid.matrices import reduced_measurement_matrix
from repro.grid.network import PowerNetwork
from repro.mtd.perturbation import ReactancePerturbation
from repro.mtd.subspace import FactoredMatrix, subspace_angle
from repro.opf.dc_opf import solve_dc_opf
from repro.opf.reactance_opf import solve_reactance_opf
from repro.opf.result import OPFResult
from repro.utils.rng import as_generator

DesignMethod = Literal["joint", "two-stage", "max-spa"]

#: Bound on a :class:`DesignContext`'s memo entries; a full daily-operation
#: tuning run stays far below it, so hitting the cap simply restarts the
#: memo rather than degrading results.
_CONTEXT_MAX_ENTRIES: int = 20_000


class DesignContext:
    """Per-hour memoisation shared by repeated MTD design calls.

    The daily-operation tuning loop prices several SPA thresholds against
    the *same* attacker view and load vector.  Most of each two-stage design
    call is threshold-independent: the continuous max-SPA search, the
    subspace angles of the D-FACTS box corners, and the OPF pricing of
    candidate points that recur across thresholds (anchors and the fixed
    step grid along each direction).  A context carries those results from
    one call to the next, so tuning ``K`` thresholds stops costing ``K``
    full designs.

    Every memo caches a pure deterministic function of its key, so serving
    a hit is bit-identical to recomputing.  The max-SPA memo is additionally
    gated on :meth:`reuse_max_spa_safe`: it is only consulted when the
    design path provably never draws from its RNG (full corner enumeration
    with enough corners to seed the polish starts), because skipping a
    computation that *would* have consumed random draws would shift every
    draw after it.
    """

    __slots__ = ("spa", "opf", "max_spa")

    def __init__(self) -> None:
        self.spa: dict[bytes, float] = {}
        #: x-bytes → OPFResult, or ``None`` for an infeasible dispatch.
        self.opf: dict[bytes, OPFResult | None] = {}
        #: (base-x bytes, n_starts) → (best reactances, achieved SPA).
        self.max_spa: dict[tuple[bytes, int], tuple[np.ndarray, float]] = {}

    def trim(self) -> None:
        """Restart the memos once they exceed the (generous) size cap."""
        for memo in (self.spa, self.opf, self.max_spa):
            if len(memo) > _CONTEXT_MAX_ENTRIES:
                memo.clear()

    @staticmethod
    def reuse_max_spa_safe(network: PowerNetwork, n_starts: int = 6) -> bool:
        """Whether the max-SPA search is RNG-free for this network.

        True when the D-FACTS box is small enough for full corner
        enumeration (``<= _MAX_ENUMERATED_DFACTS`` devices) *and* large
        enough that the enumerated corners already cover the requested
        polish starts (``2^k >= n_starts``), so no random corners or
        starts are ever drawn — serving the memo then leaves a caller's
        generator in exactly the state recomputation would.
        """
        k = len(network.dfacts_branches)
        return k <= _MAX_ENUMERATED_DFACTS and 2**k >= max(2, int(n_starts))


@dataclass(frozen=True)
class MTDDesignResult:
    """Outcome of an MTD design run.

    Attributes
    ----------
    perturbation:
        The selected reactance perturbation.
    opf:
        The OPF solution of the perturbed system (dispatch, flows, cost).
    achieved_spa:
        ``γ(H_t, H'(x'))`` at the selected perturbation, in radians.
    gamma_threshold:
        The requested SPA lower bound ``γ_th`` (``None`` for the pure
        max-SPA design).
    method:
        The strategy that produced this result.
    """

    perturbation: ReactancePerturbation
    opf: OPFResult
    achieved_spa: float
    gamma_threshold: float | None
    method: str

    @property
    def perturbed_reactances(self) -> np.ndarray:
        """Post-perturbation reactance vector ``x'``."""
        return self.perturbation.perturbed_reactances

    @property
    def cost(self) -> float:
        """OPF cost of the perturbed system ($/h)."""
        return self.opf.cost


def spa_of_reactances(
    network: PowerNetwork,
    attacker_matrix: np.ndarray | FactoredMatrix,
    reactances: np.ndarray,
) -> float:
    """``γ(H_t, H(x))`` for a candidate reactance vector ``x``.

    Uses the operational subspace-angle metric (see
    :func:`repro.mtd.subspace.subspace_angle` for why this is the largest
    principal angle).  ``attacker_matrix`` is ``H_t`` as an array or as a
    :class:`~repro.mtd.subspace.FactoredMatrix`; the design search passes
    the latter, so ``H_t`` is factored once per search, not per candidate.
    """
    candidate = reduced_measurement_matrix(network, np.asarray(reactances, dtype=float))
    return subspace_angle(attacker_matrix, candidate)


def design_mtd_perturbation(
    network: PowerNetwork,
    gamma_threshold: float,
    attacker_reactances: np.ndarray | None = None,
    loads_mw: np.ndarray | None = None,
    method: DesignMethod = "joint",
    preferred_reactances: np.ndarray | None = None,
    n_random_starts: int = 2,
    max_iterations: int = 200,
    seed: int | np.random.Generator | None = 0,
    context: DesignContext | None = None,
) -> MTDDesignResult:
    """Select an MTD perturbation meeting an SPA target at minimum cost.

    Parameters
    ----------
    network:
        Grid with D-FACTS devices (their limits bound the search).
    gamma_threshold:
        Required smallest principal angle ``γ_th`` in radians, within
        ``[0, π/2]``.
    attacker_reactances:
        The pre-perturbation reactances the attacker learned (defines
        ``H_t``).  Defaults to the network's nominal reactances.
    loads_mw:
        Load vector of the operating hour ``t'`` (defaults to the network's
        nominal loads).
    method:
        ``"joint"`` (paper eq. (4) via SLSQP + MultiStart), ``"two-stage"``
        (fast heuristic), or ``"max-spa"`` (ignore cost, maximise the SPA).
    preferred_reactances:
        Optional cost-preferred reactance vector — typically the no-MTD OPF
        optimum of the current hour (which may differ from the attacker's
        stale knowledge).  The two-stage search additionally explores
        perturbations anchored at this point, so that loose SPA targets can
        be met at (near) zero cost, mirroring the behaviour of eq. (4).
    n_random_starts:
        Random MultiStart points for the joint method.
    max_iterations:
        Iteration cap per local solve of the joint method.
    seed:
        Seed for the random starting points.
    context:
        Optional :class:`DesignContext` shared by repeated calls against the
        same attacker view and load vector (the daily-operation tuning loop
        passes one per hour).  Serving memo hits is bit-identical to
        recomputing; a context must not be reused across different attacker
        reactances or loads.

    Returns
    -------
    MTDDesignResult

    Raises
    ------
    ConfigurationError
        For an unknown ``method``, before any OPF is solved.
    MTDDesignError
        If the D-FACTS range cannot achieve the requested ``γ_th`` or no
        feasible dispatch exists for any qualifying perturbation.
    """
    if method not in ("joint", "two-stage", "max-spa"):
        raise ConfigurationError(
            f"unknown design method {method!r}; use 'joint', 'two-stage' or 'max-spa'"
        )
    if not (0.0 <= gamma_threshold <= np.pi / 2):
        raise MTDDesignError(
            f"gamma_threshold must lie in [0, π/2], got {gamma_threshold}"
        )
    if not network.dfacts_branches:
        raise MTDDesignError("the network has no D-FACTS devices; MTD is impossible")

    base_x = network.reactances() if attacker_reactances is None else np.asarray(attacker_reactances, dtype=float)
    loads = network.loads_mw() if loads_mw is None else np.asarray(loads_mw, dtype=float)
    preferred = None if preferred_reactances is None else np.asarray(preferred_reactances, dtype=float)

    if method == "max-spa":
        return max_spa_perturbation(
            network,
            attacker_reactances=base_x,
            loads_mw=loads,
            seed=seed,
            context=context,
        )

    attacker_matrix = FactoredMatrix(reduced_measurement_matrix(network, base_x))
    two_stage = _two_stage_design(
        network, attacker_matrix, base_x, loads, gamma_threshold,
        preferred=preferred, seed=seed, context=context,
    )
    if method == "two-stage":
        return two_stage

    return _joint_design(
        network,
        attacker_matrix,
        base_x,
        loads,
        gamma_threshold,
        warm_start=two_stage,
        n_random_starts=n_random_starts,
        max_iterations=max_iterations,
        seed=seed,
    )


def max_spa_perturbation(
    network: PowerNetwork,
    attacker_reactances: np.ndarray | None = None,
    loads_mw: np.ndarray | None = None,
    n_starts: int = 6,
    require_feasible_dispatch: bool = True,
    seed: int | np.random.Generator | None = 0,
    context: DesignContext | None = None,
) -> MTDDesignResult:
    """Find the perturbation maximising ``γ(H_t, H'(x'))`` within D-FACTS limits.

    Cost is ignored during the search; the returned result still carries the
    dispatch-only OPF of the selected reactances so that its operational
    cost can be read off directly.

    Parameters
    ----------
    require_feasible_dispatch:
        When true (default), :class:`MTDDesignError` is raised if no feasible
        dispatch exists at the maximum-SPA reactances.  When false — used by
        detection-only studies such as the D-FACTS-placement ablation — an
        :class:`OPFResult` with ``success=False`` and infinite cost is
        attached instead, so the geometric result is still usable.
    """
    if not network.dfacts_branches:
        raise MTDDesignError("the network has no D-FACTS devices; MTD is impossible")
    base_x = network.reactances() if attacker_reactances is None else np.asarray(attacker_reactances, dtype=float)
    attacker_matrix = FactoredMatrix(reduced_measurement_matrix(network, base_x))
    loads = network.loads_mw() if loads_mw is None else np.asarray(loads_mw, dtype=float)

    best_x, best_spa = _maximize_spa_memoized(
        network, attacker_matrix, base_x, n_starts=n_starts, seed=seed, context=context
    )
    try:
        opf = _dispatch_for(network, best_x, loads)
    except MTDDesignError:
        if require_feasible_dispatch:
            raise
        opf = _infeasible_placeholder(network, best_x)
    perturbation = ReactancePerturbation.from_perturbed(
        network, best_x, base_reactances=base_x
    )
    return MTDDesignResult(
        perturbation=perturbation,
        opf=opf,
        achieved_spa=best_spa,
        gamma_threshold=None,
        method="max-spa",
    )


def _infeasible_placeholder(network: PowerNetwork, reactances: np.ndarray) -> OPFResult:
    """An explicitly unsuccessful OPF result for detection-only studies."""
    return OPFResult(
        cost=float("inf"),
        dispatch_mw=np.zeros(network.n_generators),
        angles_rad=np.zeros(network.n_buses),
        flows_mw=np.zeros(network.n_branches),
        reactances=np.asarray(reactances, dtype=float),
        success=False,
        status="no feasible dispatch at the maximum-SPA reactances",
    )


# ----------------------------------------------------------------------
# Internal helpers
# ----------------------------------------------------------------------
def _dfacts_box(network: PowerNetwork) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (indices, lower, upper) of the D-FACTS reactance box."""
    arrays = network.arrays
    indices = np.flatnonzero(arrays.branch_has_dfacts)
    x_min, x_max = arrays.reactance_bounds()
    return indices, x_min[indices], x_max[indices]


def _expand(network: PowerNetwork, base_x: np.ndarray, x_d: np.ndarray) -> np.ndarray:
    """Insert D-FACTS reactances into a copy of the base reactance vector."""
    indices = np.flatnonzero(network.arrays.branch_has_dfacts)
    full = base_x.copy()
    full[indices] = x_d
    return full


#: Enumerate every corner of the D-FACTS box when there are at most this
#: many devices (2^8 = 256 candidate evaluations); beyond that only sampled
#: corners and local polish are used.
_MAX_ENUMERATED_DFACTS: int = 8


def _maximize_spa(
    network: PowerNetwork,
    attacker_matrix: FactoredMatrix,
    base_x: np.ndarray,
    n_starts: int,
    seed: int | np.random.Generator | None,
) -> tuple[np.ndarray, float]:
    """Search the D-FACTS box for the reactance vector maximising the SPA.

    The subspace angle tends to be maximised at (or near) corners of the box
    (the further every perturbable reactance moves, the further the column
    space rotates), so the search enumerates corners when that is cheap and
    polishes the best candidates with a bounded quasi-Newton method.
    """
    indices, lower, upper = _dfacts_box(network)
    rng = as_generator(seed)

    def spa_of(x_d: np.ndarray) -> float:
        full = _expand(network, base_x, np.clip(x_d, lower, upper))
        return spa_of_reactances(network, attacker_matrix, full)

    def negative_spa(x_d: np.ndarray) -> float:
        return -spa_of(x_d)

    # Candidate corners: full enumeration when small, random corners plus the
    # all-low / all-high / alternating corners otherwise.
    corners: list[np.ndarray] = []
    if indices.size <= _MAX_ENUMERATED_DFACTS:
        for bits in range(2**indices.size):
            mask = np.array([(bits >> k) & 1 for k in range(indices.size)], dtype=bool)
            corners.append(np.where(mask, upper, lower))
    else:
        corners.extend(
            [lower.copy(), upper.copy(),
             np.where(np.arange(indices.size) % 2 == 0, upper, lower)]
        )
        for _ in range(32):
            mask = rng.integers(0, 2, size=indices.size).astype(bool)
            corners.append(np.where(mask, upper, lower))

    ranked = sorted(corners, key=spa_of, reverse=True)
    starts = ranked[: max(2, n_starts)]
    for _ in range(max(0, n_starts - len(starts))):
        starts.append(rng.uniform(lower, upper))

    best_x_d = max(starts, key=spa_of)
    best_value = -spa_of(best_x_d)
    for start in starts:
        result = minimize(
            negative_spa,
            start,
            method="L-BFGS-B",
            bounds=list(zip(lower, upper)),
        )
        if result.fun < best_value:
            best_value = float(result.fun)
            best_x_d = np.clip(np.asarray(result.x, dtype=float), lower, upper)
    best_full = _expand(network, base_x, best_x_d)
    return best_full, spa_of_reactances(network, attacker_matrix, best_full)


def _maximize_spa_memoized(
    network: PowerNetwork,
    attacker_matrix: FactoredMatrix,
    base_x: np.ndarray,
    n_starts: int,
    seed: int | np.random.Generator | None,
    context: DesignContext | None,
) -> tuple[np.ndarray, float]:
    """:func:`_maximize_spa` with context reuse when it is provably RNG-free."""
    if context is None or not DesignContext.reuse_max_spa_safe(network, n_starts):
        return _maximize_spa(network, attacker_matrix, base_x, n_starts=n_starts, seed=seed)
    key = (base_x.tobytes(), int(n_starts))
    hit = context.max_spa.get(key)
    if hit is None:
        hit = _maximize_spa(network, attacker_matrix, base_x, n_starts=n_starts, seed=seed)
        context.max_spa[key] = hit
        context.trim()
    return hit[0].copy(), hit[1]


#: Number of candidate perturbation directions priced by the two-stage
#: design.  Each direction costs one short line search plus one LP solve.
_TWO_STAGE_DIRECTIONS: int = 12


def _two_stage_design(
    network: PowerNetwork,
    attacker_matrix: FactoredMatrix,
    base_x: np.ndarray,
    loads: np.ndarray,
    gamma_threshold: float,
    preferred: np.ndarray | None,
    seed: int | np.random.Generator | None,
    context: DesignContext | None = None,
) -> MTDDesignResult:
    """Cost-aware heuristic for the SPA-constrained design.

    Candidate perturbation *directions* (corners of the D-FACTS box that
    achieve a large SPA, plus the best point found by the continuous SPA
    maximisation) are explored from one or two anchor points — the
    attacker's reactances and, when provided, the cost-preferred reactances
    of the current hour.  Along each anchor→corner segment the earliest step
    meeting the SPA constraint and a few larger steps are priced with the
    dispatch-only OPF, and the cheapest qualifying point overall is returned.
    This keeps the design cheap when a small SPA is requested (some
    direction usually avoids creating congestion) while remaining feasible
    up to the maximum achievable SPA.
    """
    indices, lower, upper = _dfacts_box(network)
    rng = as_generator(seed)

    max_x, max_spa = _maximize_spa_memoized(
        network, attacker_matrix, base_x, n_starts=6, seed=rng, context=context
    )
    if max_spa + 1e-9 < gamma_threshold:
        raise MTDDesignError(
            f"the D-FACTS range cannot achieve γ_th={gamma_threshold:.3f} rad "
            f"(maximum achievable SPA is {max_spa:.3f} rad)"
        )

    if context is None:

        def spa_of_full(x_full: np.ndarray) -> float:
            return spa_of_reactances(network, attacker_matrix, x_full)

    else:

        def spa_of_full(x_full: np.ndarray) -> float:
            key = x_full.tobytes()
            value = context.spa.get(key)
            if value is None:
                value = spa_of_reactances(network, attacker_matrix, x_full)
                context.spa[key] = value
            return value

    # Candidate far points: the continuous maximiser plus box corners ranked
    # by their SPA (only corners that can meet the threshold are useful).
    corner_candidates: list[np.ndarray] = []
    if indices.size <= _MAX_ENUMERATED_DFACTS:
        for bits in range(2**indices.size):
            mask = np.array([(bits >> k) & 1 for k in range(indices.size)], dtype=bool)
            corner_candidates.append(_expand(network, base_x, np.where(mask, upper, lower)))
    else:
        for _ in range(4 * _TWO_STAGE_DIRECTIONS):
            mask = rng.integers(0, 2, size=indices.size).astype(bool)
            corner_candidates.append(_expand(network, base_x, np.where(mask, upper, lower)))
    qualifying_corners = [x for x in corner_candidates if spa_of_full(x) >= gamma_threshold]
    qualifying_corners.sort(key=spa_of_full, reverse=True)
    far_points = [max_x] + qualifying_corners[: _TWO_STAGE_DIRECTIONS - 1]

    anchors = [base_x]
    if preferred is not None and not np.allclose(preferred, base_x):
        anchors.append(np.clip(preferred, *network.reactance_bounds()))

    best: tuple[float, np.ndarray, float, OPFResult] | None = None

    def priced_opf(candidate_x: np.ndarray) -> OPFResult | None:
        """Dispatch-only OPF at ``candidate_x``; ``None`` when infeasible."""
        if context is not None:
            key = candidate_x.tobytes()
            if key in context.opf:
                return context.opf[key]
        try:
            opf = solve_dc_opf(network, reactances=candidate_x, loads_mw=loads)
        except OPFInfeasibleError:
            opf = None
        if context is not None:
            context.opf[candidate_x.tobytes()] = opf
        return opf

    def consider(candidate_x: np.ndarray) -> None:
        nonlocal best
        candidate_spa = spa_of_full(candidate_x)
        if candidate_spa + 1e-9 < gamma_threshold:
            return
        opf = priced_opf(candidate_x)
        if opf is None:
            return
        if best is None or opf.cost < best[0]:
            best = (opf.cost, candidate_x, candidate_spa, opf)

    for anchor in anchors:
        consider(anchor)
        for far in far_points:
            _, achieved, t_min = _backtrack_to_threshold(
                anchor, far, gamma_threshold, spa_of_full
            )
            if achieved + 1e-9 < gamma_threshold:
                continue
            # Price the minimal qualifying step plus larger steps along the
            # same direction: the LP cost is not monotone in the step size (a
            # larger move can relieve congestion), so the cheapest qualifying
            # point is not always the smallest one.
            steps = {t_min, 1.0}
            steps.update(t for t in np.arange(0.1, 1.0, 0.1) if t > t_min)
            for t in steps:
                consider(anchor + t * (far - anchor))

    if context is not None:
        context.trim()
    if best is None:
        # Every qualifying perturbation left the dispatch infeasible.
        raise MTDDesignError(
            "no feasible dispatch exists for any perturbation meeting "
            f"γ_th={gamma_threshold:.3f} rad; consider relaxing the SPA "
            "threshold or the flow limits"
        )
    _, chosen_x, achieved, opf = best
    perturbation = ReactancePerturbation.from_perturbed(network, chosen_x, base_reactances=base_x)
    return MTDDesignResult(
        perturbation=perturbation,
        opf=opf,
        achieved_spa=achieved,
        gamma_threshold=gamma_threshold,
        method="two-stage",
    )


def _backtrack_to_threshold(
    base_x: np.ndarray,
    far_x: np.ndarray,
    gamma_threshold: float,
    spa_of_full,
) -> tuple[np.ndarray, float, float]:
    """Smallest step along ``base → far`` whose SPA meets the threshold.

    The SPA is not guaranteed monotone along the segment, so a coarse scan
    locates the earliest qualifying interval before bisecting into it.  The
    returned point always satisfies the threshold when the far end does.
    Returns ``(x, achieved_spa, t)``.
    """

    def spa_at(t: float) -> float:
        return spa_of_full(base_x + t * (far_x - base_x))

    t_grid = np.linspace(0.0, 1.0, 21)
    qualifying = [float(t) for t in t_grid if spa_at(float(t)) >= gamma_threshold]
    if not qualifying:
        chosen = far_x.copy()
        return chosen, spa_at(1.0), 1.0
    t_high = min(qualifying)
    t_low = max(0.0, t_high - float(t_grid[1]))
    for _ in range(25):
        t_mid = 0.5 * (t_low + t_high)
        if spa_at(t_mid) >= gamma_threshold:
            t_high = t_mid
        else:
            t_low = t_mid
    chosen = base_x + t_high * (far_x - base_x)
    return chosen, spa_at(t_high), t_high


def _joint_design(
    network: PowerNetwork,
    attacker_matrix: FactoredMatrix,
    base_x: np.ndarray,
    loads: np.ndarray,
    gamma_threshold: float,
    warm_start: MTDDesignResult,
    n_random_starts: int,
    max_iterations: int,
    seed: int | np.random.Generator | None,
) -> MTDDesignResult:
    """The SPA-constrained OPF of eq. (4) via SLSQP + MultiStart."""

    def spa_constraint(x_full: np.ndarray) -> float:
        return spa_of_reactances(network, attacker_matrix, x_full) - gamma_threshold

    try:
        opf = solve_reactance_opf(
            network,
            loads_mw=loads,
            extra_reactance_constraints=[spa_constraint],
            n_random_starts=n_random_starts,
            max_iterations=max_iterations,
            seed=seed,
        )
    except (OPFConvergenceError, OPFInfeasibleError):
        # Fall back to the (feasible but possibly sub-optimal) two-stage design.
        return warm_start

    achieved = spa_of_reactances(network, attacker_matrix, opf.reactances)
    if achieved + 1e-6 < gamma_threshold or opf.cost > warm_start.cost + 1e-6:
        # The local solver either drifted below the SPA target or ended in a
        # worse local optimum than the heuristic; keep the better design.
        if warm_start.achieved_spa + 1e-9 >= gamma_threshold:
            return warm_start
    perturbation = ReactancePerturbation.from_perturbed(network, opf.reactances, base_reactances=base_x)
    return MTDDesignResult(
        perturbation=perturbation,
        opf=opf,
        achieved_spa=achieved,
        gamma_threshold=gamma_threshold,
        method="joint",
    )


def _dispatch_for(network: PowerNetwork, reactances: np.ndarray, loads: np.ndarray) -> OPFResult:
    try:
        return solve_dc_opf(network, reactances=reactances, loads_mw=loads)
    except OPFInfeasibleError as exc:
        raise MTDDesignError(
            "no feasible dispatch exists for the selected perturbation; "
            "consider relaxing the SPA threshold or the flow limits"
        ) from exc


__all__ = [
    "DesignContext",
    "MTDDesignResult",
    "design_mtd_perturbation",
    "max_spa_perturbation",
    "spa_of_reactances",
    "DesignMethod",
]
