"""Joint dispatch + D-FACTS reactance OPF (paper eq. (1)).

When D-FACTS devices are installed, the operator may optimise branch
reactances alongside the generation dispatch.  The resulting problem is
non-linear (the nodal balance couples reactances and angles through
``B(x) θ``) and non-convex; following the paper we solve it with a local SQP
method under a MultiStart driver.

The same machinery serves the MTD design problem of eq. (4): the caller adds
extra inequality constraints that depend only on the full branch-reactance
vector (e.g. the subspace-angle constraint ``γ(H_t, H'(x)) ≥ γ_th``).

The balance and flow constraints are bilinear in the angles and the inverse
reactances, so the problem hands SLSQP their exact Jacobians.  Only the
caller's extra constraints are finite-differenced, and only over the D-FACTS
reactance columns they depend on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import OPFConvergenceError, OPFInfeasibleError
from repro.grid.matrices import (
    NetworkLike,
    generator_incidence_matrix,
    incidence_matrix,
    non_slack_indices,
)
from repro.opf.dc_opf import solve_dc_opf
from repro.opf.multistart import MultiStartOptimizer, MultiStartOutcome
from repro.opf.result import OPFResult
from repro.telemetry import metrics as _metrics
from repro.telemetry.config import _STATE as _TELEMETRY
from repro.utils.rng import as_generator

#: Signature of a constraint depending only on the branch reactance vector.
#: The callable must return a value (or vector) that is non-negative when
#: the constraint is satisfied.
ReactanceConstraint = Callable[[np.ndarray], float | np.ndarray]

#: Forward-difference step (p.u.) for the extra reactance constraints: the
#: absolute step SLSQP itself uses, ``sqrt(machine epsilon)``.
_DIFFERENCE_STEP = float(np.sqrt(np.finfo(float).eps))

#: A feasible MultiStart run whose objective lies within this relative band
#: of the best one is a near tie ...
_NEAR_TIE_RTOL = 1e-9
#: ... when its D-FACTS reactances differ from the best run's by more than
#: this (p.u., max norm): a distinct point on a flat optimum.
_NEAR_TIE_XTOL = 1e-6
#: Bucket boundaries of the ``opf.multistart.iterations`` histogram.
_ITERATION_BUCKETS = (5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 300.0)


@dataclass
class ReactanceOPFProblem:
    """The joint dispatch + reactance OPF in decision-vector form.

    The decision vector is ``z = [g (p.u.), θ_non-slack (rad), x_D (p.u.)]``
    where ``x_D`` contains only the reactances of D-FACTS-equipped branches.
    """

    network: NetworkLike
    loads_mw: np.ndarray
    extra_reactance_constraints: tuple[ReactanceConstraint, ...] = ()

    def __post_init__(self) -> None:
        network = self.network
        self.loads_mw = np.asarray(self.loads_mw, dtype=float).ravel()
        if self.loads_mw.shape[0] != network.n_buses:
            raise OPFInfeasibleError(
                f"expected {network.n_buses} loads, got {self.loads_mw.shape[0]}",
                status="bad-input",
            )
        self._base = network.base_mva
        self._n_gen = network.n_generators
        self._keep = non_slack_indices(network)
        self._n_theta = self._keep.shape[0]
        self._dfacts = np.array(network.dfacts_branches, dtype=int)
        self._n_dfacts = self._dfacts.shape[0]
        self._A = incidence_matrix(network)
        self._AT = np.ascontiguousarray(self._A.T)
        # ∂(Aᵀθ)/∂θ_non-slack, the angle block of every Jacobian.
        self._AT_keep = np.ascontiguousarray(self._AT[:, self._keep])
        self._C = generator_incidence_matrix(network)
        self._costs = network.generator_costs()
        self._p_min, self._p_max = network.generator_limits_mw()
        self._x_nominal = network.reactances()
        self._x_min, self._x_max = network.reactance_bounds()
        self._limits_pu = network.flow_limits_mw() / self._base
        self._finite_limits = np.isfinite(self._limits_pu)
        self._loads_pu = self.loads_mw / self._base
        self._gradient = np.zeros(self.n_variables)
        self._gradient[: self._n_gen] = self._costs * self._base * self._objective_scale

    # ------------------------------------------------------------------
    # Decision-vector layout helpers
    # ------------------------------------------------------------------
    @property
    def n_variables(self) -> int:
        return self._n_gen + self._n_theta + self._n_dfacts

    @property
    def n_dfacts(self) -> int:
        return self._n_dfacts

    def split(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split ``z`` into ``(g_pu, θ_non-slack, x_D)``."""
        z = np.asarray(z, dtype=float).ravel()
        g = z[: self._n_gen]
        theta = z[self._n_gen : self._n_gen + self._n_theta]
        x_d = z[self._n_gen + self._n_theta :]
        return g, theta, x_d

    def full_reactances(self, x_d: np.ndarray) -> np.ndarray:
        """Expand D-FACTS reactances into the full branch reactance vector."""
        x = self._x_nominal.copy()
        if self._n_dfacts:
            x[self._dfacts] = x_d
        return x

    def full_angles(self, theta_reduced: np.ndarray) -> np.ndarray:
        """Expand reduced angles (non-slack buses) into a full angle vector."""
        theta = np.zeros(self.network.n_buses)
        theta[self._keep] = theta_reduced
        return theta

    # ------------------------------------------------------------------
    # Objective and constraints (SLSQP conventions)
    # ------------------------------------------------------------------
    def objective(self, z: np.ndarray) -> float:
        """Generation cost in $ per hour (scaled to keep SLSQP well conditioned)."""
        g, _, _ = self.split(z)
        return float(np.dot(self._costs * self._base, g)) * self._objective_scale

    #: Objective values around 1e4 $ are rescaled to O(10) for the SQP solver.
    _objective_scale: float = 1e-3

    def gradient(self, z: np.ndarray) -> np.ndarray:
        """Gradient of :meth:`objective`: constant, non-zero in ``g`` only."""
        return self._gradient.copy()

    def _state(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(g, x, θ)``: dispatch, full reactances and full angles."""
        g, theta_red, x_d = self.split(z)
        return g, self.full_reactances(x_d), self.full_angles(theta_red)

    # The constraint values scale by ``1/x`` over C-ordered matrices so they
    # round exactly as the ``diag(1/x)`` products they replace: on a flat
    # optimum, last-digit changes decide which MultiStart run wins.
    def _flows(self, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Branch flows ``diag(1/x) Aᵀ θ`` (p.u.)."""
        return ((1.0 / x)[:, None] * self._AT) @ theta

    def equality_constraints(self, z: np.ndarray) -> np.ndarray:
        """Nodal power balance ``C g − l − B(x) θ`` (p.u.), must be zero."""
        g, x, theta = self._state(z)
        susceptance = (self._A * (1.0 / x)) @ self._A.T
        return self._C @ g - self._loads_pu - susceptance @ theta

    def equality_jacobian(self, z: np.ndarray) -> np.ndarray:
        """Jacobian of :meth:`equality_constraints`, ``(n_buses, n_variables)``.

        ``C`` in ``g``, ``−B(x)[:, keep]`` in ``θ`` and ``A[:, D]·d_D/x_D²``
        in ``x_D``.
        """
        _, x, theta = self._state(z)
        d = self._AT @ theta
        n_gen, n_theta = self._n_gen, self._n_theta
        jac = np.empty((self.network.n_buses, self.n_variables))
        jac[:, :n_gen] = self._C
        jac[:, n_gen : n_gen + n_theta] = -((self._A / x) @ self._AT_keep)
        dfacts = self._dfacts
        jac[:, n_gen + n_theta :] = self._A[:, dfacts] * (d[dfacts] / x[dfacts] ** 2)
        return jac

    def inequality_constraints(self, z: np.ndarray) -> np.ndarray:
        """All inequality constraints, non-negative when satisfied."""
        _, x, theta = self._state(z)
        flows = self._flows(x, theta)
        parts = []
        if np.any(self._finite_limits):
            limited = self._finite_limits
            parts.append(self._limits_pu[limited] - flows[limited])
            parts.append(self._limits_pu[limited] + flows[limited])
        if self.extra_reactance_constraints:
            parts.append(self._extra_values(x))
        if not parts:
            return np.zeros(0)
        return np.concatenate(parts)

    def inequality_jacobian(self, z: np.ndarray) -> np.ndarray:
        """Jacobian of :meth:`inequality_constraints`, one row per constraint.

        The flows ``f = d/x`` have ``∂f/∂θ = Aᵀ[:, keep]/x`` and
        ``∂f_k/∂x_k = −d_k/x_k²``; the limit rows are ∓ these.  The extra
        reactance rows are forward-differenced over the ``x_D`` columns.
        """
        _, x, theta = self._state(z)
        d = self._AT @ theta
        offset = self._n_gen + self._n_theta
        parts = []
        if np.any(self._finite_limits):
            flow_jac = np.zeros((x.shape[0], self.n_variables))
            flow_jac[:, self._n_gen : offset] = self._AT_keep / x[:, None]
            dfacts = self._dfacts
            flow_jac[dfacts, offset + np.arange(self._n_dfacts)] = -d[dfacts] / x[dfacts] ** 2
            limited = flow_jac[self._finite_limits]
            parts.extend((-limited, limited))
        if self.extra_reactance_constraints:
            parts.append(self._extra_jacobian(x))
        if not parts:
            return np.zeros((0, self.n_variables))
        return np.vstack(parts)

    def _extra_values(self, x: np.ndarray) -> np.ndarray:
        """The extra reactance constraints at the full reactance vector ``x``."""
        return np.concatenate(
            [
                np.atleast_1d(np.asarray(constraint(x), dtype=float))
                for constraint in self.extra_reactance_constraints
            ]
        )

    def _extra_jacobian(self, x: np.ndarray) -> np.ndarray:
        """Forward differences of the extra constraints in the ``x_D`` columns.

        The extra constraints depend on the reactances only, so the ``g``
        and ``θ`` columns are zero.  Each device steps by
        :data:`_DIFFERENCE_STEP`, backwards when a forward step would leave
        its upper reactance bound.
        """
        base = self._extra_values(x)
        jac = np.zeros((base.shape[0], self.n_variables))
        offset = self._n_gen + self._n_theta
        for j, branch in enumerate(self._dfacts):
            step = _DIFFERENCE_STEP
            if x[branch] + step > self._x_max[branch]:
                step = -step
            shifted = x.copy()
            shifted[branch] += step
            # Divide by the step as represented in floating point.
            jac[:, offset + j] = (self._extra_values(shifted) - base) / (shifted[branch] - x[branch])
        return jac

    def bounds(self) -> list[tuple[float | None, float | None]]:
        """Bounds for ``z``: generator limits, free angles, D-FACTS limits."""
        bounds: list[tuple[float | None, float | None]] = []
        for g in range(self._n_gen):
            bounds.append((self._p_min[g] / self._base, self._p_max[g] / self._base))
        bounds.extend([(-np.pi, np.pi)] * self._n_theta)
        for branch_index in self._dfacts:
            bounds.append((self._x_min[branch_index], self._x_max[branch_index]))
        return bounds

    # ------------------------------------------------------------------
    # Starting points
    # ------------------------------------------------------------------
    def starting_points(
        self,
        n_random: int = 4,
        seed: int | np.random.Generator | None = 0,
    ) -> list[np.ndarray]:
        """Generate MultiStart starting points.

        Each start fixes a candidate D-FACTS reactance vector (the nominal
        values, the box corners, and random interior samples) and warm-starts
        the dispatch and angles from the dispatch-only LP solved at those
        reactances, which gives a point satisfying every constraint except
        possibly the caller's extra reactance constraints.
        """
        rng = as_generator(seed)
        candidates: list[np.ndarray] = []
        if self._n_dfacts:
            nominal = self._x_nominal[self._dfacts]
            lower = self._x_min[self._dfacts]
            upper = self._x_max[self._dfacts]
            candidates.append(nominal)
            candidates.append(lower)
            candidates.append(upper)
            # Alternating corner: odd-indexed devices low, even-indexed high.
            alternating = np.where(np.arange(self._n_dfacts) % 2 == 0, upper, lower)
            candidates.append(alternating)
            for _ in range(max(0, n_random)):
                candidates.append(rng.uniform(lower, upper))
        else:
            candidates.append(np.zeros(0))

        starts = []
        for x_d in candidates:
            starts.append(self._warm_start(x_d))
        return starts

    def _warm_start(self, x_d: np.ndarray) -> np.ndarray:
        x = self.full_reactances(np.asarray(x_d, dtype=float))
        try:
            warm = solve_dc_opf(self.network, reactances=x, loads_mw=self.loads_mw)
            g_pu = warm.dispatch_mw / self._base
            theta_red = warm.angles_rad[self._keep]
        except OPFInfeasibleError:
            # Fall back to a flat start: mid-range dispatch, zero angles.
            g_pu = 0.5 * (self._p_min + self._p_max) / self._base
            theta_red = np.zeros(self._n_theta)
        return np.concatenate([g_pu, theta_red, np.asarray(x_d, dtype=float)])

    # ------------------------------------------------------------------
    def result_from_vector(self, z: np.ndarray, status: str, iterations: int,
                           violation: float) -> OPFResult:
        """Package a solved decision vector into an :class:`OPFResult`."""
        g, x, theta = self._state(z)
        flows_pu = self._flows(x, theta)
        cost = float(np.dot(self._costs * self._base, g))
        return OPFResult(
            cost=cost,
            dispatch_mw=g * self._base,
            angles_rad=theta,
            flows_mw=flows_pu * self._base,
            reactances=x,
            success=True,
            status=status,
            iterations=iterations,
            constraint_violation=violation,
        )


def solve_reactance_opf(
    network: NetworkLike,
    loads_mw: np.ndarray | None = None,
    extra_reactance_constraints: Sequence[ReactanceConstraint] = (),
    n_random_starts: int = 4,
    max_iterations: int = 300,
    seed: int | np.random.Generator | None = 0,
) -> OPFResult:
    """Solve the joint dispatch + reactance OPF (paper eq. (1)).

    Parameters
    ----------
    network:
        Network with D-FACTS devices installed on at least one branch (the
        problem degenerates to the dispatch-only LP otherwise, which is then
        solved directly).
    loads_mw:
        Optional load override (MW per bus).
    extra_reactance_constraints:
        Additional inequality constraints evaluated on the *full* branch
        reactance vector; each must return a non-negative value when
        satisfied.  The MTD design problem passes the SPA constraint here.
    n_random_starts:
        Number of random-interior MultiStart points (in addition to the
        nominal and corner starts).
    max_iterations:
        Iteration cap per local solve.
    seed:
        Seed for the random starting points.

    Returns
    -------
    OPFResult

    Raises
    ------
    OPFConvergenceError
        If no MultiStart run reaches a feasible point.
    """
    loads = network.loads_mw() if loads_mw is None else np.asarray(loads_mw, dtype=float)

    if not network.dfacts_branches and not extra_reactance_constraints:
        return solve_dc_opf(network, loads_mw=loads)

    problem = ReactanceOPFProblem(
        network=network,
        loads_mw=loads,
        extra_reactance_constraints=tuple(extra_reactance_constraints),
    )
    optimizer = MultiStartOptimizer(
        objective=problem.objective,
        bounds=problem.bounds(),
        equality_constraints=problem.equality_constraints,
        inequality_constraints=problem.inequality_constraints,
        max_iterations=max_iterations,
        gradient=problem.gradient,
        equality_jacobian=problem.equality_jacobian,
        inequality_jacobian=problem.inequality_jacobian,
    )
    outcome = optimizer.solve(problem.starting_points(n_random=n_random_starts, seed=seed))
    if _TELEMETRY.enabled:
        _record_multistart_health(problem, outcome, max_iterations)
    best = outcome.require_best()
    return problem.result_from_vector(
        best.x,
        status=f"slsqp multistart ({outcome.n_feasible}/{len(outcome.runs)} feasible)",
        iterations=best.iterations,
        violation=best.max_violation,
    )


def _record_multistart_health(
    problem: ReactanceOPFProblem, outcome: MultiStartOutcome, max_iterations: int
) -> None:
    """Count starts, feasible and iteration-capped runs, and near ties.

    A near tie is a feasible run other than the best whose objective is
    within :data:`_NEAR_TIE_RTOL` of the best one but whose D-FACTS
    reactances differ by more than :data:`_NEAR_TIE_XTOL`: the signature of a
    flat optimum, where which run wins decides the operating point.
    """
    runs = outcome.runs
    _metrics.counter("opf.multistart.starts", len(runs))
    _metrics.counter("opf.multistart.feasible", outcome.n_feasible)
    _metrics.counter(
        "opf.multistart.iteration_capped",
        sum(1 for run in runs if run.iterations >= max_iterations),
    )
    for run in runs:
        _metrics.histogram(
            "opf.multistart.iterations", run.iterations, boundaries=_ITERATION_BUCKETS
        )
    best = outcome.best
    if best is None:
        return
    best_x = problem.split(best.x)[2]
    band = _NEAR_TIE_RTOL * abs(best.objective)
    near_ties = sum(
        1
        for run in runs
        if run.feasible
        and abs(run.objective - best.objective) <= band
        and np.max(np.abs(problem.split(run.x)[2] - best_x), initial=0.0) > _NEAR_TIE_XTOL
    )
    _metrics.counter("opf.multistart.near_ties", near_ties)


__all__ = ["ReactanceOPFProblem", "solve_reactance_opf", "ReactanceConstraint"]
