"""MultiStart driver for non-linear programs.

The paper solves its non-convex problems (the joint reactance OPF of eq. (1)
and the SPA-constrained MTD design of eq. (4)) with MATLAB's ``fmincon``
wrapped in the MultiStart global-search heuristic.  This module provides the
equivalent: run a local SQP solver (:func:`scipy.optimize.minimize` with
SLSQP) from several starting points and keep the best feasible local
optimum.  Callers that supply derivatives (the reactance OPF passes exact
ones) spare SLSQP its finite differences; without them SLSQP differences
the objective and constraints itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Sequence

import numpy as np
from scipy.optimize import minimize

from repro.exceptions import OPFConvergenceError


@dataclass
class LocalSolve:
    """Outcome of a single local optimisation run."""

    x: np.ndarray
    objective: float
    max_violation: float
    success: bool
    message: str
    iterations: int

    #: Largest constraint/bound violation a run may have and count as feasible.
    FEASIBILITY_TOL: ClassVar[float] = 1e-5

    @property
    def feasible(self) -> bool:
        return self.max_violation <= LocalSolve.FEASIBILITY_TOL


@dataclass
class MultiStartOutcome:
    """Aggregated result of a MultiStart search.

    Attributes
    ----------
    best:
        The best feasible local solve (lowest objective); ``None`` when no
        start converged to a feasible point.
    runs:
        Every local solve, in the order the starts were tried.
    """

    best: LocalSolve | None
    runs: list[LocalSolve] = field(default_factory=list)

    @property
    def n_feasible(self) -> int:
        return sum(1 for run in self.runs if run.feasible)

    def require_best(self) -> LocalSolve:
        """Return the best run or raise :class:`OPFConvergenceError`."""
        if self.best is None:
            best_attempt = min(self.runs, key=lambda r: r.max_violation) if self.runs else None
            raise OPFConvergenceError(
                "no feasible local optimum found by MultiStart "
                f"({len(self.runs)} starts tried)",
                best_result=best_attempt,
            )
        return self.best


class MultiStartOptimizer:
    """Run a local NLP solver from multiple starting points.

    Parameters
    ----------
    objective:
        Callable mapping the decision vector to a scalar cost.
    bounds:
        Sequence of ``(low, high)`` pairs, one per decision variable.
    equality_constraints:
        Callable returning a vector that must equal zero at feasible points
        (or ``None``).
    inequality_constraints:
        Callable returning a vector that must be **non-negative** at feasible
        points (or ``None``), matching scipy's SLSQP convention.
    gradient, equality_jacobian, inequality_jacobian:
        Optional derivatives of the objective and of the two constraint
        vectors (Jacobians are ``(n_constraints, n_variables)``).  Each one
        left ``None`` is finite-differenced by SLSQP.
    max_iterations:
        Iteration cap for each local solve.
    tolerance:
        Convergence tolerance passed to the local solver.
    """

    def __init__(
        self,
        objective: Callable[[np.ndarray], float],
        bounds: Sequence[tuple[float | None, float | None]],
        equality_constraints: Callable[[np.ndarray], np.ndarray] | None = None,
        inequality_constraints: Callable[[np.ndarray], np.ndarray] | None = None,
        max_iterations: int = 200,
        tolerance: float = 1e-8,
        gradient: Callable[[np.ndarray], np.ndarray] | None = None,
        equality_jacobian: Callable[[np.ndarray], np.ndarray] | None = None,
        inequality_jacobian: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> None:
        self._objective = objective
        self._gradient = gradient
        self._bounds = list(bounds)
        self._eq = equality_constraints
        self._ineq = inequality_constraints
        self._constraints: list[dict] = []
        for kind, fun, jac in (
            ("eq", equality_constraints, equality_jacobian),
            ("ineq", inequality_constraints, inequality_jacobian),
        ):
            if fun is not None:
                constraint = {"type": kind, "fun": fun}
                if jac is not None:
                    constraint["jac"] = jac
                self._constraints.append(constraint)
        self._max_iterations = int(max_iterations)
        self._tolerance = float(tolerance)

    # ------------------------------------------------------------------
    def solve(self, starts: Sequence[np.ndarray]) -> MultiStartOutcome:
        """Run the local solver from every start and keep the best feasible run."""
        if not starts:
            raise ValueError("at least one starting point is required")
        runs: list[LocalSolve] = []
        for start in starts:
            runs.append(self._solve_single(np.asarray(start, dtype=float)))
        feasible = [run for run in runs if run.feasible]
        best = min(feasible, key=lambda r: r.objective) if feasible else None
        return MultiStartOutcome(best=best, runs=runs)

    # ------------------------------------------------------------------
    def _solve_single(self, start: np.ndarray) -> LocalSolve:
        try:
            result = minimize(
                self._objective,
                start,
                jac=self._gradient,
                method="SLSQP",
                bounds=self._bounds,
                constraints=self._constraints,
                options={"maxiter": self._max_iterations, "ftol": self._tolerance},
            )
        except (ValueError, np.linalg.LinAlgError) as exc:
            # A start can drive the objective, a constraint or a derivative
            # into an invalid region (e.g. a non-positive reactance).
            return LocalSolve(
                x=start,
                objective=float("inf"),
                max_violation=float("inf"),
                success=False,
                message=f"local solver error: {exc}",
                iterations=0,
            )
        x = np.asarray(result.x, dtype=float)
        return LocalSolve(
            x=x,
            objective=float(result.fun),
            max_violation=self._max_violation(x),
            success=bool(result.success),
            message=str(result.message),
            iterations=int(getattr(result, "nit", 0) or 0),
        )

    def _max_violation(self, x: np.ndarray) -> float:
        violation = 0.0
        if self._eq is not None:
            eq_values = np.atleast_1d(np.asarray(self._eq(x), dtype=float))
            if eq_values.size:
                violation = max(violation, float(np.max(np.abs(eq_values))))
        if self._ineq is not None:
            ineq_values = np.atleast_1d(np.asarray(self._ineq(x), dtype=float))
            if ineq_values.size:
                violation = max(violation, float(np.max(np.maximum(0.0, -ineq_values))))
        for index, (low, high) in enumerate(self._bounds):
            if low is not None:
                violation = max(violation, float(max(0.0, low - x[index])))
            if high is not None:
                violation = max(violation, float(max(0.0, x[index] - high)))
        return violation


__all__ = ["MultiStartOptimizer", "MultiStartOutcome", "LocalSolve"]
