"""Execution of time-series operation specs (the Figs. 10-11 pipeline).

The engine turns a :class:`~repro.engine.spec.ScenarioSpec` whose
``operation`` component is set into per-hour work items the scenario
engine's existing machinery can schedule: **trial ``t`` is hour ``t``** of
the horizon.  :func:`run_operation_trial` is the unit of work
(:func:`repro.engine.trial.run_trial` dispatches here), so operated hours
inherit the process-pool parallelism, result caching, campaign sharding
and resume of ordinary scenarios without new plumbing.

The deterministic per-horizon context — the hourly loads, the chained
no-MTD baseline OPFs (with D-FACTS carryover) and each hour's stale
attacker knowledge — is memoised per process (cleared by
:func:`repro.engine.trial.clear_context_caches`), so a worker pays the
serial baseline chain once and then evaluates its assigned hours
independently.  The chain wraps around to the previous (assumed identical)
day just as the attacker's knowledge does: hour 0's baseline carries over
from that day's last hour (see :func:`_build_hours`).
Each hour derives its random streams from ``(base_seed, hour)``, which is
what makes parallel horizons bit-identical to serial ones.

Two per-hour optimisations make the tuning loop fast without changing a
single bit of its output:

* threshold selection runs as a galloping bracket + bisection over the
  tuning grid (``O(log K)`` probes) instead of the historical linear scan,
  selecting the same grid value whenever the achieved effectiveness is
  monotone along the grid;
* every probe shares one :class:`~repro.mtd.design.DesignContext`, so the
  threshold-independent parts of the MTD design (max-SPA search, corner
  angles, OPF pricing of recurring candidates) are computed once per hour.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.engine.cache import ResultCache
from repro.engine.results import TrialResult
from repro.engine.runner import ScenarioEngine
from repro.engine.spec import (
    AttackSpec,
    DetectorSpec,
    GridSpec,
    MTDSpec,
    ScenarioSpec,
)
from repro.engine.trial import network_for_grid
from repro.exceptions import ConfigurationError, MTDDesignError, OPFInfeasibleError
from repro.grid.matrices import reduced_measurement_matrix
from repro.grid.network import PowerNetwork
from repro.mtd.cost import mtd_operational_cost
from repro.mtd.design import DesignContext, MTDDesignResult, design_mtd_perturbation
from repro.mtd.effectiveness import EffectivenessEvaluator
from repro.mtd.subspace import subspace_angle
from repro.opf.dc_opf import solve_dc_opf
from repro.opf.reactance_opf import solve_reactance_opf
from repro.opf.result import OPFResult
from repro.telemetry import metrics as _metrics
from repro.telemetry import progress as _progress
from repro.telemetry.config import _STATE as _TELEMETRY
from repro.telemetry.spans import span as _span
from repro.timeseries.results import OperationResult
from repro.timeseries.spec import OperationSpec, ProfileSpec, TuningSpec


@dataclass(frozen=True)
class HourContext:
    """Everything one operated hour needs besides its random streams."""

    hour: int
    loads: np.ndarray
    baseline: OPFResult
    knowledge_reactances: np.ndarray
    knowledge_angles: np.ndarray


def _require_operation(spec: ScenarioSpec) -> OperationSpec:
    if spec.operation is None:
        raise ConfigurationError(
            f"scenario {spec.name!r} has no operation component; "
            "set ScenarioSpec.operation (see repro.timeseries.daily_operation_spec)"
        )
    return spec.operation


def _hour_seeds(base_seed: int, hour: int) -> tuple[int, int]:
    """The (evaluator, design) integer seeds of one hour.

    Two words of ``SeedSequence(base_seed, spawn_key=(hour,))``, the
    engine's seed-tree convention: order-independent integers, so hours can
    run on any worker in any order with bit-identical results.
    """
    words = np.random.SeedSequence(int(base_seed), spawn_key=(int(hour),)).generate_state(
        2, np.uint64
    )
    return int(words[0]), int(words[1])


# ----------------------------------------------------------------------
# horizon context (memoised per process)
# ----------------------------------------------------------------------
def _solve_hour_baseline(
    network: PowerNetwork,
    baseline_mode: str,
    operation: OperationSpec,
    base_seed: int,
    loads: np.ndarray,
    previous: OPFResult | None,
) -> OPFResult:
    """No-MTD OPF of one hour (paper eq. (1)).

    With the reactance-OPF baseline, the hour's fresh eq. (1) optimum goes
    through the carryover rule of :func:`_carry_over`: hour 0's
    ``previous`` is the previous day's last hour, and ``None`` takes the
    fresh optimum.  :func:`_build_hours` calls this once per hour with
    ``previous=None`` and applies :func:`_carry_over` to those optima in
    both of its passes, so each hour's NLP is solved once.
    """
    if baseline_mode != "reactance-opf" or not network.dfacts_branches:
        return solve_dc_opf(network, loads_mw=loads)
    optimised = solve_reactance_opf(
        network, loads_mw=loads, n_random_starts=1, seed=base_seed
    )
    return _carry_over(network, operation, loads, optimised, previous)


def _carry_over(
    network: PowerNetwork,
    operation: OperationSpec,
    loads: np.ndarray,
    optimised: OPFResult,
    previous: OPFResult | None,
) -> OPFResult:
    """The D-FACTS carryover rule of a reactance-OPF hour.

    The previous hour's D-FACTS settings are kept whenever the hour's fresh
    optimum ``optimised`` would not lower the cost beyond
    ``operation.carryover_tolerance`` — operator practice, and what keeps
    consecutive no-MTD measurement matrices nearly identical (the
    ``γ(H_t, H_{t'}) ≈ 0`` observation of Fig. 11).
    """
    if previous is None:
        return optimised
    try:
        carried_over = solve_dc_opf(
            network, reactances=previous.reactances, loads_mw=loads
        )
    except OPFInfeasibleError:
        return optimised
    if carried_over.cost <= optimised.cost * (1.0 + operation.carryover_tolerance):
        return carried_over
    return optimised


def _build_hours(
    network: PowerNetwork,
    baseline_mode: str,
    operation: OperationSpec,
    base_seed: int,
) -> tuple[HourContext, ...]:
    """Hourly loads, chained baselines and stale attacker knowledge.

    Both wrap around to the previous (assumed identical) day.  The first
    ``staleness_hours`` hours' attacker knowledge is read off the end of
    the horizon.  A reactance-OPF chain solves each hour's eq. (1) once
    and runs :func:`_carry_over` over those optima twice: the first pass
    stands in for the previous day, and the kept second pass starts hour 0
    from that pass's last hour.  A fresh hour-0 solve would not do: where
    the eq. (1) optimum is flat (ieee14 up to 220 MW, where every x_D under
    which the merit-order dispatch fits the flow limits costs the same) it
    lands on a point chosen by rounding, and γ(H_t, H_{t'}) jumps at hour 0.

    One warm-up pass reached a fixed point on every registered horizon and
    on four traces up to 259 MW: a third pass reproduces the second bit
    for bit.  On ieee14 up to 220 MW it must: every hour's optimum then
    costs the merit-order dispatch, whose flows scale with total load, so
    settings kept at one load are kept at every lighter one.  The first
    pass thus ends on the settings it holds at the day's peak, and the
    second keeps them all day.  No document says what should happen where
    a further pass would still move; the second pass is kept.
    """
    nominal_total = network.total_load_mw()
    totals = operation.profile.totals_mw(nominal_total_mw=nominal_total)
    if nominal_total <= 0:
        raise ConfigurationError(
            "the network has zero total load; cannot scale a profile onto it"
        )
    nominal_loads = network.loads_mw()

    loads_list = [nominal_loads * (float(total) / nominal_total) for total in totals]
    # Each hour's fresh optimum (for dispatch-only baselines, its baseline).
    optima = [
        _solve_hour_baseline(network, baseline_mode, operation, base_seed, loads, None)
        for loads in loads_list
    ]

    def chain(previous: OPFResult | None) -> list[OPFResult]:
        baselines: list[OPFResult] = []
        for loads, optimised in zip(loads_list, optima):
            previous = _carry_over(network, operation, loads, optimised, previous)
            baselines.append(previous)
        return baselines

    baselines = optima
    if baseline_mode == "reactance-opf" and network.dfacts_branches:
        # The first pass stands in for the previous (assumed identical)
        # day; hour 0 carries over from its last hour.
        baselines = chain(chain(None)[-1])

    n_hours = len(loads_list)
    hours: list[HourContext] = []
    for t in range(n_hours):
        # The first hours wrap around to the matching hour of the previous
        # (assumed identical) day, i.e. the end of the horizon.
        k = (t - operation.staleness_hours) % n_hours
        knowledge_reactances = baselines[k].reactances
        # Deliberately re-solved rather than read off baselines[k]: a
        # reactance-OPF baseline's angles come from the joint NLP, not
        # from a dispatch-only solve at its final reactances.
        knowledge_angles = solve_dc_opf(
            network, reactances=knowledge_reactances, loads_mw=loads_list[k]
        ).angles_rad
        hours.append(
            HourContext(
                hour=t,
                loads=loads_list[t],
                baseline=baselines[t],
                knowledge_reactances=knowledge_reactances,
                knowledge_angles=knowledge_angles,
            )
        )
    return tuple(hours)


@lru_cache(maxsize=8)
def _cached_hours(
    grid: GridSpec, operation: OperationSpec, base_seed: int
) -> tuple[HourContext, ...]:
    return _build_hours(network_for_grid(grid), grid.baseline, operation, base_seed)


@lru_cache(maxsize=64)
def _cached_evaluator(
    grid: GridSpec,
    operation: OperationSpec,
    attack: AttackSpec,
    detector: DetectorSpec,
    base_seed: int,
    hour: int,
) -> EffectivenessEvaluator:
    """The attacker's evaluator for one hour (stale knowledge, fresh seed)."""
    hour_context = _cached_hours(grid, operation, base_seed)[hour]
    evaluator_seed, _ = _hour_seeds(base_seed, hour)
    return EffectivenessEvaluator(
        network_for_grid(grid),
        operating_angles_rad=hour_context.knowledge_angles,
        base_reactances=hour_context.knowledge_reactances,
        noise_sigma=detector.noise_sigma,
        false_positive_rate=detector.false_positive_rate,
        n_attacks=attack.n_attacks,
        attack_ratio=attack.ratio,
        seed=evaluator_seed,
    )


# ----------------------------------------------------------------------
# threshold tuning
# ----------------------------------------------------------------------
def _tune_gamma(
    network: PowerNetwork,
    evaluator: EffectivenessEvaluator,
    loads: np.ndarray,
    tuning: TuningSpec,
    design_method: str,
    preferred_reactances: np.ndarray,
    design_seed: int,
) -> tuple[MTDDesignResult, float, float, int]:
    """Select the smallest grid threshold whose design meets the target.

    Returns ``(design, achieved_eta, gamma, n_probes)``.  Both methods pick
    the first grid value with ``η'(delta) ≥ eta_target``; when no feasible
    value reaches the target, the most effective (largest feasible) design
    is returned — the paper's target is achievable for the IEEE cases, but
    synthetic networks may be more constrained.
    """
    grid = tuning.gamma_grid
    n_grid = len(grid)
    design_context = DesignContext() if tuning.reuse_design_context else None
    probes: dict[int, tuple[MTDDesignResult, float] | None] = {}

    def probe(index: int) -> tuple[MTDDesignResult, float] | None:
        """Design + evaluate grid point ``index``; ``None`` when infeasible."""
        if index in probes:
            return probes[index]
        if _TELEMETRY.enabled:
            _metrics.counter("timeseries.tuning_probes")
            with _span("timeseries.tuning_probe", grid_index=index):
                return _probe_uncached(index)
        return _probe_uncached(index)

    def _probe_uncached(index: int) -> tuple[MTDDesignResult, float] | None:
        try:
            design = design_mtd_perturbation(
                network,
                gamma_threshold=grid[index],
                attacker_reactances=evaluator.base_reactances,
                loads_mw=loads,
                method=design_method,
                preferred_reactances=preferred_reactances,
                seed=design_seed,
                context=design_context,
            )
        except MTDDesignError:
            probes[index] = None
            return None
        effectiveness = evaluator.evaluate(design.perturbed_reactances)
        probes[index] = (design, effectiveness.eta(tuning.delta))
        return probes[index]

    if tuning.method == "scan":
        selected = _scan_select(probe, n_grid, tuning.eta_target)
    else:
        selected = _bisect_select(probe, n_grid, tuning.eta_target)
    if selected is None:
        raise MTDDesignError(
            "no SPA threshold on the tuning grid produced a feasible MTD design"
        )
    design, eta = probes[selected]
    return design, eta, grid[selected], len(probes)


def _scan_select(probe, n_grid: int, eta_target: float) -> int | None:
    """Linear sweep: first index meeting the target, else last feasible."""
    last: int | None = None
    for index in range(n_grid):
        outcome = probe(index)
        if outcome is None:
            break
        last = index
        if outcome[1] >= eta_target:
            break
    return last


def _bisect_select(probe, n_grid: int, eta_target: float) -> int | None:
    """Galloping bracket + bisection selecting the same index as the scan.

    The predicate ``P(i) = infeasible(i) or eta(i) >= target`` is monotone
    (false → true) along the grid whenever the achieved effectiveness is
    monotone over the feasible prefix, which holds for the paper's
    settings: effectiveness grows with the separation angle until the
    D-FACTS range is exhausted.  The smallest true index is then either the
    scan's answer (feasible and meeting the target) or the feasibility
    boundary, in which case the index below it is the scan's fallback.
    """

    def predicate(index: int) -> bool:
        outcome = probe(index)
        return outcome is None or outcome[1] >= eta_target

    # Gallop from the low end: the common case (the first grid value
    # already meets the target) costs a single probe, exactly like the scan.
    sequence = []
    index = 0
    while index < n_grid - 1:
        sequence.append(index)
        index = 1 if index == 0 else 2 * index
    sequence.append(n_grid - 1)

    below = -1  # highest index known false
    first_true: int | None = None
    for index in sequence:
        if predicate(index):
            first_true = index
            break
        below = index
    if first_true is None:
        # Whole grid feasible, none meet the target: the scan's fallback is
        # the last grid value (already probed by the gallop).
        return n_grid - 1

    lo, hi = below + 1, first_true - 1
    smallest_true = first_true
    while lo <= hi:
        mid = (lo + hi) // 2
        if predicate(mid):
            smallest_true = mid
            hi = mid - 1
        else:
            lo = mid + 1

    if probe(smallest_true) is not None:
        return smallest_true
    # ``smallest_true`` is the feasibility boundary: the target is
    # unreachable, fall back to the largest feasible index below it.
    fallback = smallest_true - 1
    while fallback >= 0 and probe(fallback) is None:
        fallback -= 1  # non-monotone feasibility; walk down like the scan
    return fallback if fallback >= 0 else None


# ----------------------------------------------------------------------
# per-hour execution (the engine's unit of work)
# ----------------------------------------------------------------------
def _operate_hour(
    spec: ScenarioSpec,
    network: PowerNetwork,
    hour_context: HourContext,
    evaluator: EffectivenessEvaluator,
) -> TrialResult:
    """Tune, price and record one operated hour."""
    operation = _require_operation(spec)
    _, design_seed = _hour_seeds(spec.base_seed, hour_context.hour)
    design, achieved_eta, gamma, n_probes = _tune_gamma(
        network,
        evaluator,
        hour_context.loads,
        operation.tuning,
        spec.mtd.design_method,
        preferred_reactances=hour_context.baseline.reactances,
        design_seed=design_seed,
    )
    cost = mtd_operational_cost(
        network,
        design.perturbed_reactances,
        loads_mw=hour_context.loads,
        baseline_result=hour_context.baseline,
    )
    attacker_matrix = evaluator.attacker_matrix
    baseline_matrix = reduced_measurement_matrix(
        network, hour_context.baseline.reactances
    )
    mtd_matrix = reduced_measurement_matrix(network, design.perturbed_reactances)
    metrics = {
        "total_load_mw": float(np.sum(hour_context.loads)),
        "baseline_cost": float(cost.baseline_cost),
        "mtd_cost": float(cost.mtd_cost),
        "cost_increase_percent": float(cost.percent_increase),
        "gamma_threshold": float(gamma),
        "achieved_eta": float(achieved_eta),
        "spa_attacker_vs_baseline": float(subspace_angle(attacker_matrix, baseline_matrix)),
        "spa_attacker_vs_mtd": float(subspace_angle(attacker_matrix, mtd_matrix)),
        "spa_baseline_vs_mtd": float(subspace_angle(baseline_matrix, mtd_matrix)),
        "n_tuning_probes": float(n_probes),
    }
    return TrialResult(trial_index=hour_context.hour, metrics=metrics)


def run_operation_trial(spec: ScenarioSpec, hour: int) -> TrialResult:
    """Run hour ``hour`` of an operation scenario (the engine's trial hook).

    Self-contained and picklable-by-argument like
    :func:`repro.engine.trial.run_trial`: the horizon context is memoised
    per process, the hour's streams derive from ``(base_seed, hour)``, so
    the result depends only on the spec and the hour index — never on
    execution order, worker count or process boundaries.
    """
    operation = _require_operation(spec)
    network = network_for_grid(spec.grid)
    hours = _cached_hours(spec.grid, operation, spec.base_seed)
    if not (0 <= hour < len(hours)):
        raise ConfigurationError(
            f"hour must be in [0, {len(hours)}), got {hour}"
        )
    evaluator = _cached_evaluator(
        spec.grid, operation, spec.attack, spec.detector, spec.base_seed, hour
    )
    if _TELEMETRY.enabled:
        with _span("timeseries.hour", hour=hour):
            _metrics.counter("timeseries.hours")
            result = _operate_hour(spec, network, hours[hour], evaluator)
        # Hour-granular liveness for long horizons (no-op without a sink).
        _progress.tick(hour=hour, n_hours=len(hours))
        return result
    return _operate_hour(spec, network, hours[hour], evaluator)


# ----------------------------------------------------------------------
# engine façade + spec helper
# ----------------------------------------------------------------------
class OperationEngine:
    """Executes operation scenarios and returns typed hourly records.

    A thin façade over :class:`~repro.engine.runner.ScenarioEngine`: runs
    inherit its result cache and process-pool parallelism over hours, and
    are wrapped into an :class:`OperationResult`.

    Parameters
    ----------
    cache:
        ``None``, an existing :class:`ResultCache`, or a directory path.
    n_workers:
        Default worker count; hours of the horizon are the parallel unit.
    """

    def __init__(
        self,
        cache: ResultCache | str | Path | None = None,
        n_workers: int = 1,
    ) -> None:
        self._engine = ScenarioEngine(cache=cache, n_workers=n_workers)

    @property
    def engine(self) -> ScenarioEngine:
        """The underlying scenario engine."""
        return self._engine

    def run(
        self,
        spec: ScenarioSpec,
        n_workers: int | None = None,
        use_cache: bool = True,
    ) -> OperationResult:
        """Operate the whole horizon and return the per-hour records.

        Parameters
        ----------
        spec:
            A scenario spec with its ``operation`` component set.
        n_workers, use_cache:
            Forwarded to :meth:`ScenarioEngine.run`.
        """
        _require_operation(spec)
        scenario = self._engine.run(spec, n_workers=n_workers, use_cache=use_cache)
        return OperationResult.from_scenario(scenario)


def daily_operation_spec(
    name: str = "daily-operation",
    case: str = "ieee14",
    case_kwargs: Sequence[tuple[str, Any]] = (),
    cost_baseline: str = "reactance-opf",
    profile: ProfileSpec | None = None,
    tuning: TuningSpec | None = None,
    staleness_hours: int = 1,
    carryover_tolerance: float = 5e-3,
    n_attacks: int = 300,
    attack_ratio: float = 0.08,
    noise_sigma: float = 0.0015,
    false_positive_rate: float = 5e-4,
    design_method: str = "two-stage",
    seed: int = 0,
    description: str = "",
    tags: Sequence[str] = (),
) -> ScenarioSpec:
    """Build a complete daily-operation scenario spec.

    Convenience constructor wiring an :class:`OperationSpec` into a
    :class:`~repro.engine.spec.ScenarioSpec` with the paper's Section VII-C
    defaults.  ``cost_baseline`` is ``"reactance-opf"`` (paper eq. (1)) or
    ``"dispatch-only"``.

    Notes
    -----
    In operation scenarios the attack ensemble is re-drawn per hour from
    the hour's stale knowledge (``attack.seed`` is unused), and
    ``mtd.gamma_threshold`` is superseded by the tuning grid; it is pinned
    to the grid's upper end for transparency.
    """
    baseline_by_mode = {"reactance-opf": "reactance-opf", "dispatch-only": "dc-opf"}
    if cost_baseline not in baseline_by_mode:
        raise ConfigurationError(
            f"unknown cost_baseline {cost_baseline!r}; "
            "use 'reactance-opf' or 'dispatch-only'"
        )
    operation = OperationSpec(
        profile=profile if profile is not None else ProfileSpec(),
        tuning=tuning if tuning is not None else TuningSpec(),
        staleness_hours=staleness_hours,
        carryover_tolerance=carryover_tolerance,
    )
    return ScenarioSpec(
        name=name,
        grid=GridSpec(
            case=case,
            case_kwargs=tuple(case_kwargs),
            baseline=baseline_by_mode[cost_baseline],
        ),
        attack=AttackSpec(n_attacks=n_attacks, ratio=attack_ratio, seed=None),
        detector=DetectorSpec(
            noise_sigma=noise_sigma, false_positive_rate=false_positive_rate
        ),
        mtd=MTDSpec(
            policy="designed",
            gamma_threshold=operation.tuning.gamma_grid[-1],
            design_method=design_method,
        ),
        operation=operation,
        base_seed=seed,
        metric="cost_increase_percent",
        description=description,
        tags=tuple(tags),
    )


__all__ = [
    "HourContext",
    "OperationEngine",
    "daily_operation_spec",
    "run_operation_trial",
]
