"""Execution of a single scenario trial.

:func:`run_trial` is the unit of work the engine schedules.  It is a
module-level function of picklable arguments so that
``concurrent.futures.ProcessPoolExecutor`` can ship it to workers, and it is
*self-seeding*: trial ``i`` of a scenario derives its random streams from
``SeedSequence(base_seed, spawn_key=(i,))``, so the result of a trial
depends only on the spec and the trial index — never on execution order,
worker count or process boundaries.  This is what makes the engine's
parallel results bit-identical to serial ones.

Within a process, the deterministic per-scenario context (network, baseline
OPF, the attacker's side of every evaluation, and — when the attack seed is
pinned — the shared attack ensemble) is memoised with
:func:`functools.lru_cache`, so running many trials of one scenario pays
for the grid setup once per worker instead of once per trial;
:func:`clear_context_caches` drops every one of them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.engine.results import TrialResult
from repro.engine.spec import (
    AttackSpec,
    ContingencySpec,
    DetectorSpec,
    GridSpec,
    ScenarioSpec,
)
from repro.exceptions import ConfigurationError, MTDDesignError
from repro.grid.cases.registry import load_case
from repro.grid.network import PowerNetwork
from repro.mtd.cost import mtd_operational_cost
from repro.mtd.design import design_mtd_perturbation
from repro.mtd.effectiveness import AttackerSide, EffectivenessEvaluator
from repro.mtd.random_mtd import draw_random_reactances
from repro.opf.dc_opf import solve_dc_opf
from repro.opf.reactance_opf import solve_reactance_opf
from repro.opf.result import OPFResult
from repro.telemetry import metrics as _metrics
from repro.telemetry.config import _STATE as _TELEMETRY
from repro.telemetry.spans import span as _span


@lru_cache(maxsize=8)
def network_for_grid(grid: GridSpec) -> PowerNetwork:
    """The (deterministic) network of a grid spec, memoised per process.

    The single owner of GridSpec → PowerNetwork construction, shared by the
    Monte-Carlo trials and the time-series engine; networks are immutable,
    so every caller may hold the memoised instance.  Registry names and
    file-referenced MATPOWER cases (``"case30.m"``) both resolve through
    :func:`repro.grid.cases.registry.load_case`.
    """
    network = load_case(grid.case, **grid.kwargs())
    if grid.load_scale != 1.0:
        network = network.with_loads(network.loads_mw() * grid.load_scale)
    return network


def apply_contingency(
    network: PowerNetwork, contingency: ContingencySpec | None
) -> PowerNetwork:
    """The post-contingency network of a spec's contingency component.

    Branch outages take the fast status-derivation path
    (:meth:`PowerNetwork.with_branch_outages`), sharing the base network's
    topology cache; generator outages pin the unit's dispatch range to
    ``[0, 0]``.  ``None`` or a no-op contingency returns ``network``
    unchanged.  Unknown indices raise
    :class:`~repro.exceptions.GridModelError`; outage sets that island the
    grid raise :class:`~repro.exceptions.IslandingError` naming the
    branches.
    """
    if contingency is None or contingency.is_noop:
        return network
    derived = network
    if contingency.branch_outages:
        derived = derived.with_branch_outages(contingency.branch_outages)
    if contingency.generator_outages:
        derived = derived.with_generator_status(
            {int(g): False for g in contingency.generator_outages}
        )
    return derived


@lru_cache(maxsize=32)
def _grid_context(
    grid: GridSpec, contingency: ContingencySpec | None = None
) -> tuple[PowerNetwork, OPFResult, AttackerSide]:
    """The (deterministic) post-contingency network, no-MTD operating point
    and the attacker's side at that point.

    The side holds ``H_t``: one dense ``(M, n)`` array per memoised
    context, about 3.3 MB at 300 buses and 67 MB at 1354, plus a CSR copy
    of ``H_t``, the sparse D-FACTS columns ``U`` and, after the first
    evaluation, three rank-k factors of at most ``k × k`` each: 0.2 and
    4.3 MB each at 162 and 731 D-FACTS branches.
    """
    network = apply_contingency(network_for_grid(grid), contingency)
    if grid.baseline == "reactance-opf":
        baseline = solve_reactance_opf(network, n_random_starts=2, seed=0)
    else:
        baseline = solve_dc_opf(network)
    side = AttackerSide.build(network, baseline.angles_rad, baseline.reactances)
    return network, baseline, side


def _evaluator(
    side: AttackerSide,
    attack: AttackSpec,
    detector: DetectorSpec,
    seed: int | np.random.Generator | None,
) -> EffectivenessEvaluator:
    """A trial's evaluator: the context's attacker side plus one ensemble."""
    return EffectivenessEvaluator.for_attacker_side(
        side,
        noise_sigma=detector.noise_sigma,
        false_positive_rate=detector.false_positive_rate,
        n_attacks=attack.n_attacks,
        attack_ratio=attack.ratio,
        seed=seed,
    )


@lru_cache(maxsize=32)
def _shared_evaluator(
    grid: GridSpec,
    attack: AttackSpec,
    detector: DetectorSpec,
    contingency: ContingencySpec | None = None,
) -> EffectivenessEvaluator:
    """Evaluator with a pinned attack ensemble, shared by all trials."""
    _, _, side = _grid_context(grid, contingency)
    return _evaluator(side, attack, detector, seed=attack.seed)


def clear_context_caches() -> None:
    """Drop every per-process scenario memo (tests and cold-start timing).

    Covers the networks, grid contexts (with their attacker sides) and
    shared evaluators of this module and the time-series engine's horizon
    and per-hour evaluator memos, so the next trial rebuilds its whole
    context from the spec.
    """
    # Imported lazily: the time-series engine builds on this module.
    from repro.timeseries.engine import _cached_evaluator, _cached_hours

    network_for_grid.cache_clear()
    _grid_context.cache_clear()
    _shared_evaluator.cache_clear()
    _cached_hours.cache_clear()
    _cached_evaluator.cache_clear()


#: A trial's streams, by their position among the children of its root
#: sequence: the attack ensemble, the MTD policy, the Monte-Carlo noise and
#: (contingency trials only) the false-alarm draws.  Each is derived from
#: its position alone, so the contingency trials' fourth stream leaves the
#: first three — and with them every other metric — as without it.
_ATTACK_STREAM, _MTD_STREAM, _NOISE_STREAM, _FALSE_ALARM_STREAM = range(4)


def _trial_stream(base_seed: int, trial_index: int, stream: int) -> np.random.Generator:
    """The generator of one of a trial's streams.

    Its seed sequence is built directly from the spawn key
    ``(trial_index, stream)``, so a worker materialises neither the
    trial's siblings nor its other streams: it is identical to
    ``SeedSequence(base_seed).spawn(m)[trial_index].spawn(n)[stream]``
    for any ``m > trial_index`` and ``n > stream``, and a trial builds
    only the streams it reads.
    """
    sequence = np.random.SeedSequence(base_seed, spawn_key=(trial_index, stream))
    return np.random.Generator(np.random.PCG64(sequence))


def run_trial(spec: ScenarioSpec, trial_index: int) -> TrialResult:
    """Run trial ``trial_index`` of ``spec`` and record its metrics.

    Every trial reports ``eta(δ)`` for each threshold in ``spec.deltas``,
    the mean detection probability over the ensemble, the fraction of
    attacks that stay undetectable, and the achieved subspace angle
    ``spa``; with ``mtd.include_cost`` it additionally reports the baseline
    and post-MTD OPF costs and the relative MTD premium.

    Parameters
    ----------
    spec:
        The scenario the trial belongs to.
    trial_index:
        Position of the trial in ``[0, spec.n_trials)``; selects the
        trial's seed-spawned random streams.

    Returns
    -------
    TrialResult
        The trial's flat metric mapping.
    """
    if _TELEMETRY.enabled:
        # Observation only: the span/counter never touch the computation,
        # so instrumented trials are bit-identical to uninstrumented ones.
        with _span("engine.trial", trial=trial_index):
            _metrics.counter("engine.trials")
            return _run_trial_body(spec, trial_index)
    return _run_trial_body(spec, trial_index)


def _run_trial_body(spec: ScenarioSpec, trial_index: int) -> TrialResult:
    if not (0 <= trial_index < spec.n_trials):
        raise ConfigurationError(
            f"trial_index must be in [0, {spec.n_trials}), got {trial_index}"
        )
    if spec.operation is not None:
        # Time-series operation scenarios: trial ``t`` is hour ``t`` of the
        # horizon (imported lazily — the timeseries engine builds on this
        # module's machinery).
        from repro.timeseries.engine import run_operation_trial

        return run_operation_trial(spec, trial_index)
    network, baseline, side = _grid_context(spec.grid, spec.contingency)
    if spec.attack.seed is not None:
        evaluator = _shared_evaluator(spec.grid, spec.attack, spec.detector, spec.contingency)
    else:
        evaluator = _evaluator(
            side,
            spec.attack,
            spec.detector,
            seed=_trial_stream(spec.base_seed, trial_index, _ATTACK_STREAM),
        )

    reactances, policy_spa = _apply_policy(
        spec, network, baseline, evaluator,
        _trial_stream(spec.base_seed, trial_index, _MTD_STREAM),
    )
    if spec.detector.method == "monte-carlo":
        effectiveness = evaluator.evaluate(
            reactances,
            method="monte-carlo",
            n_noise_trials=spec.detector.n_noise_trials,
            seed=_trial_stream(spec.base_seed, trial_index, _NOISE_STREAM),
        )
    else:
        effectiveness = evaluator.evaluate(reactances)

    etas, undetectable = effectiveness.threshold_fractions(spec.deltas)
    metrics = {f"eta({delta:g})": eta for delta, eta in zip(spec.deltas, etas)}
    probs = effectiveness.detection_probabilities
    metrics["mean_detection_probability"] = float(np.mean(probs)) if probs.size else 0.0
    metrics["undetectable_fraction"] = undetectable
    metrics["spa"] = float(effectiveness.spa if policy_spa is None else policy_spa)

    if spec.contingency is not None:
        # Post-contingency BDD health check: the empirical false-alarm
        # rate of the perturbed detector at the (post-contingency)
        # operating point, from the trial's dedicated fourth stream.
        metrics["bdd_false_alarm_rate"] = evaluator.false_alarm_rate(
            reactances,
            n_trials=spec.detector.n_noise_trials,
            seed=_trial_stream(spec.base_seed, trial_index, _FALSE_ALARM_STREAM),
        )

    if spec.mtd.include_cost:
        cost = mtd_operational_cost(network, reactances, baseline_result=baseline)
        metrics["baseline_cost"] = float(cost.baseline_cost)
        metrics["mtd_cost"] = float(cost.mtd_cost)
        metrics["cost_increase_percent"] = float(cost.percent_increase)

    return TrialResult(trial_index=trial_index, metrics=metrics)


def run_trial_instrumented(
    spec: ScenarioSpec, trial_index: int
) -> tuple[TrialResult, dict]:
    """Pool-worker entry point that forces telemetry on for one trial.

    Returns ``(trial, snapshot_dict)`` where the snapshot is the worker's
    metrics delta for exactly this trial, ready for the parent to merge.
    Shipped to workers instead of :func:`run_trial` when telemetry is
    enabled, because pool workers do not inherit the parent's runtime
    telemetry switch under every start method.
    """
    from repro.telemetry.config import set_enabled

    set_enabled(True)
    before = _metrics.snapshot()
    trial = run_trial(spec, trial_index)
    return trial, _metrics.snapshot().subtract(before).to_dict()


def _apply_policy(
    spec: ScenarioSpec,
    network: PowerNetwork,
    baseline: OPFResult,
    evaluator: EffectivenessEvaluator,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float | None]:
    """Select the post-perturbation reactances according to the MTD policy.

    Returns the reactance vector together with the achieved subspace angle
    against the attacker's matrix, or ``None`` when the trial reads the
    angle from its evaluation of the reactances (the random policy).
    """
    mtd = spec.mtd
    if mtd.policy == "none":
        return evaluator.base_reactances, 0.0
    if mtd.policy == "designed":
        try:
            design = design_mtd_perturbation(
                network,
                gamma_threshold=float(mtd.gamma_threshold),
                attacker_reactances=evaluator.base_reactances,
                preferred_reactances=baseline.reactances,
                method=mtd.design_method,
                seed=rng,
            )
        except MTDDesignError:
            if mtd.on_infeasible != "saturate":
                raise
            # γ_th exceeds the achievable SPA: saturate at the maximum-angle
            # perturbation, the endpoint the paper's sweeps flatten out at.
            design = design_mtd_perturbation(
                network,
                gamma_threshold=0.0,
                attacker_reactances=evaluator.base_reactances,
                preferred_reactances=baseline.reactances,
                method="max-spa",
                seed=rng,
            )
        return design.perturbed_reactances, float(design.achieved_spa)
    if mtd.policy == "random":
        drawn = draw_random_reactances(
            evaluator.attacker_side, mtd.max_relative_change, mtd.perturb_all_dfacts, rng
        )
        return drawn, None
    raise ConfigurationError(f"unknown MTD policy {mtd.policy!r}")


__all__ = [
    "run_trial",
    "run_trial_instrumented",
    "network_for_grid",
    "apply_contingency",
    "clear_context_caches",
]
