"""repro — reproduction of "Cost-Benefit Analysis of Moving-Target Defense
in Power Grids" (Lakshminarayana & Yau, IEEE/IFIP DSN 2018).

The package implements the full stack the paper builds on — a DC power-grid
model with benchmark IEEE cases, DC power flow and optimal power flow, state
estimation with bad-data detection, and stealthy false-data-injection
attacks — plus the paper's contribution: formally grounded selection of
moving-target-defense (MTD) reactance perturbations and the analysis of
their cost-benefit trade-off.

Quickstart
----------
>>> from repro import case14, solve_dc_opf, EffectivenessEvaluator, design_mtd_perturbation
>>> network = case14()
>>> baseline = solve_dc_opf(network)
>>> evaluator = EffectivenessEvaluator(network, baseline.angles_rad, n_attacks=200)
>>> design = design_mtd_perturbation(network, gamma_threshold=0.3, method="two-stage")
>>> evaluator.evaluate(design.perturbed_reactances).eta(0.9)  # doctest: +SKIP
0.97
"""

from repro.exceptions import (
    AttackConstructionError,
    CaseNotFoundError,
    ConfigurationError,
    EstimationError,
    GridModelError,
    IslandingError,
    MTDDesignError,
    OPFConvergenceError,
    OPFInfeasibleError,
    PowerFlowError,
    ReproError,
)
from repro.grid import (
    Branch,
    Bus,
    Generator,
    NetworkArrays,
    PowerNetwork,
    available_cases,
    load_case,
    load_matpower_case,
    measurement_matrix,
    network_from_matpower,
    reduced_measurement_matrix,
)
from repro.grid.cases import case4gs, case14, case30, synthetic_case
from repro.powerflow import (
    bridge_branches,
    post_outage_ptdf,
    ptdf_matrix,
    ptdf_with_branch_outage,
    screen_branch_outages,
    solve_dc_power_flow,
)
from repro.opf import OPFResult, solve_dc_opf, solve_reactance_opf
from repro.estimation import (
    BadDataDetector,
    LinearModel,
    MeasurementSystem,
)
from repro.attacks import (
    generate_attack_ensemble,
    scale_attack_to_measurement_ratio,
    stealthy_attack,
    targeted_state_attack,
)
from repro.mtd import (
    EffectivenessEvaluator,
    EffectivenessResult,
    MTDDesignResult,
    RandomMTDBaseline,
    ReactancePerturbation,
    TradeoffCurve,
    admits_no_undetectable_attacks,
    attack_remains_stealthy,
    compute_tradeoff_curve,
    design_mtd_perturbation,
    max_spa_perturbation,
    mtd_operational_cost,
    principal_angles,
    smallest_principal_angle,
    subspace_angle,
)
from repro.loads import (
    available_shapes,
    day_shape,
    multi_day_profile,
    nyiso_like_winter_day,
)
from repro.analysis.montecarlo import MonteCarloSummary, summarize_values
from repro.engine import (
    AttackSpec,
    ContingencySpec,
    DetectorSpec,
    GridSpec,
    MTDSpec,
    ResultCache,
    ScenarioEngine,
    ScenarioResult,
    ScenarioSpec,
    TrialResult,
    available_scenarios,
    expand_grid,
    scenario_suite,
)
from repro.campaign import (
    CampaignDefinition,
    CampaignOrchestrator,
    CampaignStore,
    available_campaigns,
    campaign_from_suite,
    plan_campaign,
    run_campaign,
)
from repro.timeseries import (
    OperationEngine,
    OperationRecord,
    OperationResult,
    OperationSpec,
    ProfileSpec,
    TuningSpec,
    daily_operation_spec,
)
from repro import telemetry

__version__ = "1.9.0"

__all__ = [
    # exceptions
    "ReproError",
    "GridModelError",
    "CaseNotFoundError",
    "IslandingError",
    "PowerFlowError",
    "OPFInfeasibleError",
    "OPFConvergenceError",
    "EstimationError",
    "AttackConstructionError",
    "MTDDesignError",
    "ConfigurationError",
    # grid
    "Bus",
    "Branch",
    "Generator",
    "PowerNetwork",
    "NetworkArrays",
    "case4gs",
    "case14",
    "case30",
    "synthetic_case",
    "load_case",
    "available_cases",
    "load_matpower_case",
    "network_from_matpower",
    "measurement_matrix",
    "reduced_measurement_matrix",
    # power flow / OPF
    "solve_dc_power_flow",
    "ptdf_matrix",
    "bridge_branches",
    "post_outage_ptdf",
    "ptdf_with_branch_outage",
    "screen_branch_outages",
    "OPFResult",
    "solve_dc_opf",
    "solve_reactance_opf",
    # estimation
    "MeasurementSystem",
    "BadDataDetector",
    "LinearModel",
    # attacks
    "stealthy_attack",
    "targeted_state_attack",
    "scale_attack_to_measurement_ratio",
    "generate_attack_ensemble",
    # MTD
    "ReactancePerturbation",
    "smallest_principal_angle",
    "subspace_angle",
    "principal_angles",
    "attack_remains_stealthy",
    "admits_no_undetectable_attacks",
    "EffectivenessEvaluator",
    "EffectivenessResult",
    "mtd_operational_cost",
    "design_mtd_perturbation",
    "max_spa_perturbation",
    "MTDDesignResult",
    "RandomMTDBaseline",
    "TradeoffCurve",
    "compute_tradeoff_curve",
    "nyiso_like_winter_day",
    "available_shapes",
    "day_shape",
    "multi_day_profile",
    # analysis
    "MonteCarloSummary",
    "summarize_values",
    # scenario engine
    "ScenarioSpec",
    "GridSpec",
    "AttackSpec",
    "DetectorSpec",
    "MTDSpec",
    "ContingencySpec",
    "expand_grid",
    "ScenarioEngine",
    "ResultCache",
    "ScenarioResult",
    "TrialResult",
    "available_scenarios",
    "scenario_suite",
    # campaign orchestration
    "CampaignDefinition",
    "CampaignOrchestrator",
    "CampaignStore",
    "available_campaigns",
    "campaign_from_suite",
    "plan_campaign",
    "run_campaign",
    # time-series operation
    "OperationSpec",
    "ProfileSpec",
    "TuningSpec",
    "OperationEngine",
    "OperationRecord",
    "OperationResult",
    "daily_operation_spec",
    # observability
    "telemetry",
    "__version__",
]
