"""Moving-target defense (MTD) for power-grid state estimation.

This subpackage implements the paper's contribution:

* :mod:`repro.mtd.subspace` — principal angles between measurement-matrix
  column spaces, in particular the smallest principal angle (SPA)
  ``γ(H, H')`` used as the design criterion.
* :mod:`repro.mtd.perturbation` — representation and application of D-FACTS
  reactance perturbations.
* :mod:`repro.mtd.conditions` — the detectability conditions of
  Proposition 1 and Theorem 1.
* :mod:`repro.mtd.effectiveness` — the attack-detection effectiveness metric
  ``η'(δ)`` evaluated over attack ensembles.
* :mod:`repro.mtd.cost` — the MTD operational-cost metric
  ``C_MTD = (C'_OPF − C_OPF)/C_OPF``.
* :mod:`repro.mtd.design` — the SPA-constrained OPF (paper eq. (4)) that
  selects minimum-cost perturbations meeting an effectiveness target, plus a
  maximum-SPA design used for ablations.
* :mod:`repro.mtd.random_mtd` — the random-perturbation baseline of prior
  work, used for the Fig. 7 / Fig. 8 comparison.
* :mod:`repro.mtd.tradeoff` — cost-vs-effectiveness sweeps (Fig. 9).
"""

from repro.mtd.subspace import (
    principal_angles,
    smallest_principal_angle,
    largest_principal_angle,
    subspace_angle,
    is_orthogonal_complement,
    column_space_overlap_dimension,
)
from repro.mtd.perturbation import ReactancePerturbation
from repro.mtd.conditions import (
    attack_remains_stealthy,
    admits_no_undetectable_attacks,
    undetectable_attack_subspace,
)
from repro.mtd.effectiveness import (
    EffectivenessEvaluator,
    EffectivenessResult,
)
from repro.mtd.cost import mtd_operational_cost, MTDCostBreakdown
from repro.mtd.design import MTDDesignResult, design_mtd_perturbation, max_spa_perturbation
from repro.mtd.random_mtd import RandomMTDBaseline
from repro.mtd.tradeoff import TradeoffCurve, TradeoffPoint, compute_tradeoff_curve
from repro.mtd.placement import (
    PlacementReport,
    greedy_placement,
    placement_report,
    stealthy_dimension,
)

__all__ = [
    "principal_angles",
    "smallest_principal_angle",
    "largest_principal_angle",
    "subspace_angle",
    "is_orthogonal_complement",
    "column_space_overlap_dimension",
    "ReactancePerturbation",
    "attack_remains_stealthy",
    "admits_no_undetectable_attacks",
    "undetectable_attack_subspace",
    "EffectivenessEvaluator",
    "EffectivenessResult",
    "mtd_operational_cost",
    "MTDCostBreakdown",
    "MTDDesignResult",
    "design_mtd_perturbation",
    "max_spa_perturbation",
    "RandomMTDBaseline",
    "TradeoffCurve",
    "TradeoffPoint",
    "compute_tradeoff_curve",
    "PlacementReport",
    "greedy_placement",
    "placement_report",
    "stealthy_dimension",
]
