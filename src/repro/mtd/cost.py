"""MTD operational-cost metric.

Section VI of the paper quantifies the cost of an MTD perturbation as the
relative increase of the OPF cost over the no-MTD optimum:

.. math::  C_{MTD,t'} = \\frac{C'_{OPF,t'} − C_{OPF,t'}}{C_{OPF,t'}} ≥ 0.

``C_OPF`` is the cost the operator would pay at time ``t'`` without MTD
(solving the standard OPF for the current load), while ``C'_OPF`` is the
cost with the MTD reactances installed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.grid.network import PowerNetwork
from repro.opf.dc_opf import solve_dc_opf
from repro.opf.reactance_opf import solve_reactance_opf
from repro.opf.result import OPFResult


@dataclass(frozen=True)
class MTDCostBreakdown:
    """Cost comparison between the no-MTD and the MTD-perturbed system.

    Attributes
    ----------
    baseline_cost:
        ``C_OPF`` — optimal cost without MTD ($/h).
    mtd_cost:
        ``C'_OPF`` — optimal cost with the MTD reactances installed ($/h).
    relative_increase:
        ``C_MTD = (C'_OPF − C_OPF)/C_OPF``.
    baseline:
        Full OPF result of the no-MTD system.
    with_mtd:
        Full OPF result of the MTD-perturbed system.
    """

    baseline_cost: float
    mtd_cost: float
    relative_increase: float
    baseline: OPFResult
    with_mtd: OPFResult

    @property
    def percent_increase(self) -> float:
        """The cost increase expressed in percent (as plotted in Figs. 9-10)."""
        return 100.0 * self.relative_increase

    @property
    def absolute_increase(self) -> float:
        """Absolute hourly premium paid for the MTD ($/h)."""
        return self.mtd_cost - self.baseline_cost


def mtd_operational_cost(
    network: PowerNetwork,
    mtd_reactances: np.ndarray,
    loads_mw: np.ndarray | None = None,
    baseline: str = "dispatch-only",
    baseline_result: OPFResult | None = None,
) -> MTDCostBreakdown:
    """Compute the MTD operational cost ``C_MTD``.

    Parameters
    ----------
    network:
        The grid (nominal reactances define the no-MTD system).
    mtd_reactances:
        Post-perturbation branch reactances ``x'``.
    loads_mw:
        Optional load override (per bus, MW) for the operating hour ``t'``.
    baseline:
        How ``C_OPF`` is computed:

        * ``"dispatch-only"`` (default) — the standard OPF at the nominal
          reactances, i.e. the problem the operator solves every few minutes
          between MTD updates.
        * ``"reactance-opf"`` — the joint dispatch + D-FACTS OPF of paper
          eq. (1), which may use the D-FACTS devices for economic dispatch
          (never for defense); this is the paper's literal baseline and is
          more expensive to evaluate.
    baseline_result:
        Pre-computed baseline OPF result; when provided, ``baseline`` is
        ignored and the solve is skipped (used by the time-series operation
        engine, which prices each hour against its chained baseline).

    Returns
    -------
    MTDCostBreakdown

    Notes
    -----
    The cost with MTD is always evaluated with the dispatch-only OPF at the
    fixed perturbed reactances: once the defender has committed to ``x'``
    for secrecy reasons, the D-FACTS settings are no longer free variables.
    """
    if baseline_result is None:
        if baseline == "dispatch-only":
            baseline_result = solve_dc_opf(network, loads_mw=loads_mw)
        elif baseline == "reactance-opf":
            baseline_result = solve_reactance_opf(network, loads_mw=loads_mw)
        else:
            raise ConfigurationError(
                f"unknown baseline {baseline!r}; use 'dispatch-only' or 'reactance-opf'"
            )

    with_mtd = solve_dc_opf(network, reactances=np.asarray(mtd_reactances, dtype=float), loads_mw=loads_mw)

    baseline_cost = baseline_result.cost
    mtd_cost = with_mtd.cost
    if baseline_cost <= 0:
        raise ConfigurationError(
            f"baseline OPF cost must be positive to define a relative increase, got {baseline_cost}"
        )
    # Numerical noise can make the difference marginally negative when the
    # perturbation does not bind any constraint; clamp at zero as the metric
    # is non-negative by construction.
    relative = max(0.0, (mtd_cost - baseline_cost) / baseline_cost)
    return MTDCostBreakdown(
        baseline_cost=baseline_cost,
        mtd_cost=mtd_cost,
        relative_increase=relative,
        baseline=baseline_result,
        with_mtd=with_mtd,
    )


__all__ = ["mtd_operational_cost", "MTDCostBreakdown"]
