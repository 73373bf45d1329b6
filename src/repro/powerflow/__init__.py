"""DC power-flow computations.

Implements the linearised (dc) power-flow model adopted by the paper:
branch flows are ``F_l = (θ_i − θ_j) / x_l`` and nodal balance is
``g − l = B θ`` with ``B = A D Aᵀ``.
"""

from repro.powerflow.dc import DCPowerFlowResult, solve_dc_power_flow, flows_from_angles
from repro.powerflow.ptdf import ptdf_matrix, generation_shift_factors
from repro.powerflow.contingency import (
    ContingencyScreenResult,
    bridge_branches,
    post_outage_ptdf,
    ptdf_with_branch_outage,
    screen_branch_outages,
)

__all__ = [
    "DCPowerFlowResult",
    "solve_dc_power_flow",
    "flows_from_angles",
    "ptdf_matrix",
    "generation_shift_factors",
    "ContingencyScreenResult",
    "bridge_branches",
    "post_outage_ptdf",
    "ptdf_with_branch_outage",
    "screen_branch_outages",
]
