#!/usr/bin/env python3
"""Planning questions around the paper: device placement and update frequency.

The paper fixes the D-FACTS placement and argues qualitatively that hourly
re-perturbation keeps the defender ahead of an attacker who must re-learn the
measurement matrix from eavesdropped data.  This example uses the library's
extension modules to make both questions quantitative:

1. **Placement** — how many stealthy attack directions survive *any*
   realisable perturbation of a given D-FACTS placement, and how much better
   a greedy placement of the same number of devices does.
2. **Knowledge decay** — how many measurement snapshots the attacker needs
   after a perturbation before their re-crafted attacks bypass the bad-data
   detector again, which bounds the required MTD update interval.

Run with ``python examples/mtd_planning_and_knowledge_decay.py``.
"""

from __future__ import annotations

import numpy as np

from repro import case14, solve_dc_opf
from repro.analysis.reporting import format_table
from repro.attacks.learning import knowledge_decay_curve
from repro.estimation.measurement import MeasurementSystem
from repro.mtd.design import max_spa_perturbation
from repro.mtd.placement import greedy_placement, placement_report, stealthy_dimension


def placement_study() -> None:
    network = case14()
    rows = []
    for label, branches in (
        ("paper placement (6 devices)", None),
        ("greedy placement (6 devices)", greedy_placement(case14(), 6)),
        ("greedy placement (13 devices)", greedy_placement(case14(), 13)),
        ("every line (20 devices)", tuple(range(20))),
    ):
        report = placement_report(network, branches)
        rows.append(
            [
                label,
                len(report.branches),
                report.stealthy_dimension,
                f"{100 * report.stealthy_fraction:.0f}%",
                "yes" if report.covers_spanning_tree else "no",
            ]
        )
    print(
        format_table(
            ["placement", "#devices", "surviving attack directions",
             "share of attack space", "spans all buses"],
            rows,
            title="How much of the attack space can a placement ever cover?",
        )
    )
    print(
        "\nNote: the 14-bus system has 2(N-1) = 26 state-related directions but only\n"
        "L = 20 lines, so at least 6 attack directions survive any placement — the\n"
        "structural reason the paper's effectiveness metric saturates below 1.\n"
    )


def knowledge_decay_study() -> None:
    network = case14()
    dispatch = solve_dc_opf(network)
    # The defender has just applied a maximum-separation perturbation; the
    # attacker now starts re-learning the perturbed system from scratch.
    design = max_spa_perturbation(network, seed=0)
    perturbed_system = MeasurementSystem(
        network, reactances=design.perturbed_reactances
    )
    # A small angle jitter means the eavesdropped snapshots carry little state
    # diversity, which is what makes the attacker's re-learning slow (the
    # paper's cited subspace attacks need 500-1000 information-rich samples).
    curve = knowledge_decay_curve(
        perturbed_system,
        dispatch.angles_rad,
        snapshot_counts=[20, 50, 100, 200, 400, 800],
        angle_jitter=0.003,
        n_attacks=40,
        seed=3,
    )
    print(
        format_table(
            ["snapshots eavesdropped", "subspace error (rad)",
             "mean detection probability of re-crafted attacks"],
            [
                [int(point["n_snapshots"]), round(point["subspace_error"], 3),
                 round(point["mean_detection_probability"], 3)]
                for point in curve
            ],
            title="Attacker knowledge decay after an MTD perturbation",
        )
    )
    print(
        "\nWith SCADA snapshots arriving every few seconds, the hundreds of snapshots\n"
        "needed before re-crafted attacks slip below the detector again correspond\n"
        "to tens of minutes to hours of eavesdropping — consistent with the paper's\n"
        "argument that hourly reactance updates keep previously learned (and\n"
        "re-learned) attack strategies detectable.  The decay rate depends on how\n"
        "much state diversity the attacker observes: the less the load moves, the\n"
        "longer the defender's perturbation stays effective."
    )


def main() -> None:
    placement_study()
    knowledge_decay_study()


if __name__ == "__main__":
    main()
