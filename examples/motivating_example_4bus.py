#!/usr/bin/env python3
"""The paper's motivating example (Section IV-B) on the 4-bus system.

Reproduces the three tables of the motivating example:

* Table II — pre-perturbation branch flows, generator dispatch and OPF cost;
* Table I  — noise-free BDD residuals of two stealthy attacks under four
  single-line reactance perturbations (η = 0.2), showing that every randomly
  chosen single-line MTD leaves some attacks undetected;
* Table III — post-perturbation dispatch and OPF cost, showing that every
  perturbation carries an operational cost and that the costs differ.

Run with ``python examples/motivating_example_4bus.py``.
"""

from __future__ import annotations

import numpy as np

from repro import case4gs, solve_dc_opf, stealthy_attack
from repro.analysis.reporting import format_table
from repro.estimation.linear_model import LinearModel
from repro.estimation.measurement import MeasurementSystem
from repro.mtd.perturbation import ReactancePerturbation

#: Relative reactance change of the motivating example.
ETA = 0.2

#: The two attack vectors of Table I (state biases on buses 2-4).
ATTACKS = {
    "Attack 1 (c = [0,1,1,1])": np.array([1.0, 1.0, 1.0]),
    "Attack 2 (c = [0,0,0,1])": np.array([0.0, 0.0, 1.0]),
}


def main() -> None:
    network = case4gs()
    baseline = solve_dc_opf(network)

    # ------------------------------------------------------------------
    # Table II: the pre-perturbation operating point.
    # ------------------------------------------------------------------
    print(
        format_table(
            ["Line 1 (MW)", "Line 2 (MW)", "Line 3 (MW)", "Line 4 (MW)",
             "Gen 1 (MW)", "Gen 2 (MW)", "Cost ($)"],
            [list(np.round(baseline.flows_mw, 2)) + list(np.round(baseline.dispatch_mw, 1))
             + [round(baseline.cost, 1)]],
            title="Table II — pre-perturbation power flows, dispatch and OPF cost",
        )
    )

    # ------------------------------------------------------------------
    # Table I: BDD residuals of the two attacks under the four MTDs.
    # ------------------------------------------------------------------
    system = MeasurementSystem(network)
    attacker_matrix = system.matrix()
    rows = []
    for name, bias in ATTACKS.items():
        attack = stealthy_attack(attacker_matrix, bias)
        residuals = []
        for line in range(network.n_branches):
            perturbation = ReactancePerturbation.single_line(network, line, ETA)
            model = LinearModel.from_measurement_system(
                system.with_reactances(perturbation.perturbed_reactances)
            )
            residuals.append(round(float(np.linalg.norm(model.attack_residuals(attack))), 2))
        rows.append([name] + residuals)
    print()
    print(
        format_table(
            ["", "r'(1)", "r'(2)", "r'(3)", "r'(4)"],
            rows,
            title="Table I — noise-free BDD residuals under single-line MTDs "
                  "(0 means the attack stays stealthy)",
        )
    )

    # ------------------------------------------------------------------
    # Table III: post-perturbation dispatch and cost.
    # ------------------------------------------------------------------
    rows = []
    for line in range(network.n_branches):
        perturbation = ReactancePerturbation.single_line(network, line, ETA)
        result = solve_dc_opf(network, reactances=perturbation.perturbed_reactances)
        rows.append(
            [f"Delta-x{line + 1}",
             round(result.dispatch_mw[0], 2),
             round(result.dispatch_mw[1], 2),
             round(result.cost, 1),
             f"{100.0 * (result.cost - baseline.cost) / baseline.cost:.2f}%"]
        )
    print()
    print(
        format_table(
            ["MTD", "Gen 1 (MW)", "Gen 2 (MW)", "OPF cost ($)", "Increase"],
            rows,
            title="Table III — post-perturbation dispatch and OPF cost",
        )
    )
    print(
        "\nTakeaway: every single-line perturbation leaves one of the two attacks\n"
        "completely stealthy (a zero residual in Table I), and each one increases\n"
        "the operating cost by a different amount (Table III) — which is exactly\n"
        "why the paper formulates MTD selection as a constrained optimisation."
    )


if __name__ == "__main__":
    main()
