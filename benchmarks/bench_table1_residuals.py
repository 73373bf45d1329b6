"""Table I — BDD residuals of stealthy attacks under single-line MTDs.

Regenerates the motivating example's detection table: two stealthy attacks
crafted from the 4-bus system's pre-perturbation measurement matrix are
checked against the BDD of the system after each of the four single-line
reactance perturbations (η = 0.2, no measurement noise).  A residual of zero
means the attack remains stealthy under that MTD.

Paper values (for reference):
    Attack 1: 2.82, 2.87, 0, 0      Attack 2: 0, 0, 2.87, 2.82
"""

from __future__ import annotations

import numpy as np

from repro import case4gs, stealthy_attack
from repro.analysis.reporting import format_table
from repro.estimation.linear_model import LinearModel
from repro.estimation.measurement import MeasurementSystem
from repro.mtd.perturbation import ReactancePerturbation

from _bench_utils import emit_bench_json, print_banner, time_call

#: Relative reactance change of the motivating example.
ETA = 0.2

#: The two state biases of Table I (entries for buses 2, 3 and 4).
ATTACK_BIASES = {
    "Attack 1": np.array([1.0, 1.0, 1.0]),
    "Attack 2": np.array([0.0, 0.0, 1.0]),
}


def compute_residual_table() -> dict[str, list[float]]:
    """Noise-free attack residuals under the four single-line perturbations."""
    network = case4gs()
    system = MeasurementSystem(network)
    attacker_matrix = system.matrix()
    table: dict[str, list[float]] = {}
    for name, bias in ATTACK_BIASES.items():
        attack = stealthy_attack(attacker_matrix, bias)
        residuals = []
        for line in range(network.n_branches):
            perturbation = ReactancePerturbation.single_line(network, line, ETA)
            model = LinearModel.from_measurement_system(
                system.with_reactances(perturbation.perturbed_reactances)
            )
            residuals.append(float(np.linalg.norm(model.attack_residuals(attack))))
        table[name] = residuals
    return table


def bench_table1_residuals(benchmark):
    """Regenerate Table I and time the residual computation."""
    table, table_seconds = benchmark.pedantic(
        time_call, args=(compute_residual_table,), rounds=3, iterations=1
    )

    print_banner("Table I — BDD residuals under single-line MTD perturbations (4-bus)")
    rows = [
        [name] + [round(value, 2) for value in residuals]
        for name, residuals in table.items()
    ]
    print(format_table(["", "r'(1)", "r'(2)", "r'(3)", "r'(4)"], rows))
    print("Expected pattern: each attack is missed (residual 0) by exactly two "
          "of the four perturbations, as in the paper.")

    emit_bench_json(
        "table1",
        {
            "table": "table1",
            "n_attacks": len(ATTACK_BIASES),
            "n_perturbations": len(next(iter(table.values()))),
            "table_seconds": table_seconds,
        },
    )

    # Sanity: the zero / non-zero pattern of the paper must hold.
    attack1, attack2 = table["Attack 1"], table["Attack 2"]
    assert attack1[0] > 1.0 and attack1[1] > 1.0
    assert abs(attack1[2]) < 1e-8 and abs(attack1[3]) < 1e-8
    assert abs(attack2[0]) < 1e-8 and abs(attack2[1]) < 1e-8
    assert attack2[2] > 1.0 and attack2[3] > 1.0
