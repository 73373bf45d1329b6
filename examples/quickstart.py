#!/usr/bin/env python3
"""Quickstart: moving-target defense on the IEEE 14-bus system.

The script walks through the full story of the paper in a few steps:

1. load the IEEE 14-bus benchmark with the paper's generator, D-FACTS and
   flow-limit settings and dispatch it with the DC optimal power flow;
2. let an attacker who knows the measurement matrix craft a stealthy
   false-data-injection (FDI) attack and show that the bad-data detector
   (BDD) cannot see it;
3. design an MTD reactance perturbation with the subspace-angle criterion
   (paper eq. (4)) and show that the same attack is now detected;
4. report the operational cost of the defense.

Run with ``python examples/quickstart.py``.
"""

from __future__ import annotations

import numpy as np

from repro import (
    BadDataDetector,
    EffectivenessEvaluator,
    MeasurementSystem,
    case14,
    design_mtd_perturbation,
    mtd_operational_cost,
    solve_dc_opf,
    stealthy_attack,
)


def main() -> None:
    # ------------------------------------------------------------------
    # 1. The grid and its normal operation.
    # ------------------------------------------------------------------
    network = case14()
    print(network.describe())
    dispatch = solve_dc_opf(network)
    print(f"OPF cost without MTD: ${dispatch.cost:,.2f}/h")
    print(f"Generator dispatch (MW): {np.round(dispatch.dispatch_mw, 1)}")

    # ------------------------------------------------------------------
    # 2. A stealthy FDI attack against the unperturbed system.
    # ------------------------------------------------------------------
    measurements = MeasurementSystem(network)
    detector = BadDataDetector(measurements)
    attacker_matrix = measurements.matrix()

    # The attacker biases three state variables (bus voltage phase angles).
    state_bias = np.zeros(measurements.n_states)
    state_bias[[2, 5, 8]] = [0.02, -0.015, 0.01]
    attack = stealthy_attack(attacker_matrix, state_bias)

    clean = measurements.measure(dispatch.angles_rad, rng=0)
    attacked = measurements.measure(dispatch.angles_rad, rng=0, attack=attack)
    print("\n--- Attack against the unperturbed grid ---")
    print(f"BDD alarm on clean measurements:    {detector.raises_alarm(clean)}")
    print(f"BDD alarm on attacked measurements: {detector.raises_alarm(attacked)}")
    print(f"Detection probability of the attack: {detector.detection_probability(attack):.4f} "
          f"(= false-positive rate {detector.false_positive_rate})")

    # ------------------------------------------------------------------
    # 3. Design an MTD perturbation and re-run the attack.
    # ------------------------------------------------------------------
    design = design_mtd_perturbation(network, gamma_threshold=0.25, method="two-stage", seed=0)
    print("\n--- MTD design (gamma_th = 0.25 rad) ---")
    print(f"Achieved subspace angle: {design.achieved_spa:.3f} rad")
    print(f"Perturbed branches: {design.perturbation.perturbed_branches}")

    perturbed_system = measurements.with_reactances(design.perturbed_reactances)
    mtd_detector = BadDataDetector(perturbed_system)
    print(f"Detection probability of the same attack after MTD: "
          f"{mtd_detector.detection_probability(attack):.4f}")

    # Ensemble view: what fraction of all stealthy attacks is now detectable?
    evaluator = EffectivenessEvaluator(
        network, operating_angles_rad=dispatch.angles_rad, n_attacks=500, seed=1
    )
    effectiveness = evaluator.evaluate(design.perturbed_reactances)
    print(f"Effectiveness eta'(0.9) over 500 random attacks: {effectiveness.eta(0.9):.2f}")

    # ------------------------------------------------------------------
    # 4. What does the defense cost?
    # ------------------------------------------------------------------
    cost = mtd_operational_cost(network, design.perturbed_reactances, baseline="reactance-opf")
    print("\n--- MTD operational cost ---")
    print(f"OPF cost without MTD: ${cost.baseline_cost:,.2f}/h")
    print(f"OPF cost with MTD:    ${cost.mtd_cost:,.2f}/h")
    print(f"MTD premium:          {cost.percent_increase:.2f}%")


if __name__ == "__main__":
    main()
