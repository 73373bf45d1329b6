"""Fig. 7 — effectiveness of five randomly chosen MTD perturbations.

Five random reactance perturbations (the strategy of the prior MTD work the
paper compares against, constrained to within 2 % of the operating values)
are evaluated against the shared attack ensemble.  The figure's message is
the high variability across trials: random perturbations cannot guarantee a
level of attack detection.

The trials are driven through the scenario engine: each benchmark run is a
declarative :class:`~repro.engine.spec.ScenarioSpec` whose trials draw one
random perturbation each from seed-spawned streams, against the ensemble
pinned by ``AttackSpec.seed``.

Beyond the paper, the benchmark repeats the same sweep on the 118-bus
synthetic case twice — once through a per-attack reference loop over the
scalar detector (:func:`reference_probabilities`) and once through the
evaluator's batched kernel — and records both timings (and their ratio) in
``BENCH_fig7.json``; the batched kernel must be at least 3x faster at the
quick/full budgets.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import format_table
from repro.engine import AttackSpec, GridSpec, MTDSpec, ScenarioEngine, ScenarioSpec
from repro.estimation.bdd import DEFAULT_FALSE_POSITIVE_RATE, BadDataDetector
from repro.estimation.measurement import DEFAULT_NOISE_SIGMA, MeasurementSystem
from repro.grid.cases.registry import load_case
from repro.mtd.effectiveness import EffectivenessEvaluator
from repro.mtd.random_mtd import RandomMTDBaseline
from repro.opf.dc_opf import solve_dc_opf

from _bench_utils import emit_bench_json, print_banner, time_call

#: δ grid of the paper's Fig. 7 (x-axis).
DELTA_GRID = (0.1, 0.2, 0.4, 0.6, 0.8, 0.9)

#: Large case for the batched-vs-reference kernel comparison.
SCALE_CASE = "synthetic118"

#: Minimum batched-kernel speedup asserted at the quick/full budgets.
MIN_SPEEDUP = 3.0


def random_mtd_spec(n_trials, n_attacks, max_relative_change=0.02):
    """The Fig. 7 experiment as a scenario spec."""
    return ScenarioSpec(
        name=f"fig7-random-mtd-{max_relative_change:g}",
        grid=GridSpec(case="ieee14", baseline="reactance-opf"),
        attack=AttackSpec(n_attacks=n_attacks, seed=1),
        mtd=MTDSpec(policy="random", max_relative_change=max_relative_change),
        n_trials=n_trials,
        base_seed=5,
        deltas=DELTA_GRID,
        metric="eta(0.9)",
    )


def evaluate_random_trials(engine, n_trials, n_attacks, max_relative_change=0.02):
    """η'(δ) of each random trial over the δ grid."""
    result = engine.run(random_mtd_spec(n_trials, n_attacks, max_relative_change))
    return [
        {delta: trial.metrics[f"eta({delta:g})"] for delta in DELTA_GRID}
        for trial in result.trials
    ]


def reference_probabilities(network, evaluator, reactances):
    """Per-attack reference loop: one scalar detector call per attack.

    Builds the perturbation's detector with the evaluator's σ and α (the
    library defaults, which ``kernel_comparison`` leaves in place); like the
    evaluator's own detector, it factors on the backend its bus count
    selects, so it prices exactly what the batched kernel does.
    """
    detector = BadDataDetector(
        MeasurementSystem.for_network(
            network, reactances=reactances, noise_sigma=DEFAULT_NOISE_SIGMA
        ),
        false_positive_rate=DEFAULT_FALSE_POSITIVE_RATE,
    )
    return np.array(
        [detector.detection_probability(attack) for attack in evaluator.ensemble.attacks]
    )


def kernel_comparison(case, n_trials, n_attacks, max_relative_change=0.02):
    """Time the Fig. 7 sweep on a large case: reference loop vs batched kernel.

    The same random perturbations (drawn once, seeded as in the Fig. 7
    spec) are priced against the same pinned attack ensemble by both
    kernels; returns the two wall-clock timings plus the maximum
    probability disagreement as a cross-check.
    """
    network = load_case(case)
    baseline = solve_dc_opf(network)
    evaluator = EffectivenessEvaluator(
        network,
        operating_angles_rad=baseline.angles_rad,
        base_reactances=baseline.reactances,
        n_attacks=n_attacks,
        seed=1,
    )
    sampler = RandomMTDBaseline(
        network, evaluator, max_relative_change=max_relative_change
    )
    rng = np.random.default_rng(5)
    perturbations = [
        sampler.draw_perturbation(seed=rng).perturbed_reactances
        for _ in range(n_trials)
    ]

    reference, reference_seconds = time_call(
        lambda: [reference_probabilities(network, evaluator, x) for x in perturbations]
    )
    batched, batched_seconds = time_call(
        lambda: [evaluator.evaluate(x) for x in perturbations]
    )
    max_disagreement = max(
        float(np.max(np.abs(r - b.detection_probabilities)))
        for r, b in zip(reference, batched)
    )
    return reference_seconds, batched_seconds, max_disagreement


def bench_fig7_random_mtd(benchmark, scale):
    """Regenerate the Fig. 7 trials and time their evaluation."""
    engine = ScenarioEngine()
    (trials, engine_seconds) = benchmark.pedantic(
        time_call,
        args=(evaluate_random_trials, engine, scale.n_random_trials, scale.n_attacks),
        rounds=1,
        iterations=1,
    )
    # Complementary view: random perturbations spanning the full D-FACTS
    # range (±50 %), which exhibit the trial-to-trial variability Fig. 7
    # emphasises even though individual trials can be moderately effective.
    wide_trials = evaluate_random_trials(
        engine, scale.n_random_trials, scale.n_attacks, max_relative_change=0.5
    )

    print_banner(
        f"Fig. 7 — eta'(delta) of {scale.n_random_trials} randomly chosen MTD "
        "perturbations (within 2% of the operating reactances), IEEE 14-bus"
    )
    print(
        format_table(
            ["delta"] + [f"Trial {i + 1}" for i in range(len(trials))],
            [
                [delta] + [round(trial[delta], 3) for trial in trials]
                for delta in DELTA_GRID
            ],
        )
    )
    print()
    print(
        format_table(
            ["delta"] + [f"Trial {i + 1}" for i in range(len(wide_trials))],
            [
                [delta] + [round(trial[delta], 3) for trial in wide_trials]
                for delta in DELTA_GRID
            ],
            title="Same experiment with random perturbations over the full ±50% "
                  "D-FACTS range",
        )
    )
    print("Paper shape: large spread across trials and low values at high delta — "
          "randomly selected perturbations cannot guarantee effective detection.")

    # Beyond the paper: the same sweep on the 118-bus synthetic case, timed
    # through both detection kernels.
    reference_seconds, batched_seconds, max_disagreement = kernel_comparison(
        SCALE_CASE, scale.n_random_trials, scale.n_attacks
    )
    speedup = reference_seconds / batched_seconds if batched_seconds > 0 else float("inf")
    print_banner(
        f"Fig. 7 sweep on {SCALE_CASE}: reference kernel {reference_seconds:.3f}s "
        f"vs batched kernel {batched_seconds:.3f}s ({speedup:.1f}x, "
        f"max |Delta P_D| = {max_disagreement:.2e})"
    )
    emit_bench_json(
        "fig7",
        {
            "figure": "fig7",
            "case": "ieee14",
            "scale": scale.name,
            "n_attacks": scale.n_attacks,
            "n_random_trials": scale.n_random_trials,
            "engine_seconds": engine_seconds,
            "kernel_comparison": {
                "case": SCALE_CASE,
                "reference_seconds": reference_seconds,
                "batched_seconds": batched_seconds,
                "speedup": speedup,
                "max_probability_disagreement": max_disagreement,
            },
            "history_seconds": {
                "reference": reference_seconds,
                "batched": batched_seconds,
            },
        },
    )

    # Each trial's eta is non-increasing in delta, and no 2% random trial
    # reaches the paper's eta'(0.9) >= 0.9 target.
    for trial in trials:
        values = [trial[delta] for delta in DELTA_GRID]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
    assert max(trial[0.9] for trial in trials) < 0.9
    # The wide keyspace shows real spread across trials.
    if scale.name != "smoke":
        wide_eta_05 = [trial[0.4] for trial in wide_trials]
        assert max(wide_eta_05) - min(wide_eta_05) > 0.1
    # The two kernels must agree (to floating point) ...
    assert max_disagreement < 1e-9
    # ... and the batched kernel must deliver the promised speedup at real
    # budgets (tiny smoke batches are dominated by constant overheads).
    if scale.name != "smoke":
        assert speedup >= MIN_SPEEDUP, (
            f"batched kernel speedup {speedup:.2f}x below the {MIN_SPEEDUP}x target"
        )
