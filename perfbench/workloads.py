"""The benchmark's workloads: two paper suite points as trial streams.

Each workload turns ``--seed`` into a scenario spec taken from the
library's own suite registry, and the unit of work it times is one call of
the engine's trial entry point :func:`repro.engine.run_trial`:

* ``fig8-keyspace`` — Fig. 8's random-MTD keyspace on IEEE 14-bus: a
  reactance-OPF baseline and a 1000-attack ensemble shared by every trial,
  then per trial one random ±2 % D-FACTS perturbation, its SPA and its
  analytic BDD effectiveness.  Set-up heavy, trials of a few milliseconds.
* ``scale-synthetic300`` — the scale suite's 300-bus point: per-trial
  attack ensembles and ±20 % perturbations on the sparse backend.
  Dominated by the SPA kernel and the ensemble on a large ``H``.
"""

from __future__ import annotations

import math

from repro.engine import ScenarioSpec, scenario_suite
from repro.engine.trial import network_for_grid

import oracle

#: Trial budget of a workload's spec: never reached in a run.
UNBOUNDED_TRIALS = 10**9


def capture(spec: ScenarioSpec) -> oracle.Capture:
    """An oracle capture bound to ``spec``'s network and detector."""
    return oracle.Capture(
        network=network_for_grid(spec.grid),
        noise_sigma=spec.detector.noise_sigma,
        alpha=spec.detector.false_positive_rate,
    )


def _finite(metrics: dict[str, float]) -> None:
    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    if bad:
        raise AssertionError(f"non-finite metrics: {bad}")


def _in_range(metrics: dict[str, float], key: str, low: float, high: float) -> None:
    value = metrics[key]
    if not (low <= value <= high):
        raise AssertionError(f"{key} = {value} outside [{low}, {high}]")


class EffectivenessWorkload:
    """Independent random-MTD trials of one scenario (Fig. 8, scale)."""

    def __init__(self, name: str, suite: str, scenario: str, pin_attack_seed: bool) -> None:
        self.name = name
        self._suite = suite
        self._scenario = scenario
        self._pin_attack_seed = pin_attack_seed

    def spec(self, seed: int) -> ScenarioSpec:
        (base,) = [s for s in scenario_suite(self._suite) if s.name == self._scenario]
        updates = {"attack.seed": seed} if self._pin_attack_seed else {}
        return base.with_updates(updates, base_seed=seed, n_trials=UNBOUNDED_TRIALS)

    def check(self, spec: ScenarioSpec, metrics: dict[str, float]) -> None:
        """Invariants every trial's metrics satisfy."""
        _finite(metrics)
        etas = [metrics[f"eta({d:g})"] for d in spec.deltas]
        if any(not 0.0 <= value <= 1.0 for value in etas):
            raise AssertionError(f"eta outside [0, 1]: {etas}")
        if any(b > a for a, b in zip(etas, etas[1:])):
            raise AssertionError(f"eta(delta) increases with delta: {etas}")
        _in_range(metrics, "mean_detection_probability", 0.0, 1.0)
        _in_range(metrics, "undetectable_fraction", 0.0, 1.0)
        _in_range(metrics, "spa", 0.0, math.pi / 2)

    def check_oracle(
        self, spec: ScenarioSpec, metrics: dict[str, float], evaluations: list[oracle.Evaluation]
    ) -> None:
        """The trial's metrics against the oracle's view of its evaluation."""
        if not evaluations:
            raise AssertionError("the trial evaluated no perturbation")
        oracle.check_trial_metrics(metrics, spec.deltas, evaluations[-1])


WORKLOADS = {
    w.name: w
    for w in (
        EffectivenessWorkload(
            "fig8-keyspace",
            suite="fig8",
            scenario="fig8-keyspace",
            pin_attack_seed=True,
        ),
        EffectivenessWorkload(
            "scale-synthetic300",
            suite="scale",
            scenario="scale-synthetic300",
            pin_attack_seed=False,
        ),
    )
}
