"""Registry of canonical scenario suites.

Each entry maps a name to a *suite* — a tuple of
:class:`~repro.engine.spec.ScenarioSpec` — that captures the setup of one
published result of the paper (Figs. 6-11, Tables I-III) or one of the
larger synthetic stress cases this repository adds on top (57-, 118- and
300-bus networks from :func:`repro.grid.cases.synthetic_case`, registered
in the case registry as ``synthetic57`` / ``synthetic118`` /
``synthetic300``).

The registry stores *specifications only*: building a suite is free, and
nothing runs until the suite is handed to a
:class:`~repro.engine.runner.ScenarioEngine`.  Trial budgets follow the
paper (e.g. 1000-attack ensembles); scale them down with
``spec.with_updates({"attack.n_attacks": ...}, n_trials=...)`` for quick
runs — derived specs hash differently, so caches stay consistent.
"""

from __future__ import annotations

from typing import Callable, Mapping

from functools import lru_cache

from repro.engine.spec import (
    AttackSpec,
    ContingencySpec,
    DetectorSpec,
    GridSpec,
    MTDSpec,
    ScenarioSpec,
    expand_grid,
)
from repro.exceptions import ConfigurationError
from repro.timeseries.engine import daily_operation_spec
from repro.timeseries.spec import ProfileSpec

#: η'(δ) thresholds reported by the paper's effectiveness figures.
PAPER_DELTAS = (0.5, 0.8, 0.9, 0.95)

#: γ_th sweep of the Fig. 6 / Fig. 9 experiments (radians).
GAMMA_GRID = tuple(round(0.05 * k, 2) for k in range(1, 11))


def _fig6(case: str, *, noise_sigma: float, baseline: str, seed: int) -> tuple[ScenarioSpec, ...]:
    base = ScenarioSpec(
        name=f"fig6-{case}",
        grid=GridSpec(case=case, baseline=baseline),
        attack=AttackSpec(n_attacks=1000, seed=seed),
        detector=DetectorSpec(noise_sigma=noise_sigma),
        mtd=MTDSpec(policy="designed", design_method="two-stage"),
        deltas=PAPER_DELTAS,
        metric="eta(0.9)",
        description=(
            "MTD effectiveness eta'(delta) versus the designed subspace angle "
            "gamma(H_t, H'_t') — paper Fig. 6."
        ),
        tags=("paper", "fig6", case),
    )
    return tuple(expand_grid(base, {"mtd.gamma_threshold": GAMMA_GRID}))


def _fig7() -> tuple[ScenarioSpec, ...]:
    return (
        ScenarioSpec(
            name="fig7-random-mtd",
            grid=GridSpec(case="ieee14", baseline="reactance-opf"),
            attack=AttackSpec(n_attacks=1000, seed=1),
            mtd=MTDSpec(policy="random", max_relative_change=0.02),
            n_trials=5,
            base_seed=5,
            deltas=(0.1, 0.2, 0.4, 0.6, 0.8, 0.9),
            metric="eta(0.9)",
            description=(
                "Five randomly chosen 2%-bounded MTD perturbations evaluated "
                "against the shared attack ensemble — paper Fig. 7."
            ),
            tags=("paper", "fig7", "random-mtd"),
        ),
    )


def _fig8() -> tuple[ScenarioSpec, ...]:
    return (
        ScenarioSpec(
            name="fig8-keyspace",
            grid=GridSpec(case="ieee14", baseline="reactance-opf"),
            attack=AttackSpec(n_attacks=1000, seed=1),
            mtd=MTDSpec(policy="random", max_relative_change=0.02),
            n_trials=500,
            base_seed=8,
            deltas=(0.1, 0.3, 0.5, 0.7, 0.9),
            metric="eta(0.9)",
            description=(
                "500-sample keyspace of random MTD perturbations; the Fig. 8 "
                "statistic is the fraction of trials with eta'(delta) >= 0.9."
            ),
            tags=("paper", "fig8", "random-mtd"),
        ),
    )


def _fig9() -> tuple[ScenarioSpec, ...]:
    base = ScenarioSpec(
        name="fig9-tradeoff",
        grid=GridSpec(case="ieee14", baseline="reactance-opf"),
        attack=AttackSpec(n_attacks=1000, seed=1),
        mtd=MTDSpec(policy="designed", design_method="two-stage", include_cost=True),
        deltas=PAPER_DELTAS,
        metric="cost_increase_percent",
        description=(
            "Effectiveness/operational-cost trade-off of the designed MTD at "
            "the evening-peak load — paper Fig. 9."
        ),
        tags=("paper", "fig9", "tradeoff"),
    )
    return tuple(expand_grid(base, {"mtd.gamma_threshold": GAMMA_GRID}))


def _fig10_operation() -> tuple[ScenarioSpec, ...]:
    """Figs. 10-11, faithfully: one spec'd day of hourly MTD operation.

    A single time-series operation scenario — 24 hours of the winter
    weekday profile, one-hour-stale attacker knowledge with wrap-around
    warm-up, per-hour SPA-threshold bisection to ``η'(0.9) ≥ 0.9`` — whose
    24 trials are the 24 operated hours.  Both figures read off the same
    run: Fig. 10 from ``cost_increase_percent``/``total_load_mw``, Fig. 11
    from the three ``spa_*`` metrics.
    """
    return (
        daily_operation_spec(
            name="fig10-operation",
            case="ieee14",
            cost_baseline="reactance-opf",
            n_attacks=300,
            seed=0,
            description=(
                "Hourly MTD operation over a winter-weekday load profile "
                "with one-hour-stale attacker knowledge — the cost series "
                "of Fig. 10 and the angle series of Fig. 11."
            ),
            tags=("paper", "fig10", "fig11", "daily", "operation"),
        ),
    )


def _daily_ops() -> tuple[ScenarioSpec, ...]:
    """Beyond the paper: seasonal and multi-day operation horizons.

    The weekday/weekend/summer shapes and a two-day weekday+weekend
    horizon, all on the IEEE 14-bus case — the scenario diversity the
    time-series engine exists for, and a multi-point suite whose campaigns
    exercise sharding and resume at the spec level.
    """
    variants = (
        ("weekday", ProfileSpec(shape="winter-weekday")),
        ("weekend", ProfileSpec(shape="winter-weekend")),
        ("summer", ProfileSpec(shape="summer-weekday")),
        ("weekend-transition", ProfileSpec(days=("winter-weekday", "winter-weekend"))),
    )
    return tuple(
        daily_operation_spec(
            name=f"daily-ops-{label}",
            case="ieee14",
            cost_baseline="reactance-opf",
            profile=profile,
            n_attacks=300,
            seed=0,
            description=f"Hourly MTD operation over a {label} load horizon.",
            tags=("daily", "operation", label),
        )
        for label, profile in variants
    )


def _tables() -> tuple[ScenarioSpec, ...]:
    """Tables I-III: the 4-bus motivating example.

    Table I shows that the crafted FDI attack is stealthy before the MTD
    (the ``none`` control: every attack stays at the false-positive floor)
    and exposed after it; Tables II/III report the pre-/post-perturbation
    dispatch costs, captured here by ``include_cost``.
    """
    common = dict(
        grid=GridSpec(case="case4gs", baseline="dc-opf"),
        attack=AttackSpec(n_attacks=200, seed=4),
        deltas=PAPER_DELTAS,
    )
    return (
        ScenarioSpec(
            name="table1-table2-preperturbation",
            mtd=MTDSpec(policy="none", gamma_threshold=None, include_cost=True),
            metric="undetectable_fraction",
            description=(
                "4-bus system before the perturbation: stealthy attacks stay "
                "at the BDD false-positive floor (Table I) at the Table II "
                "operating point."
            ),
            tags=("paper", "table1", "table2", "case4"),
            **common,
        ),
        ScenarioSpec(
            name="table1-table3-postperturbation",
            mtd=MTDSpec(policy="designed", gamma_threshold=0.2, include_cost=True),
            metric="mean_detection_probability",
            description=(
                "4-bus system after a designed reactance perturbation: the "
                "attack residuals become visible (Table I) at the re-dispatch "
                "cost of Table III."
            ),
            tags=("paper", "table1", "table3", "case4"),
            **common,
        ),
    )


@lru_cache(maxsize=8)
def _screenable_branches(case: str) -> tuple[int, ...]:
    """Branches of ``case`` whose N-1 outage admits a post-contingency OPF.

    Excludes bridges (their outage islands the grid — rejected with
    :class:`~repro.exceptions.IslandingError` at derivation time) and
    outages whose post-contingency flow limits make the DC-OPF infeasible
    (on the tightly-rated IEEE 14-bus case a handful of lines are
    security-critical at nominal load).  Deterministic per case, memoised
    because suite builders may be invoked repeatedly.
    """
    from repro.exceptions import OPFInfeasibleError
    from repro.grid.cases.registry import load_case
    from repro.opf.dc_opf import solve_dc_opf
    from repro.powerflow.contingency import bridge_branches

    network = load_case(case)
    bridges = set(bridge_branches(network))
    screenable = []
    for k in range(network.n_branches):
        if k in bridges:
            continue
        try:
            solve_dc_opf(network.with_branch_outages([k]))
        except OPFInfeasibleError:
            continue
        screenable.append(k)
    return tuple(screenable)


def _n1_screening(case: str, *, seed: int) -> tuple[ScenarioSpec, ...]:
    """N-1 contingency screening: the full MTD pipeline per outage.

    One scenario per screenable single-branch outage (plus the intact-grid
    reference point, whose no-op contingency keeps ``contingency.outage``
    a groupable key across the whole suite): the post-contingency operating
    point is re-dispatched, the attacker's ensemble is built against the
    post-contingency measurement matrix, and each trial reports the usual
    effectiveness metrics plus the post-contingency BDD false-alarm rate.
    """
    base = ScenarioSpec(
        name=f"n1-{case}",
        grid=GridSpec(case=case, baseline="dc-opf"),
        attack=AttackSpec(n_attacks=200, seed=seed),
        mtd=MTDSpec(policy="designed", gamma_threshold=0.25, design_method="two-stage"),
        contingency=ContingencySpec(),
        n_trials=2,
        base_seed=41,
        deltas=PAPER_DELTAS,
        metric="eta(0.9)",
        description=(
            "N-1 contingency screening of the designed MTD: effectiveness "
            "and BDD false-alarm rate under each post-contingency topology."
        ),
        tags=("n1", "contingency", case),
    )
    specs = [
        base.with_updates(
            name=f"n1-{case}-base",
            description="Intact-grid reference point of the N-1 screen.",
        )
    ]
    for k in _screenable_branches(case):
        specs.append(
            base.with_updates(
                {"contingency.branch_outages": (int(k),)},
                name=f"n1-{case}-b{k}",
                description=f"Branch {k} outage on {case}.",
            )
        )
    return tuple(specs)


def _scale_suite() -> tuple[ScenarioSpec, ...]:
    """Beyond the paper: the same pipeline on progressively larger grids.

    Random-policy Monte Carlo with per-trial attack ensembles (``seed=None``)
    across the IEEE cases and the 57-/118-/300-/1354-bus synthetic networks —
    the workload the engine's process pool, vectorised kernels, cache and sparse
    factorization backend exist for (cases at or above
    ``SPARSE_BUS_THRESHOLD`` buses resolve ``backend="auto"`` to the sparse
    Q-less kernels).
    """
    specs = []
    for case, baseline in (
        ("ieee14", "dc-opf"),
        ("ieee30", "dc-opf"),
        ("synthetic57", "dc-opf"),
        ("synthetic118", "dc-opf"),
        ("synthetic300", "dc-opf"),
        ("synthetic1354", "dc-opf"),
    ):
        specs.append(
            ScenarioSpec(
                name=f"scale-{case}",
                grid=GridSpec(case=case, baseline=baseline),
                attack=AttackSpec(n_attacks=200, seed=None),
                mtd=MTDSpec(policy="random", max_relative_change=0.2),
                n_trials=8,
                base_seed=1729,
                deltas=PAPER_DELTAS,
                metric="eta(0.9)",
                description=(
                    f"Random-MTD Monte Carlo on {case}: per-trial attack "
                    "ensembles and perturbations, for scale-out stress runs."
                ),
                tags=("scale", case),
            )
        )
    return tuple(specs)


_SUITES: Mapping[str, Callable[[], tuple[ScenarioSpec, ...]]] = {
    "fig6a": lambda: _fig6("ieee14", noise_sigma=0.0015, baseline="reactance-opf", seed=1),
    "fig6b": lambda: _fig6("ieee30", noise_sigma=0.0007, baseline="dc-opf", seed=2),
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10_operation,
    "fig11": _fig10_operation,  # same simulated day; Fig. 11 reads the spa_* metrics
    "daily-ops": _daily_ops,
    "tables": _tables,
    "scale": _scale_suite,
    "n1-screening": lambda: _n1_screening("ieee14", seed=11),
    "n1-screening-30": lambda: _n1_screening("ieee30", seed=12),
}


def available_scenarios() -> tuple[str, ...]:
    """Sorted names of the registered scenario suites."""
    return tuple(sorted(_SUITES))


def scenario_suite(name: str) -> tuple[ScenarioSpec, ...]:
    """Build the scenario suite registered under ``name``."""
    key = name.strip().lower()
    if key not in _SUITES:
        raise ConfigurationError(
            f"unknown scenario suite {name!r}; available: {', '.join(available_scenarios())}"
        )
    return _SUITES[key]()


__all__ = [
    "PAPER_DELTAS",
    "GAMMA_GRID",
    "available_scenarios",
    "scenario_suite",
]
