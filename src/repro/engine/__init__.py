"""Scenario engine: declarative experiment specs with parallel, cached runs.

The engine separates *what* an experiment is from *how* it executes:

* :mod:`repro.engine.spec` — frozen :class:`ScenarioSpec` value objects
  with dict/JSON round-trip, a stable content hash, dotted-path derivation
  (:meth:`~ScenarioSpec.with_updates`) and grid expansion
  (:func:`expand_grid`);
* :mod:`repro.engine.runner` — :class:`ScenarioEngine`, executing specs
  serially or on a process pool with bit-identical results;
* :mod:`repro.engine.trial` — :func:`run_trial`, the self-seeding unit of
  work, and :func:`clear_context_caches`, which drops its per-process
  scenario memos;
* :mod:`repro.engine.cache` — :class:`ResultCache`, an on-disk store keyed
  by spec hash so re-running a suite is free;
* :mod:`repro.engine.results` — :class:`TrialResult` /
  :class:`ScenarioResult`, aggregating into the library's
  :class:`~repro.analysis.montecarlo.MonteCarloSummary`;
* :mod:`repro.engine.scenarios` — canonical suites for the paper's
  figures/tables and the 57-/118-bus synthetic scale cases.

Grid-expansion semantics (``expand_grid`` / ``run_sweep``) are owned by
the campaign planner (:mod:`repro.campaign.plan`); for durable, sharded,
resumable sweeps over the same specs see :mod:`repro.campaign` and the
``python -m repro`` CLI.

Quickstart
----------
>>> from repro.engine import ScenarioEngine, ScenarioSpec, GridSpec, MTDSpec
>>> spec = ScenarioSpec(
...     name="demo",
...     grid=GridSpec(case="ieee14"),
...     mtd=MTDSpec(policy="designed", gamma_threshold=0.25),
...     n_trials=4,
... )
>>> engine = ScenarioEngine(cache=".repro-cache", n_workers=4)
>>> result = engine.run(spec)          # doctest: +SKIP
>>> result.summarize("eta(0.9)").mean  # doctest: +SKIP
0.97
"""

from repro.engine.cache import ResultCache
from repro.engine.results import ScenarioResult, TrialResult, merge_metric
from repro.engine.runner import ScenarioEngine
from repro.engine.scenarios import available_scenarios, scenario_suite
from repro.engine.spec import (
    AttackSpec,
    ContingencySpec,
    DetectorSpec,
    GridSpec,
    MTDSpec,
    ScenarioSpec,
    expand_grid,
)
from repro.engine.trial import clear_context_caches, run_trial

__all__ = [
    "ScenarioSpec",
    "GridSpec",
    "AttackSpec",
    "DetectorSpec",
    "MTDSpec",
    "ContingencySpec",
    "expand_grid",
    "ScenarioEngine",
    "ResultCache",
    "ScenarioResult",
    "TrialResult",
    "merge_metric",
    "run_trial",
    "clear_context_caches",
    "available_scenarios",
    "scenario_suite",
]
