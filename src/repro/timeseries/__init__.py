"""Time-series operation engine: spec'd, parallel multi-day MTD scheduling.

The paper's Section VII-C (Figs. 10-11) simulates *hourly MTD operation*
over a daily load profile.  This package runs that simulation on the
repository's spec/engine/campaign stack:

* :mod:`repro.timeseries.spec` — :class:`ProfileSpec` (multi-day, seasonal,
  per-case-normalised load horizons), :class:`TuningSpec` (scan or
  bisection threshold selection) and :class:`OperationSpec`, the frozen
  operation policy embedded into a
  :class:`~repro.engine.spec.ScenarioSpec`;
* :mod:`repro.timeseries.engine` — :class:`OperationEngine` /
  :func:`run_operation_trial`, executing hours through the scenario
  engine's pool/cache/batching with seed-spawned per-hour streams
  (parallel bit-identical to serial) and per-hour design memoisation;
* :mod:`repro.timeseries.results` — :class:`OperationRecord` /
  :class:`OperationResult`, the typed view over the per-hour trials.

Attributes are resolved lazily (PEP 562): the scenario-spec layer imports
:mod:`repro.timeseries.spec` at module load, and the lazy package keeps
that edge acyclic (the execution side of this package builds on the
engine).

Quickstart
----------
>>> from repro.timeseries import OperationEngine, daily_operation_spec
>>> spec = daily_operation_spec(case="ieee14", seed=0)
>>> result = OperationEngine(n_workers=4).run(spec)   # doctest: +SKIP
>>> result.cost_increases_percent().mean()            # doctest: +SKIP
1.7
"""

from __future__ import annotations

from typing import Any

#: Public name → defining submodule; resolved lazily on first access.
_EXPORTS = {
    "DEFAULT_GAMMA_GRID": "spec",
    "OperationSpec": "spec",
    "ProfileSpec": "spec",
    "TuningSpec": "spec",
    "HOUR_METRICS": "results",
    "OperationRecord": "results",
    "OperationResult": "results",
    "HourContext": "engine",
    "OperationEngine": "engine",
    "build_operation_context": "engine",
    "clear_operation_caches": "engine",
    "daily_operation_spec": "engine",
    "run_operation_trial": "engine",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(f"{__name__}.{module_name}")
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
