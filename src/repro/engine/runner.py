"""The scenario engine: expand specs into trials and execute them.

:class:`ScenarioEngine` is the single entry point the benchmarks, examples
and tests drive Monte-Carlo experiments through.  It expands a
:class:`~repro.engine.spec.ScenarioSpec` (or a suite/sweep of them) into
independent trials and executes them either serially or on a
``concurrent.futures`` process pool.  Because every trial seeds itself from
``(base_seed, trial_index)`` (see :mod:`repro.engine.trial`), the parallel
results are bit-identical to the serial ones — parallelism is purely a
throughput knob.  The pool receives trials in chunks sized from the run's
own shape (:func:`_pool_chunksize`), so shipping work to the workers costs
a few round-trips per worker rather than one per trial.

With a :class:`~repro.engine.cache.ResultCache` attached, completed
scenarios are persisted by content hash and replayed for free on the next
run; re-running a whole suite after an interruption only executes the
missing scenarios.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.campaign.plan import plan_sweep
from repro.engine.cache import ResultCache
from repro.engine.results import ScenarioResult
from repro.engine.spec import ScenarioSpec
from repro.engine.trial import run_trial, run_trial_instrumented
from repro.exceptions import ConfigurationError
from repro.telemetry import metrics as _metrics
from repro.telemetry import progress as _progress
from repro.telemetry.config import _STATE as _TELEMETRY
from repro.telemetry.spans import span as _span


class ScenarioEngine:
    """Executes scenario specifications.

    Parameters
    ----------
    cache:
        ``None`` (no caching), an existing :class:`ResultCache`, or a
        directory path to create one in.
    n_workers:
        Default worker count for :meth:`run`; 1 means serial in-process
        execution, larger values use a process pool.
    """

    def __init__(
        self,
        cache: ResultCache | str | Path | None = None,
        n_workers: int = 1,
    ) -> None:
        if cache is None or isinstance(cache, ResultCache):
            self._cache = cache
        else:
            self._cache = ResultCache(cache)
        if n_workers < 1:
            raise ConfigurationError(f"n_workers must be at least 1, got {n_workers}")
        self._n_workers = int(n_workers)
        self.executed_trials = 0

    @property
    def cache(self) -> ResultCache | None:
        """The attached result cache, or ``None``."""
        return self._cache

    @property
    def n_workers(self) -> int:
        """Default worker count used by :meth:`run`."""
        return self._n_workers

    # ------------------------------------------------------------------
    def run(
        self,
        spec: ScenarioSpec,
        n_workers: int | None = None,
        use_cache: bool = True,
    ) -> ScenarioResult:
        """Run one scenario (or replay it from the cache).

        Parameters
        ----------
        spec:
            The scenario to execute.
        n_workers:
            Override of the engine's default worker count for this run.
        use_cache:
            Set to ``False`` to force re-execution even on a cache hit (the
            fresh result still overwrites the cache entry).
        """
        if use_cache and self._cache is not None:
            hit = self._cache.get(spec)
            if hit is not None:
                return hit

        workers = self._n_workers if n_workers is None else int(n_workers)
        if workers < 1:
            raise ConfigurationError(f"n_workers must be at least 1, got {workers}")
        workers = min(workers, spec.n_trials)

        instrumented = _TELEMETRY.enabled
        before = _metrics.snapshot() if instrumented else None
        scenario_span = (
            _span("engine.scenario", scenario=spec.name, n_trials=spec.n_trials)
            if instrumented
            else None
        )
        start = time.perf_counter()
        if scenario_span is not None:
            scenario_span.__enter__()
        try:
            if workers <= 1:
                # Explicit loop (not a comprehension) so the progress sink
                # can heartbeat mid-scenario; a no-op without one.
                trials = []
                for index in range(spec.n_trials):
                    trials.append(run_trial(spec, index))
                    _progress.tick(
                        scenario=spec.name, trial=index + 1, n_trials=spec.n_trials
                    )
            elif instrumented:
                # Workers run the instrumented wrapper, which forces the
                # telemetry switch on worker-side and ships back a
                # (trial, snapshot) pair; merging the per-trial deltas is
                # exact and order-independent.
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    pairs = list(
                        pool.map(
                            run_trial_instrumented,
                            repeat(spec),
                            range(spec.n_trials),
                            chunksize=_pool_chunksize(spec.n_trials, workers),
                        )
                    )
                trials = [trial for trial, _ in pairs]
                for _, worker_snapshot in pairs:
                    _metrics.merge_snapshot(worker_snapshot)
            else:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    trials = list(
                        pool.map(
                            run_trial,
                            repeat(spec),
                            range(spec.n_trials),
                            chunksize=_pool_chunksize(spec.n_trials, workers),
                        )
                    )
        finally:
            if scenario_span is not None:
                scenario_span.__exit__(None, None, None)
        elapsed = time.perf_counter() - start
        self.executed_trials += spec.n_trials
        if instrumented:
            _metrics.counter("engine.scenarios")
            _metrics.counter("engine.trials_executed", spec.n_trials)
            telemetry = _metrics.snapshot().subtract(before).to_dict()
        else:
            telemetry = None

        result = ScenarioResult(
            spec=spec,
            trials=tuple(trials),
            elapsed_seconds=elapsed,
            n_workers=workers,
            telemetry=telemetry,
        )
        if self._cache is not None:
            self._cache.put(spec, result)
        return result

    # ------------------------------------------------------------------
    def run_suite(
        self,
        specs: Iterable[ScenarioSpec],
        n_workers: int | None = None,
        use_cache: bool = True,
    ) -> list[ScenarioResult]:
        """Run several scenarios in order; each is independently cached.

        Scenario *trials* are parallelised; scenarios themselves run one
        after another so that a suite's memory high-water mark stays at one
        scenario's working set.
        """
        return [self.run(spec, n_workers=n_workers, use_cache=use_cache) for spec in specs]

    def run_sweep(
        self,
        base: ScenarioSpec,
        grid: Mapping[str, Sequence[Any]],
        n_workers: int | None = None,
        use_cache: bool = True,
        name_format: str | None = None,
    ) -> list[ScenarioResult]:
        """Expand ``base`` over a parameter grid and run every point.

        ``grid`` maps dotted spec paths to value sequences, e.g.
        ``{"mtd.gamma_threshold": (0.1, 0.2, 0.3), "grid.case": ("ieee14",
        "ieee30")}``; the cartesian product is executed in row-major order.

        Expansion and execution order are delegated to the campaign planner
        (:func:`repro.campaign.plan.plan_sweep`), so an in-memory sweep and
        a persistent campaign over the same base/grid run the *same* specs
        with bit-identical results; for a durable, sharded, resumable sweep
        use :func:`repro.campaign.orchestrator.run_campaign` instead.
        """
        plan = plan_sweep(base, grid, name_format=name_format)
        return plan.run(self, n_workers=n_workers, use_cache=use_cache)


def _pool_chunksize(n_trials: int, workers: int) -> int:
    """Trials per pool task: ``ceil(n_trials / (4 * workers))``.

    The rule :meth:`multiprocessing.pool.Pool.map` applies by default: about
    four chunks per worker amortise the per-task IPC while leaving enough
    tasks to balance uneven trial costs.
    """
    return -(-n_trials // (4 * workers))


__all__ = ["ScenarioEngine"]
