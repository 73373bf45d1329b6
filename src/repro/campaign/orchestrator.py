"""Sharded, resumable execution of campaign plans.

:func:`run_campaign` is the write path of the campaign subsystem: it
expands a :class:`~repro.campaign.definition.CampaignDefinition` into its
deterministic work plan, subtracts what the store already holds (and what
an attached :class:`~repro.engine.cache.ResultCache` can replay without
executing), shards the remaining work across worker processes, and streams
every completed scenario into the store the moment it finishes.

Because work is accounted by spec content hash, re-invoking the same
campaign against the same store — after a crash, a ``kill -9``, or a
deliberate ``shard_limit`` checkpoint — executes exactly the scenarios
whose hashes are missing and nothing else.  ``resume`` is therefore not a
separate mechanism: it is :func:`run_campaign` with the definition reloaded
from the store's manifest.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.campaign.definition import CAMPAIGN_SCHEMA_VERSION, CampaignDefinition
from repro.campaign.plan import CampaignPlan, Shard, plan_campaign
from repro.campaign.store import CampaignStore
from repro.engine.cache import ResultCache
from repro.engine.results import ScenarioResult
from repro.engine.runner import ScenarioEngine
from repro.engine.spec import ScenarioSpec
from repro.exceptions import ConfigurationError
from repro.telemetry import metrics as _metrics
from repro.telemetry.config import _STATE as _TELEMETRY, set_enabled
from repro.telemetry.env import environment_info
from repro.telemetry.export import write_prometheus
from repro.telemetry.progress import ProgressWriter, ShardProgress, set_current
from repro.telemetry.report import build_report, write_report
from repro.telemetry.spans import drain_spans, span as _span


@dataclass(frozen=True)
class ShardStatus:
    """Completion state of one shard of the plan."""

    index: int
    n_points: int
    n_completed: int

    @property
    def complete(self) -> bool:
        return self.n_completed >= self.n_points


@dataclass(frozen=True)
class CampaignStatus:
    """Completion state of a campaign against a store."""

    name: str
    plan_hash: str
    n_points: int
    n_items: int
    n_completed: int
    shards: tuple[ShardStatus, ...]

    @property
    def n_missing(self) -> int:
        return self.n_items - self.n_completed

    @property
    def complete(self) -> bool:
        return self.n_missing == 0


@dataclass(frozen=True)
class CampaignReport:
    """What one :func:`run_campaign` invocation did.

    ``executed``, ``from_cache`` and ``skipped`` partition the plan's work
    items by how this invocation satisfied them: ran the trials, replayed a
    :class:`ResultCache` entry into the store, or found the hash already in
    the store.  The spec-hash accounting is exact, which is what the resume
    tests assert against.
    """

    plan_hash: str
    n_points: int
    n_items: int
    executed: tuple[str, ...] = ()
    from_cache: tuple[str, ...] = ()
    skipped: tuple[str, ...] = ()
    shards_run: tuple[int, ...] = ()
    elapsed_seconds: float = 0.0
    #: The run's telemetry report (the ``telemetry.json`` payload), or
    #: ``None`` when telemetry was off.  Excluded from equality: two runs
    #: that did identical work compare equal regardless of timing.
    telemetry: dict | None = field(default=None, compare=False)

    @property
    def complete(self) -> bool:
        return len(self.executed) + len(self.from_cache) + len(self.skipped) == self.n_items


def _run_shard(
    shard_index: int,
    specs: Sequence[ScenarioSpec],
    cache_dir: str | None,
    telemetry: bool = False,
    progress_dir: str | None = None,
) -> tuple[int, list[ScenarioResult], dict]:
    """Worker entry point: run one shard's scenarios serially in-process.

    Module-level and picklable so a ``ProcessPoolExecutor`` can ship it.
    The worker attaches the shared :class:`ResultCache` directory (if any)
    so freshly executed scenarios also land in the cache, and runs with
    ``n_workers=1`` — parallelism lives at the shard level.

    The ``telemetry`` flag travels explicitly (pool workers do not inherit
    the parent's runtime switch under every start method).  When set, the
    third element carries the worker's metrics delta for this shard
    (``"snapshot"``, a plain :meth:`~repro.telemetry.metrics.
    MetricsSnapshot.to_dict` payload) plus the shard's ``"wall_seconds"``;
    otherwise it is empty.  ``progress_dir`` (telemetry only) points at the
    store directory whose ``progress.ndjson`` this worker heartbeats into —
    concurrent shard workers interleave safely via atomic appends.
    """
    if not telemetry:
        engine = ScenarioEngine(cache=cache_dir, n_workers=1)
        return shard_index, [engine.run(spec) for spec in specs], {}
    set_enabled(True)
    before = _metrics.snapshot()
    start = time.perf_counter()
    engine = ScenarioEngine(cache=cache_dir, n_workers=1)
    writer = ProgressWriter(progress_dir) if progress_dir else None
    progress = (
        ShardProgress(writer, shard_index, len(specs)) if writer is not None else None
    )
    set_current(progress)
    try:
        with _span("campaign.shard", shard=shard_index, n_scenarios=len(specs)):
            results = []
            for spec in specs:
                results.append(engine.run(spec))
                if progress is not None:
                    progress.scenario_done(spec.n_trials)
        if progress is not None:
            progress.finish()
    finally:
        set_current(None)
        if writer is not None:
            writer.close()
    info = {
        "snapshot": _metrics.snapshot().subtract(before).to_dict(),
        "wall_seconds": time.perf_counter() - start,
    }
    return shard_index, results, info


class CampaignOrchestrator:
    """Executes campaign plans against a persistent store.

    Parameters
    ----------
    store:
        An existing :class:`CampaignStore` or a directory path to open one
        in.
    n_workers:
        Shard-level parallelism; 1 executes shards in the orchestrating
        process (streaming results scenario-by-scenario), larger values run
        shards on a process pool (streaming shard-by-shard).
    cache:
        Optional :class:`ResultCache` (or directory) interop: scenarios
        already in the cache are ingested into the store instead of re-run,
        and executed scenarios are written back to the cache.
    """

    def __init__(
        self,
        store: CampaignStore | str | Path,
        n_workers: int = 1,
        cache: ResultCache | str | Path | None = None,
    ) -> None:
        self._store = store if isinstance(store, CampaignStore) else CampaignStore(store)
        if n_workers < 1:
            raise ConfigurationError(f"n_workers must be at least 1, got {n_workers}")
        self._n_workers = int(n_workers)
        if cache is None or isinstance(cache, ResultCache):
            self._cache = cache
        else:
            self._cache = ResultCache(cache)

    @property
    def store(self) -> CampaignStore:
        """The campaign store results stream into."""
        return self._store

    @property
    def cache(self) -> ResultCache | None:
        """The interop result cache, or ``None``."""
        return self._cache

    # ------------------------------------------------------------------
    def _check_manifest(self, plan: CampaignPlan) -> None:
        """Bind the store to the plan, rejecting a different campaign."""
        manifest = self._store.read_manifest()
        if manifest is not None and manifest.get("plan_hash") != plan.plan_hash:
            raise ConfigurationError(
                f"store {self._store.directory} holds campaign "
                f"{manifest.get('name', '?')!r} with plan hash "
                f"{manifest.get('plan_hash', '?')[:12]}…, which differs from "
                f"{plan.definition.name!r} ({plan.plan_hash[:12]}…); use a "
                "fresh store directory per campaign"
            )
        if manifest is None:
            self._store.write_manifest(
                {
                    "schema_version": CAMPAIGN_SCHEMA_VERSION,
                    "name": plan.definition.name,
                    "plan_hash": plan.plan_hash,
                    "definition": plan.definition.to_dict(),
                    "created_unix": time.time(),
                    # Environment stamp: which interpreter/libraries/machine
                    # first bound this store.  Diagnostic only — never read
                    # back by the orchestrator or the resume logic.
                    "environment": environment_info(),
                }
            )

    # ------------------------------------------------------------------
    def run(
        self,
        definition: CampaignDefinition,
        shard_limit: int | None = None,
    ) -> CampaignReport:
        """Execute every missing scenario of the campaign (or the first
        ``shard_limit`` incomplete shards of it).

        Work already present in the store is skipped; work the interop
        cache can replay is ingested without execution; the rest runs
        sharded, streaming into the store as it completes.
        """
        instrumented = _TELEMETRY.enabled
        start = time.perf_counter()
        before = _metrics.snapshot() if instrumented else None
        run_span = _span("campaign.run") if instrumented else None
        if run_span is not None:
            run_span.__enter__()
        plan = plan_campaign(definition)
        self._check_manifest(plan)
        # Live progress stream (observability only; see telemetry.progress).
        progress = ProgressWriter(self._store.directory) if instrumented else None

        completed = self._store.completed_hashes() & set(plan.items)
        skipped = tuple(h for h in plan.items if h in completed)

        from_cache: list[str] = []
        shard_wall: dict[int, float] = {}
        try:
            # ResultCache interop: replay cached scenarios into the store.
            if self._cache is not None:
                for spec_hash, spec in plan.items.items():
                    if spec_hash in completed:
                        continue
                    hit = self._cache.get(spec)
                    if hit is not None:
                        self._store.append(hit, shard=plan.shard_of(spec_hash))
                        completed.add(spec_hash)
                        from_cache.append(spec_hash)

            pending = [
                shard
                for shard in plan.shards
                if any(h not in completed for h in shard.spec_hashes)
            ]
            if shard_limit is not None:
                pending = pending[: max(0, int(shard_limit))]

            if progress is not None:
                progress.emit(
                    "run_start",
                    campaign=plan.definition.name,
                    plan_hash=plan.plan_hash,
                    n_items=plan.n_items,
                    completed=len(completed),
                    from_cache=len(from_cache),
                    pending_shards=[shard.index for shard in pending],
                    workers=self._n_workers,
                    heartbeat_interval=progress.min_interval,
                )
            executed = self._execute_shards(
                plan, pending, completed, shard_wall, progress
            )
        finally:
            # Hand the writer lock back the moment the run ends (even on
            # failure), so another orchestrator — this process or another —
            # can continue the campaign without waiting for this store to
            # be garbage-collected.
            self._store.release_writer()
            if run_span is not None:
                run_span.__exit__(None, None, None)

        elapsed = time.perf_counter() - start
        telemetry = None
        if instrumented:
            _metrics.counter("campaign.runs")
            _metrics.counter("campaign.scenarios_executed", len(executed))
            _metrics.counter("campaign.scenarios_from_cache", len(from_cache))
            _metrics.counter("campaign.scenarios_skipped", len(skipped))
            delta = _metrics.snapshot().subtract(before)
            trials_executed = sum(
                plan.spec_for(spec_hash).n_trials for spec_hash in executed
            )
            telemetry = build_report(
                delta,
                elapsed_seconds=elapsed,
                executed=len(executed),
                from_cache=len(from_cache),
                skipped=len(skipped),
                trials_executed=trials_executed,
                shard_wall_seconds=shard_wall,
                spans=drain_spans(),
                extra={"plan_hash": plan.plan_hash, "campaign": plan.definition.name},
            )
            write_report(self._store.directory, telemetry)
            # Same snapshot, standard exposition format (scrapeable/diffable).
            write_prometheus(self._store.directory, delta)

        if progress is not None:
            progress.emit(
                "run_done",
                executed=len(executed),
                from_cache=len(from_cache),
                skipped=len(skipped),
                elapsed_seconds=elapsed,
                complete=(
                    len(executed) + len(from_cache) + len(skipped) == plan.n_items
                ),
            )
            progress.close()

        return CampaignReport(
            plan_hash=plan.plan_hash,
            n_points=plan.n_points,
            n_items=plan.n_items,
            executed=tuple(executed),
            from_cache=tuple(from_cache),
            skipped=skipped,
            shards_run=tuple(shard.index for shard in pending),
            elapsed_seconds=elapsed,
            telemetry=telemetry,
        )

    def _execute_shards(
        self,
        plan: CampaignPlan,
        pending: Sequence[Shard],
        completed: set[str],
        shard_wall: dict[int, float],
        progress: ProgressWriter | None = None,
    ) -> list[str]:
        """Run the pending shards, streaming results into the store.

        ``shard_wall`` is filled in-place with per-shard wall-clock seconds
        when telemetry is enabled (worker-measured on the pool path, so the
        number excludes pickling/queueing overhead).
        """
        instrumented = _TELEMETRY.enabled
        cache_dir = None if self._cache is None else str(self._cache.directory)
        executed: list[str] = []
        if self._n_workers <= 1:
            # In-process execution streams scenario-by-scenario (the finest
            # crash granularity) through one engine shared by every shard.
            engine = ScenarioEngine(cache=cache_dir, n_workers=1)
            for shard in pending:
                shard_span = (
                    _span("campaign.shard", shard=shard.index)
                    if instrumented
                    else None
                )
                todo = [h for h in shard.spec_hashes if h not in completed]
                shard_progress = (
                    ShardProgress(progress, shard.index, len(todo))
                    if progress is not None
                    else None
                )
                set_current(shard_progress)
                shard_start = time.perf_counter()
                if shard_span is not None:
                    shard_span.__enter__()
                try:
                    for spec_hash in todo:
                        spec = plan.spec_for(spec_hash)
                        result = engine.run(spec)
                        self._store.append(result, shard=shard.index)
                        executed.append(spec_hash)
                        if shard_progress is not None:
                            shard_progress.scenario_done(spec.n_trials)
                finally:
                    set_current(None)
                    if shard_span is not None:
                        shard_span.__exit__(None, None, None)
                if shard_progress is not None:
                    shard_progress.finish()
                if instrumented:
                    shard_wall[shard.index] = time.perf_counter() - shard_start
            return executed

        tasks = {
            shard.index: [
                plan.spec_for(h) for h in shard.spec_hashes if h not in completed
            ]
            for shard in pending
        }
        progress_dir = str(self._store.directory) if progress is not None else None
        with ProcessPoolExecutor(max_workers=self._n_workers) as pool:
            futures = [
                pool.submit(
                    _run_shard,
                    index,
                    specs,
                    cache_dir,
                    instrumented,
                    progress_dir,
                )
                for index, specs in tasks.items()
                if specs
            ]
            for future in as_completed(futures):
                shard_index, results, info = future.result()
                # Merging the shard deltas is associative/commutative, so
                # the totals are independent of completion order even
                # though ``as_completed`` yields in a racy order.
                if info:
                    _metrics.merge_snapshot(info["snapshot"])
                    shard_wall[shard_index] = float(info["wall_seconds"])
                for result in results:
                    spec_hash = self._store.append(result, shard=shard_index)
                    executed.append(spec_hash)
        return executed

    # ------------------------------------------------------------------
    def status(self, definition: CampaignDefinition | None = None) -> CampaignStatus:
        """Completion state of the campaign against the store.

        With no explicit definition the store's manifest is used (the
        normal ``repro campaign status`` path).
        """
        plan = plan_campaign(self._resolve_definition(definition))
        completed = self._store.completed_hashes() & set(plan.items)
        shards = tuple(
            ShardStatus(
                index=shard.index,
                n_points=shard.n_points,
                n_completed=sum(1 for h in shard.spec_hashes if h in completed),
            )
            for shard in plan.shards
        )
        return CampaignStatus(
            name=plan.definition.name,
            plan_hash=plan.plan_hash,
            n_points=plan.n_points,
            n_items=plan.n_items,
            n_completed=len(completed),
            shards=shards,
        )

    def resume(self, shard_limit: int | None = None) -> CampaignReport:
        """Re-run the store's own campaign; only missing work executes."""
        return self.run(self._resolve_definition(None), shard_limit=shard_limit)

    def _resolve_definition(
        self, definition: CampaignDefinition | None
    ) -> CampaignDefinition:
        if definition is not None:
            return definition
        manifest = self._store.read_manifest()
        if manifest is None or "definition" not in manifest:
            raise ConfigurationError(
                f"store {self._store.directory} has no campaign manifest; "
                "pass a definition or run the campaign first"
            )
        return CampaignDefinition.from_dict(manifest["definition"])


def run_campaign(
    definition: CampaignDefinition,
    store: CampaignStore | str | Path,
    n_workers: int = 1,
    cache: ResultCache | str | Path | None = None,
    shard_limit: int | None = None,
) -> CampaignReport:
    """One-shot convenience wrapper around :class:`CampaignOrchestrator`."""
    orchestrator = CampaignOrchestrator(store, n_workers=n_workers, cache=cache)
    return orchestrator.run(definition, shard_limit=shard_limit)


__all__ = [
    "CampaignOrchestrator",
    "CampaignReport",
    "CampaignStatus",
    "ShardStatus",
    "run_campaign",
]
