"""Tests of sharded campaign execution: resume accounting, cache interop,
parallel determinism, and the ≥100-point acceptance sweep over fig7."""

from __future__ import annotations

import builtins
import contextlib
import io
import json
import os
import sqlite3

import pytest

from repro.analysis.montecarlo import summarize_values
from repro.engine.results import merge_metric
from repro.campaign import (
    CampaignDefinition,
    CampaignOrchestrator,
    plan_campaign,
    query_results,
    run_campaign,
    summarize_groups,
)
from repro.engine import (
    AttackSpec,
    GridSpec,
    MTDSpec,
    ResultCache,
    ScenarioEngine,
    ScenarioSpec,
    clear_context_caches,
    scenario_suite,
)
from repro.campaign.store import MANIFEST_NAME, SEGMENT_DIR
from repro.exceptions import ConfigurationError


def quick_base(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="orch-base",
        grid=GridSpec(case="ieee14", baseline="dc-opf"),
        attack=AttackSpec(n_attacks=6, seed=1),
        mtd=MTDSpec(policy="random", max_relative_change=0.1),
        n_trials=2,
        base_seed=21,
        deltas=(0.5, 0.9),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


GRID = {"attack.ratio": (0.06, 0.08), "mtd.max_relative_change": (0.02, 0.05, 0.1)}

#: Retired execution hints as stored spec payloads carried them: a
#: ``batch_size`` alone, a ``backend`` alone, and both.
RETIRED_HINTS = (
    {"batch_size": 8},
    {"backend": "sparse"},
    {"batch_size": 8, "backend": "sparse"},
)


#: The index a store kept beside its segments before the segments became
#: the whole store (``index.sqlite`` in the store root).
LEGACY_INDEX_NAME = "index.sqlite"
LEGACY_INDEX_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    spec_hash TEXT PRIMARY KEY, name TEXT NOT NULL, segment TEXT NOT NULL,
    offset INTEGER NOT NULL, length INTEGER NOT NULL, shard INTEGER,
    n_trials INTEGER NOT NULL, created_unix REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS segments (segment TEXT PRIMARY KEY, indexed_bytes INTEGER NOT NULL);
"""


def quick_definition(**overrides) -> CampaignDefinition:
    defaults = dict(
        name="orch-campaign", base=quick_base(), grids=(GRID,), shard_size=2
    )
    defaults.update(overrides)
    return CampaignDefinition(**defaults)


class TestRunAndResume:
    def test_full_run_completes_and_matches_run_sweep(self, tmp_path):
        """Stored campaign results are bit-identical to the in-memory sweep."""
        report = run_campaign(quick_definition(), tmp_path / "c.campaign")
        assert report.complete
        assert len(report.executed) == 6
        orchestrator = CampaignOrchestrator(tmp_path / "c.campaign")
        sweep = ScenarioEngine().run_sweep(quick_base(), GRID)
        for result in sweep:
            stored = orchestrator.store.get(result.spec.content_hash())
            assert stored is not None
            assert stored.trials == result.trials
            assert stored.summarize().mean == result.summarize().mean

    def test_shard_limit_checkpoints_and_resume_runs_only_missing(self, tmp_path):
        orchestrator = CampaignOrchestrator(tmp_path / "c.campaign")
        definition = quick_definition()
        first = orchestrator.run(definition, shard_limit=1)
        assert len(first.executed) == 2
        assert not first.complete
        status = orchestrator.status(definition)
        assert status.n_completed == 2 and status.n_missing == 4
        assert [s.complete for s in status.shards] == [True, False, False]

        second = orchestrator.resume()
        assert second.complete
        # Spec-hash accounting is exact: the two invocations partition the plan.
        assert set(first.executed) & set(second.executed) == set()
        assert set(second.skipped) == set(first.executed)
        plan = plan_campaign(definition)
        assert set(first.executed) | set(second.executed) == set(plan.items)

    def test_rerun_of_complete_campaign_executes_nothing(self, tmp_path):
        definition = quick_definition()
        run_campaign(definition, tmp_path / "c.campaign")
        again = run_campaign(definition, tmp_path / "c.campaign")
        assert again.complete
        assert again.executed == ()
        assert len(again.skipped) == 6

    def test_partial_shard_executes_only_missing_points(self, tmp_path):
        """A shard with some stored points re-runs only the missing hashes."""
        definition = quick_definition()
        plan = plan_campaign(definition)
        orchestrator = CampaignOrchestrator(tmp_path / "c.campaign")
        # Pre-store the first point of the first shard by hand.
        first_hash = plan.shards[0].spec_hashes[0]
        result = ScenarioEngine().run(plan.spec_for(first_hash))
        orchestrator.store.write_manifest(
            {"plan_hash": plan.plan_hash, "definition": definition.to_dict()}
        )
        orchestrator.store.append(result, shard=0)
        report = orchestrator.run(definition)
        assert first_hash not in report.executed
        assert first_hash in report.skipped
        assert report.complete

    def test_writer_lock_released_when_run_finishes(self, tmp_path):
        """A finished run hands the store's writer lock back immediately,
        so a second orchestrator can continue the campaign while the first
        (e.g. kept alive for status()) still holds the store open."""
        definition = quick_definition()
        first = CampaignOrchestrator(tmp_path / "c.campaign")
        first.run(definition, shard_limit=1)
        second = run_campaign(definition, tmp_path / "c.campaign")
        assert second.complete
        assert first.status().complete

    def test_store_rejects_a_different_campaign(self, tmp_path):
        run_campaign(quick_definition(), tmp_path / "c.campaign", shard_limit=1)
        other = quick_definition(grids=({"attack.ratio": (0.05, 0.07)},))
        with pytest.raises(ConfigurationError):
            run_campaign(other, tmp_path / "c.campaign")

    def test_resume_requires_manifest(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CampaignOrchestrator(tmp_path / "fresh.campaign").resume()

    def test_store_with_retired_batch_size_key_resumes(self, tmp_path):
        """Manifests and records written while specs carried a retired
        execution hint (``batch_size``, ``backend`` or both) still resume,
        skipping what is stored, and answer queries."""
        definition = quick_definition()
        plan = plan_campaign(definition)
        sweep = {r.spec.content_hash(): r for r in ScenarioEngine().run_sweep(quick_base(), GRID)}
        for index, hints in enumerate(RETIRED_HINTS):
            store_dir = tmp_path / f"c{index}.campaign"
            run_campaign(definition, store_dir, shard_limit=1)
            manifest_path = store_dir / MANIFEST_NAME
            manifest = json.loads(manifest_path.read_text())
            manifest["definition"]["base"].update(hints)
            manifest_path.write_text(json.dumps(manifest))
            for segment in (store_dir / SEGMENT_DIR).glob("*.ndjson"):
                records = [json.loads(line) for line in segment.read_text().splitlines()]
                for record in records:
                    record["spec"].update(hints)
                segment.write_text("".join(json.dumps(r) + "\n" for r in records))

            orchestrator = CampaignOrchestrator(store_dir)
            report = orchestrator.resume()
            assert report.plan_hash == plan.plan_hash
            assert len(report.skipped) == 2 and len(report.executed) == 4
            assert report.complete
            results = query_results(orchestrator.store)
            assert [r.spec.content_hash() for r in results] == list(plan.items)
            for result in results:
                assert result.trials == sweep[result.spec.content_hash()].trials

    @pytest.mark.parametrize("index_file", ["valid", "corrupt"])
    def test_store_with_a_legacy_index_file_resumes(self, tmp_path, monkeypatch, index_file):
        """A store written with an ``index.sqlite`` beside its segments
        resumes from the segments alone and answers queries; the file is
        never opened.  The valid index claims every planned hash, so a
        store that trusted it would execute nothing."""
        definition = quick_definition()
        plan = plan_campaign(definition)
        store_dir = tmp_path / "c.campaign"
        run_campaign(definition, store_dir, shard_limit=1)
        index = store_dir / LEGACY_INDEX_NAME
        if index_file == "valid":
            with contextlib.closing(sqlite3.connect(index)) as connection:
                connection.executescript(LEGACY_INDEX_SCHEMA)
                connection.executemany(
                    "INSERT OR REPLACE INTO results "
                    "VALUES (?, ?, 'segment-000001.ndjson', 0, 1, 0, 2, 0.0)",
                    [(h, spec.name) for h, spec in plan.items.items()],
                )
                connection.commit()
        else:
            index.write_bytes(b"this is not a sqlite database at all")
        written = index.read_bytes()

        opened: list[str] = []

        def spy(real_open):
            def spied_open(file, *args, **kwargs):
                opened.append(str(file))
                return real_open(file, *args, **kwargs)

            return spied_open

        for module in (builtins, io, os):
            monkeypatch.setattr(module, "open", spy(module.open))
        orchestrator = CampaignOrchestrator(store_dir)
        report = orchestrator.resume()
        results = query_results(orchestrator.store)
        monkeypatch.undo()

        assert len(report.skipped) == 2 and len(report.executed) == 4
        assert report.complete
        assert [r.spec.content_hash() for r in results] == list(plan.items)
        assert any(path.endswith(".ndjson") for path in opened)
        assert not [path for path in opened if path.endswith(LEGACY_INDEX_NAME)]
        assert index.read_bytes() == written


class TestResultCacheInterop:
    def test_cached_scenarios_are_ingested_not_rerun(self, tmp_path):
        """Scenarios already in a ResultCache replay into the store."""
        definition = quick_definition()
        plan = plan_campaign(definition)
        cache = ResultCache(tmp_path / "cache")
        engine = ScenarioEngine(cache=cache)
        reference = {h: engine.run(s) for h, s in plan.items.items()}

        report = run_campaign(definition, tmp_path / "c.campaign", cache=cache)
        assert report.complete
        assert report.executed == ()
        assert set(report.from_cache) == set(plan.items)
        store = CampaignOrchestrator(tmp_path / "c.campaign").store
        for spec_hash, result in reference.items():
            assert store.get(spec_hash).trials == result.trials

    def test_executed_scenarios_feed_the_cache_back(self, tmp_path):
        definition = quick_definition()
        cache = ResultCache(tmp_path / "cache")
        report = run_campaign(definition, tmp_path / "c.campaign", cache=cache)
        assert len(report.executed) == 6
        plan = plan_campaign(definition)
        for spec in plan.items.values():
            assert cache.get(spec) is not None


class TestParallelExecution:
    def test_parallel_shards_match_serial(self, tmp_path):
        definition = quick_definition()
        run_campaign(definition, tmp_path / "serial.campaign", n_workers=1)
        run_campaign(definition, tmp_path / "parallel.campaign", n_workers=3)
        serial = CampaignOrchestrator(tmp_path / "serial.campaign").store
        parallel = CampaignOrchestrator(tmp_path / "parallel.campaign").store
        assert serial.completed_hashes() == parallel.completed_hashes()
        for spec_hash in serial.completed_hashes():
            assert serial.get(spec_hash).trials == parallel.get(spec_hash).trials

    def test_parallel_query_order_is_plan_order(self, tmp_path):
        """Shard completion order must not leak into query aggregation:
        grouped roll-ups over a parallel store reduce in plan order, bit-
        identical to pooling the in-memory sweep."""
        definition = quick_definition()
        run_campaign(definition, tmp_path / "p.campaign", n_workers=3)
        results = query_results(CampaignOrchestrator(tmp_path / "p.campaign").store)
        plan = plan_campaign(definition)
        assert [r.spec.content_hash() for r in results] == list(plan.items)
        groups = summarize_groups(results, metric="eta(0.9)", group_by=["attack.ratio"])
        sweep = ScenarioEngine().run_sweep(quick_base(), GRID)
        for group in groups:
            members = [r for r in sweep if r.spec.attack.ratio == group.key[0]]
            pooled = summarize_values(merge_metric(members, "eta(0.9)"))
            assert group.summary.mean == pooled.mean
            assert group.summary.std == pooled.std

    def test_parallel_resume_after_checkpoint(self, tmp_path):
        definition = quick_definition()
        orchestrator = CampaignOrchestrator(tmp_path / "c.campaign", n_workers=2)
        first = orchestrator.run(definition, shard_limit=2)
        second = orchestrator.resume()
        assert set(first.executed) & set(second.executed) == set()
        assert orchestrator.status().complete


class TestFig7Acceptance:
    """The ISSUE acceptance sweep: ≥100 scenario points over the fig7 base,
    sharded, interrupted, resumed with only missing shards re-executed, and
    queried bit-identically to the in-memory sweep."""

    #: 10 × 10 grid over the fig7 base spec (reduced trial budgets).
    GRID = {
        "mtd.max_relative_change": tuple(round(0.01 * k, 2) for k in range(1, 11)),
        "attack.ratio": tuple(round(0.02 + 0.01 * k, 2) for k in range(10)),
    }

    @pytest.fixture(scope="class")
    def fig7_base(self):
        (fig7,) = scenario_suite("fig7")
        return fig7.with_updates(
            {"attack.n_attacks": 8, "detector.method": "analytic"}, n_trials=1
        )

    def test_hundred_point_campaign_interrupt_resume_query(self, tmp_path, fig7_base):
        definition = CampaignDefinition(
            name="fig7-acceptance", base=fig7_base, grids=(self.GRID,), shard_size=8
        )
        plan = plan_campaign(definition)
        assert plan.n_points == 100
        assert len(plan.shards) == 13

        store_dir = tmp_path / "fig7.campaign"
        orchestrator = CampaignOrchestrator(store_dir)
        interrupted = orchestrator.run(definition, shard_limit=5)
        assert len(interrupted.executed) == 40
        status = orchestrator.status()
        assert status.n_completed == 40 and status.n_missing == 60

        resumed = orchestrator.resume()
        # Only the missing shards ran, verified by spec-hash accounting.
        assert set(resumed.skipped) == set(interrupted.executed)
        assert set(resumed.executed) == set(plan.items) - set(interrupted.executed)
        assert orchestrator.status().complete

        # The store reproduces the in-memory sweep bit-identically.
        sweep = ScenarioEngine().run_sweep(fig7_base, self.GRID)
        assert len(sweep) == 100
        for result in sweep:
            stored = orchestrator.store.get(result.spec.content_hash())
            assert stored.trials == result.trials
            assert (
                stored.summarize("eta(0.9)").mean == result.summarize("eta(0.9)").mean
            )
            assert stored.summarize("spa").std == result.summarize("spa").std

        # Grouped roll-ups pool exactly the expected trials.
        groups = summarize_groups(
            query_results(orchestrator.store),
            metric="spa",
            group_by=["mtd.max_relative_change"],
        )
        assert len(groups) == 10
        assert all(g.n_scenarios == 10 and g.summary.n_trials == 10 for g in groups)


class TestQueryPlanOrderMemo:
    def test_repeated_queries_plan_once_per_store(self, tmp_path, monkeypatch):
        """``query_results`` memoises the spec-hash → plan-position map per
        store (keyed on the manifest's plan hash), so repeated queries do
        not re-expand and re-hash the whole campaign plan."""
        run_campaign(quick_definition(), tmp_path / "m.campaign")
        store = CampaignOrchestrator(tmp_path / "m.campaign").store

        from repro.campaign import plan as plan_module

        real_plan = plan_module.plan_campaign
        calls = {"n": 0}

        def counting_plan(definition):
            calls["n"] += 1
            return real_plan(definition)

        monkeypatch.setattr(plan_module, "plan_campaign", counting_plan)
        first = query_results(store)
        for _ in range(3):
            again = query_results(store)
            assert [r.spec.content_hash() for r in again] == [
                r.spec.content_hash() for r in first
            ]
        assert calls["n"] == 1, "repeated queries re-expanded the plan"

        # A different store instance over the same directory pays the
        # expansion once more (the memo is per instance), then caches.
        other = CampaignOrchestrator(tmp_path / "m.campaign").store
        query_results(other)
        query_results(other)
        assert calls["n"] == 2


class TestTelemetryIntegration:
    """Campaign runs persist a mergeable telemetry report without touching
    the stored scientific records."""

    @pytest.fixture(autouse=True)
    def _clean_telemetry(self):
        from repro import telemetry

        telemetry.disable()
        telemetry.reset()
        yield
        telemetry.disable()
        telemetry.reset()

    def test_parallel_run_merges_worker_snapshots(self, tmp_path):
        from repro import telemetry

        # A trial's only grid work is its scenario context, so forked
        # workers must not inherit contexts earlier tests left warm.
        clear_context_caches()
        telemetry.enable()
        report = run_campaign(
            quick_definition(), tmp_path / "t.campaign", n_workers=2
        )
        payload = telemetry.read_report(tmp_path / "t.campaign")
        assert payload is not None and payload == report.telemetry
        counters = payload["metrics"]["counters"]
        n_points = plan_campaign(quick_definition()).n_points
        assert counters["engine.scenarios"] == n_points
        assert counters["engine.trials"] == 2 * n_points
        # Worker-side cache traffic crossed the pool boundary.
        assert sum(
            v for k, v in counters.items() if k.startswith("cache.")
        ) > 0
        assert len(payload["shards"]["wall_seconds"]) == len(report.shards_run)

    def test_records_identical_to_untelemetered_run(self, tmp_path):
        from repro import telemetry

        telemetry.enable()
        run_campaign(quick_definition(), tmp_path / "on.campaign", n_workers=2)
        telemetry.disable()
        run_campaign(quick_definition(), tmp_path / "off.campaign")

        def normalized(directory):
            out = {}
            for record in CampaignOrchestrator(directory).store.records():
                record.pop("created_unix", None)
                record.pop("elapsed_seconds", None)
                out[record["spec_hash"]] = record
            return out

        assert normalized(tmp_path / "on.campaign") == normalized(
            tmp_path / "off.campaign"
        )
