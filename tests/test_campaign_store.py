"""Tests of the campaign store: durability, crash recovery, query."""

from __future__ import annotations

import csv
import json

import pytest

from repro.campaign import CampaignStore, query_results, spec_field, summarize_groups
from repro.campaign.query import export_csv
from repro.campaign.store import SEGMENT_DIR
from repro.engine import AttackSpec, GridSpec, MTDSpec, ScenarioSpec, TrialResult
from repro.engine.results import ScenarioResult
from repro.exceptions import ConfigurationError


def make_result(index: int, case: str = "ieee14", gamma: float = 0.25) -> ScenarioResult:
    """A synthetic scenario result (no execution needed for store tests)."""
    spec = ScenarioSpec(
        name=f"store-spec-{index}",
        grid=GridSpec(case=case, baseline="dc-opf"),
        attack=AttackSpec(n_attacks=4, seed=1, ratio=0.05 + 0.01 * index),
        mtd=MTDSpec(policy="designed", gamma_threshold=gamma),
        n_trials=3,
        base_seed=index,
        tags=("store-test",),
    )
    trials = tuple(
        TrialResult(trial_index=t, metrics={"eta(0.9)": 0.1 * index + 0.01 * t, "spa": 0.3})
        for t in range(spec.n_trials)
    )
    return ScenarioResult(spec=spec, trials=trials)


def segment_paths(store: CampaignStore):
    return sorted((store.directory / SEGMENT_DIR).glob("*.ndjson"))


class TestAppendAndRead:
    def test_round_trip(self, tmp_path):
        result = make_result(1)
        with CampaignStore(tmp_path / "s.campaign") as store:
            spec_hash = store.append(result, shard=5)
            assert spec_hash == result.spec.content_hash()
            assert spec_hash in store
            assert len(store) == 1
            loaded = store.get(spec_hash)
        assert loaded.trials == result.trials
        assert loaded.spec == result.spec
        assert loaded.from_cache
        # Summaries survive the round trip bit-identically.
        assert loaded.summarize("eta(0.9)").mean == result.summarize("eta(0.9)").mean

    def test_get_missing_is_none(self, tmp_path):
        store = CampaignStore(tmp_path / "s.campaign")
        assert store.get("0" * 64) is None

    def test_create_false_requires_a_real_store(self, tmp_path):
        """Read-only opens fail fast on missing paths AND on existing
        directories that are not stores, leaving both untouched."""
        missing = tmp_path / "nope.campaign"
        with pytest.raises(ConfigurationError):
            CampaignStore(missing, create=False)
        assert not missing.exists()
        plain_dir = tmp_path / "not-a-store"
        plain_dir.mkdir()
        with pytest.raises(ConfigurationError):
            CampaignStore(plain_dir, create=False)
        assert list(plain_dir.iterdir()) == []
        # A real store (with segments) opens fine without create.
        CampaignStore(tmp_path / "s.campaign").close()
        with CampaignStore(tmp_path / "s.campaign", create=False) as reopened:
            assert len(reopened) == 0

    def test_reappend_same_hash_replaces(self, tmp_path):
        result = make_result(1)
        with CampaignStore(tmp_path / "s.campaign") as store:
            store.append(result, shard=0)
            store.append(result, shard=7)
            assert len(store) == 1

    def test_each_instance_writes_a_fresh_segment(self, tmp_path):
        root = tmp_path / "s.campaign"
        with CampaignStore(root) as store:
            store.append(make_result(1))
        with CampaignStore(root) as store:
            store.append(make_result(2))
        with CampaignStore(root) as store:
            assert len(segment_paths(store)) == 2
            assert len(store) == 2

    def test_results_in_insertion_order(self, tmp_path):
        with CampaignStore(tmp_path / "s.campaign") as store:
            for i in range(3):
                store.append(make_result(i))
            names = [r.spec.name for r in store.results()]
        assert names == [f"store-spec-{i}" for i in range(3)]

    def test_reappended_hash_reads_its_last_record(self, tmp_path):
        """A re-appended hash moves to its last record's place, in the open
        instance and after reopening alike."""
        root = tmp_path / "s.campaign"
        store = CampaignStore(root)
        for i in range(3):
            store.append(make_result(i), shard=0)
        store.close()
        again = CampaignStore(root)
        again.append(make_result(0), shard=7)
        expected = ["store-spec-1", "store-spec-2", "store-spec-0"]
        for view in (again, CampaignStore(root)):
            assert [r["spec"]["name"] for r in view.records()] == expected
            assert [r["shard"] for r in view.records()] == [0, 0, 7]
        again.close()


class TestLiveRefresh:
    """An open store indexes what other instances append before each read."""

    def test_reader_sees_appends_of_a_later_writer(self, tmp_path):
        root = tmp_path / "s.campaign"
        reader = CampaignStore(root)
        writer = CampaignStore(root)
        spec_hash = writer.append(make_result(1))
        assert spec_hash in reader
        assert reader.get(spec_hash).trials == make_result(1).trials
        # The reader's own appends follow the writer's in insertion order.
        writer.close()
        reader.append(make_result(2))
        assert [r.spec.name for r in reader.results()] == ["store-spec-1", "store-spec-2"]
        reader.close()

    def test_torn_tail_waits_for_its_newline(self, tmp_path):
        with CampaignStore(tmp_path / "other.campaign") as other:
            late = other.append(make_result(2))
        (other_segment,) = segment_paths(other)
        line = other_segment.read_bytes()
        root = tmp_path / "s.campaign"
        with CampaignStore(root) as writer:
            writer.append(make_result(1))
        reader = CampaignStore(root)
        (segment,) = segment_paths(reader)
        with segment.open("ab") as handle:
            handle.write(line[:-1])
        assert late not in reader and len(reader) == 1
        with segment.open("ab") as handle:
            handle.write(b"\n")
        assert late in reader and len(reader) == 2

    def test_deleted_and_truncated_segments_are_reindexed(self, tmp_path):
        root = tmp_path / "s.campaign"
        first = CampaignStore(root)
        hashes = [first.append(make_result(i)) for i in range(2)]
        first.close()
        second = CampaignStore(root)
        last = second.append(make_result(2))
        second.close()
        reader = CampaignStore(root)
        assert reader.completed_hashes() == {*hashes, last}
        oldest, newest = segment_paths(reader)
        oldest.write_bytes(oldest.read_bytes().splitlines(keepends=True)[0])
        assert reader.completed_hashes() == {hashes[0], last}
        newest.unlink()
        assert reader.completed_hashes() == {hashes[0]}
        assert [r.spec.name for r in reader.results()] == ["store-spec-0"]


class TestCrashRecovery:
    def test_torn_tail_is_ignored_and_reexecutable(self, tmp_path):
        """A record cut mid-write never becomes visible; the scenario counts
        as missing again after reopening."""
        root = tmp_path / "s.campaign"
        store = CampaignStore(root)
        kept = store.append(make_result(1))
        torn = store.append(make_result(2))
        store.close()
        (segment,) = segment_paths(CampaignStore(root))
        data = segment.read_bytes()
        segment.write_bytes(data[:-17])  # cut into the final record
        reopened = CampaignStore(root)
        assert kept in reopened
        assert torn not in reopened
        assert len(reopened) == 1

    def test_corrupt_middle_line_is_skipped(self, tmp_path):
        root = tmp_path / "s.campaign"
        store = CampaignStore(root)
        first = store.append(make_result(1))
        store.close()
        (segment,) = segment_paths(CampaignStore(root))
        with segment.open("ab") as handle:
            handle.write(b"{not json}\n")
        second_store = CampaignStore(root)
        second = second_store.append(make_result(2))
        second_store.close()
        reopened = CampaignStore(root)
        assert first in reopened and second in reopened
        assert len(reopened) == 2
        assert reopened.skipped_lines == 1

    def test_deleted_segment_rows_are_pruned(self, tmp_path):
        """Deleting a segment file is a supported way to force its
        scenarios to re-execute: the store forgets its records instead of
        over-reporting completion (and query never hits a missing file)."""
        root = tmp_path / "s.campaign"
        first_store = CampaignStore(root)
        first = first_store.append(make_result(1))
        first_store.close()
        second_store = CampaignStore(root)
        second = second_store.append(make_result(2))
        second_store.close()
        oldest, _newest = segment_paths(CampaignStore(root))
        oldest.unlink()
        reopened = CampaignStore(root)
        assert first not in reopened
        assert second in reopened
        assert [r.spec.name for r in reopened.results()] == ["store-spec-2"]

    def test_second_live_writer_is_rejected(self, tmp_path):
        """The store is single-writer: a second store instance appending
        while the first still holds the lock fails fast instead of racing
        on segment numbering."""
        root = tmp_path / "s.campaign"
        writer = CampaignStore(root)
        writer.append(make_result(1))  # acquires the writer lock
        contender = CampaignStore(root)
        with pytest.raises(ConfigurationError):
            contender.append(make_result(2))
        writer.close()  # releases the lock
        assert contender.append(make_result(2)) == make_result(2).spec.content_hash()
        contender.close()

    def test_externally_truncated_segment_reindexes(self, tmp_path):
        root = tmp_path / "s.campaign"
        store = CampaignStore(root)
        first = store.append(make_result(1))
        second = store.append(make_result(2))
        store.close()
        (segment,) = segment_paths(CampaignStore(root))
        lines = segment.read_bytes().splitlines(keepends=True)
        segment.write_bytes(lines[0])  # drop the second record entirely
        reopened = CampaignStore(root)
        assert first in reopened
        assert second not in reopened
        assert len(reopened) == 1


class TestManifest:
    def test_manifest_round_trip(self, tmp_path):
        store = CampaignStore(tmp_path / "s.campaign")
        assert store.read_manifest() is None
        store.write_manifest({"name": "c", "plan_hash": "abc"})
        assert store.read_manifest() == {"name": "c", "plan_hash": "abc"}

    def test_corrupt_manifest_reads_as_none(self, tmp_path):
        store = CampaignStore(tmp_path / "s.campaign")
        store.manifest_path.write_text("{broken")
        assert store.read_manifest() is None


class TestQuery:
    @pytest.fixture()
    def store(self, tmp_path):
        with CampaignStore(tmp_path / "q.campaign") as store:
            for i, (case, gamma) in enumerate(
                [("ieee14", 0.2), ("ieee14", 0.4), ("ieee30", 0.2), ("ieee30", 0.4)]
            ):
                store.append(make_result(i, case=case, gamma=gamma))
            yield store

    def test_spec_field(self):
        spec = make_result(0).spec.to_dict()
        assert spec_field(spec, "grid.case") == "ieee14"
        assert spec_field(spec, "n_trials") == 3
        with pytest.raises(KeyError):
            spec_field(spec, "grid.nope")

    def test_where_filter(self, store):
        results = query_results(store, where={"grid.case": "ieee14"})
        assert len(results) == 2
        assert all(r.spec.grid.case == "ieee14" for r in results)
        both = query_results(
            store, where={"grid.case": "ieee30", "mtd.gamma_threshold": 0.4}
        )
        assert len(both) == 1
        assert query_results(store, where={"grid.case": "ieee118"}) == []

    def test_tag_filter(self, store):
        assert len(query_results(store, tags=["store-test"])) == 4
        assert query_results(store, tags=["absent"]) == []

    def test_group_by_pools_trials(self, store):
        groups = summarize_groups(
            query_results(store), metric="eta(0.9)", group_by=["mtd.gamma_threshold"]
        )
        assert [g.key for g in groups] == [(0.2,), (0.4,)]
        assert all(g.n_scenarios == 2 and g.summary.n_trials == 6 for g in groups)

    def test_group_by_unknown_field(self, store):
        with pytest.raises(ConfigurationError):
            summarize_groups(query_results(store), group_by=["grid.nope"])

    def test_group_by_non_scalar_field(self, store):
        with pytest.raises(ConfigurationError, match="not a scalar"):
            summarize_groups(query_results(store), group_by=["mtd"])

    def test_per_scenario_groups_by_default(self, store):
        groups = summarize_groups(query_results(store), metric="spa")
        assert len(groups) == 4
        assert all(g.n_scenarios == 1 for g in groups)

    def test_bool_where_clause_is_strict(self, store):
        """``bool`` subclasses ``int``: a true/false clause must not match
        numeric spec values (and numeric clauses must not match bools)."""
        # Every stored spec has mtd.perturb_all_dfacts == True.
        assert len(query_results(store, where={"mtd.perturb_all_dfacts": True})) == 4
        assert query_results(store, where={"mtd.perturb_all_dfacts": False}) == []
        # bool clause vs numeric spec value: no match either direction.
        assert query_results(store, where={"mtd.perturb_all_dfacts": 1}) == []
        assert query_results(store, where={"mtd.perturb_all_dfacts": 1.0}) == []
        assert query_results(store, where={"n_trials": True}) == []
        # Numeric comparisons still coerce int/float.
        assert len(query_results(store, where={"n_trials": 3.0})) == 4

    def test_export_csv(self, store, tmp_path):
        out = tmp_path / "out.csv"
        results = query_results(store)
        export_csv(out, results, metric="eta(0.9)", fields=["grid.case", "mtd.gamma_threshold"])
        with out.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4
        assert rows[0]["grid.case"] == "ieee14"
        # repr precision: values reconstruct exactly.
        expected = results[0].summarize("eta(0.9)").mean
        assert float(rows[0]["mean"]) == expected
