"""Tests of the engine's pooled execution path and stored payloads.

The headline contract: pooled trial execution is **bit-identical** to the
serial per-trial path for the same seed, for every detector method and
MTD policy, with the pool shipping trials in chunks of several trials.
Also covers payloads stored before the ``batch_size`` and ``backend``
execution hints were retired (they load to the same spec and hash) and
the ``ResultCache`` corruption/eviction paths.
"""

from __future__ import annotations

import json

import pytest

from repro.engine import (
    AttackSpec,
    GridSpec,
    MTDSpec,
    ResultCache,
    ScenarioEngine,
    ScenarioSpec,
    run_trial,
)
from repro.engine.runner import _pool_chunksize

#: Trials per pooled scenario: with two workers the pool's chunk size
#: ``ceil(n / (4 * workers))`` is 2, so every task carries several trials.
POOLED_TRIALS = 9


def small_spec(**overrides) -> ScenarioSpec:
    """A fast random-policy scenario (shared-ensemble, analytic detector)."""
    defaults = dict(
        name="batch-small",
        grid=GridSpec(case="ieee14", baseline="dc-opf"),
        attack=AttackSpec(n_attacks=16, seed=1),
        mtd=MTDSpec(policy="random", max_relative_change=0.2),
        n_trials=5,
        base_seed=23,
        deltas=(0.5, 0.9),
        metric="eta(0.9)",
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def serial_trials(spec):
    return [run_trial(spec, i) for i in range(spec.n_trials)]


def assert_pooled_identical(spec):
    """Two pool workers reproduce the serial trials bit for bit."""
    serial = serial_trials(spec)
    pooled = ScenarioEngine(n_workers=2).run(spec)
    assert [t.metrics for t in pooled.trials] == [t.metrics for t in serial]
    assert [t.trial_index for t in pooled.trials] == list(range(spec.n_trials))
    assert pooled.n_workers == 2


#: ``small_spec().content_hash()`` as computed (with and without the hints)
#: by the versions that wrote such payloads.
STORED_HASH = "b939ed777d228ac812bee36bfa5520365fd6ba29119a70f360772957cac3459c"

#: Retired execution hints as stored payloads carried them: a
#: ``batch_size`` alone, a ``backend`` alone, and both.
RETIRED_HINTS = (
    {"batch_size": 8},
    {"backend": "sparse"},
    {"batch_size": 8, "backend": "sparse"},
)


def parent_shaped(spec: ScenarioSpec, hints: dict) -> dict:
    """``spec.to_dict()`` as stored by versions with the retired ``hints``."""
    return {**spec.to_dict(), **hints}


class TestBatchedBitIdentity:
    def test_batched_identical_to_serial(self):
        assert_pooled_identical(small_spec(n_trials=POOLED_TRIALS))

    def test_batched_identical_for_monte_carlo_detector(self):
        assert_pooled_identical(
            small_spec(n_trials=POOLED_TRIALS).with_updates(
                {"detector.method": "monte-carlo", "detector.n_noise_trials": 25}
            )
        )

    def test_batched_identical_for_none_policy(self):
        assert_pooled_identical(
            small_spec(n_trials=POOLED_TRIALS).with_updates({"mtd.policy": "none"})
        )

    def test_batched_identical_with_per_trial_ensembles(self):
        assert_pooled_identical(
            small_spec(n_trials=POOLED_TRIALS).with_updates({"attack.seed": None})
        )

    def test_parallel_batched_identical_to_serial(self):
        """Fewer trials than four per worker: one trial per pool task."""
        assert_pooled_identical(small_spec(n_trials=4))

    def test_pool_chunksize_follows_multiprocessing_rule(self):
        assert _pool_chunksize(POOLED_TRIALS, 2) == 2
        assert _pool_chunksize(4, 2) == 1
        assert _pool_chunksize(1000, 3) == 84


class TestBatchSizeKnob:
    """The retired ``batch_size`` and ``backend`` hints in payloads stored
    before their removal."""

    def test_spec_field_round_trips(self):
        spec = small_spec()
        for hints in RETIRED_HINTS:
            assert ScenarioSpec.from_dict(parent_shaped(spec, hints)) == spec
            assert ScenarioSpec.from_json(json.dumps(parent_shaped(spec, hints))) == spec
        assert "batch_size" not in spec.to_dict()
        assert "backend" not in spec.to_dict()

    def test_batch_size_excluded_from_content_hash(self):
        spec = small_spec()
        for hints in RETIRED_HINTS:
            loaded = ScenarioSpec.from_dict(parent_shaped(spec, hints))
            assert loaded.content_hash() == spec.content_hash() == STORED_HASH

    def test_batched_and_serial_share_cache_entries(self, tmp_path):
        """A cache entry whose stored spec carries the hints is a hit."""
        spec = small_spec()
        for index, hints in enumerate(RETIRED_HINTS):
            cache = ResultCache(tmp_path / str(index))
            first = ScenarioEngine(cache=cache).run(spec)
            path = cache.path_for(spec)
            payload = json.loads(path.read_text())
            payload["spec"].update(hints)
            path.write_text(json.dumps(payload))
            hit = ScenarioEngine(cache=cache).run(spec)
            assert hit.from_cache
            assert hit.spec == spec
            assert hit.trials == first.trials


class TestResultCacheCorruption:
    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_spec(n_trials=2)
        result = ScenarioEngine(cache=cache).run(spec)
        path = cache.path_for(spec)
        full = path.read_text()
        path.write_text(full[: len(full) // 2])  # truncated mid-JSON
        assert cache.get(spec) is None
        assert cache.misses >= 1
        # The engine transparently recomputes and heals the entry.
        rerun = ScenarioEngine(cache=cache).run(spec)
        assert not rerun.from_cache
        assert [t.metrics for t in rerun.trials] == [t.metrics for t in result.trials]
        assert cache.get(spec) is not None

    def test_stale_spec_hash_collision_is_a_miss(self, tmp_path):
        """An entry whose embedded hash disagrees with its filename is stale."""
        cache = ResultCache(tmp_path)
        spec = small_spec(n_trials=2)
        other = small_spec(n_trials=3)
        ScenarioEngine(cache=cache).run(other)
        # Simulate a hash collision / schema drift: another spec's payload
        # parked under this spec's filename.
        payload = json.loads(cache.path_for(other).read_text())
        cache.path_for(spec).write_text(json.dumps(payload))
        assert cache.get(spec) is None

    def test_entry_with_wrong_schema_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_spec(n_trials=2)
        hash_ = spec.content_hash()
        cache.path_for(spec).write_text(
            json.dumps({"spec_hash": hash_, "trials": "not-a-list"})
        )
        assert cache.get(spec) is None

    @pytest.mark.parametrize("entry", ["[]", "null"])
    def test_entry_that_is_not_an_object_is_a_miss(self, tmp_path, entry):
        """Valid JSON that is not an object (``[]``, ``null``) is as
        unreadable as a truncated entry."""
        cache = ResultCache(tmp_path)
        spec = small_spec(n_trials=2)
        cache.path_for(spec).write_text(entry)
        assert cache.get(spec) is None
        assert cache.misses == 1

    def test_clear_evicts_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_spec(n_trials=2)
        ScenarioEngine(cache=cache).run(spec)
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.get(spec) is None


class TestTelemetryNeutrality:
    """Telemetry collection must never perturb pooled results."""

    @pytest.fixture(autouse=True)
    def _clean_telemetry(self):
        from repro import telemetry

        telemetry.disable()
        telemetry.reset()
        yield
        telemetry.disable()
        telemetry.reset()

    def test_batched_bit_identical_with_telemetry_enabled(self):
        from repro import telemetry

        spec = small_spec(n_trials=POOLED_TRIALS)
        serial = serial_trials(spec)
        telemetry.enable()
        pooled = ScenarioEngine(n_workers=2).run(spec)
        assert [t.metrics for t in pooled.trials] == [t.metrics for t in serial]
        assert pooled.telemetry["counters"]["engine.trials"] == spec.n_trials
