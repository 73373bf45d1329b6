"""Tests of the scenario engine: specs, execution, caching, registry."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis.montecarlo import summarize_values
from repro.analysis.reporting import format_summaries
from repro.engine import (
    AttackSpec,
    DetectorSpec,
    GridSpec,
    MTDSpec,
    ResultCache,
    ScenarioEngine,
    ScenarioResult,
    ScenarioSpec,
    TrialResult,
    available_scenarios,
    expand_grid,
    run_trial,
    scenario_suite,
    trial_seed_sequence,
)
from repro.engine.results import merge_metric
from repro.exceptions import ConfigurationError
from repro.grid.cases import available_cases, load_case
from repro.opf import solve_dc_opf


def small_spec(**overrides) -> ScenarioSpec:
    """A fast random-policy scenario used throughout the tests."""
    defaults = dict(
        name="test-small",
        grid=GridSpec(case="ieee14", baseline="dc-opf"),
        attack=AttackSpec(n_attacks=16, seed=1),
        mtd=MTDSpec(policy="random", max_relative_change=0.2),
        n_trials=4,
        base_seed=11,
        deltas=(0.5, 0.9),
        metric="eta(0.9)",
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestScenarioSpec:
    def test_dict_round_trip(self):
        spec = small_spec(
            grid=GridSpec(case="synthetic57", case_kwargs=(("dfacts_fraction", 0.4),)),
            tags=("a", "b"),
            description="round trip",
        )
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt == spec

    def test_json_round_trip(self):
        spec = small_spec(detector=DetectorSpec(method="monte-carlo", n_noise_trials=50))
        rebuilt = ScenarioSpec.from_json(spec.to_json(indent=2))
        assert rebuilt == spec
        # The serialised form is valid, plain JSON.
        payload = json.loads(spec.to_json())
        assert payload["mtd"]["policy"] == "random"

    def test_from_dict_rejects_unknown_fields(self):
        data = small_spec().to_dict()
        data["bogus"] = 1
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict(data)
        data = small_spec().to_dict()
        data["mtd"]["bogus"] = 1
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict(data)

    def test_content_hash_ignores_labels(self):
        spec = small_spec()
        relabelled = spec.with_updates(name="other", description="d", tags=("x",))
        assert relabelled.content_hash() == spec.content_hash()

    def test_content_hash_tracks_parameters(self):
        spec = small_spec()
        assert spec.with_updates({"attack.n_attacks": 17}).content_hash() != spec.content_hash()
        assert spec.with_updates({"mtd.policy": "none"}).content_hash() != spec.content_hash()
        assert spec.with_updates(base_seed=12).content_hash() != spec.content_hash()

    def test_content_hash_survives_round_trip(self):
        spec = small_spec()
        assert ScenarioSpec.from_json(spec.to_json()).content_hash() == spec.content_hash()

    def test_with_updates_dotted_paths(self):
        spec = small_spec()
        updated = spec.with_updates(
            {"mtd.max_relative_change": 0.3, "grid.case": "ieee30"}, n_trials=7
        )
        assert updated.mtd.max_relative_change == 0.3
        assert updated.grid.case == "ieee30"
        assert updated.n_trials == 7
        # The original is untouched (specs are frozen values).
        assert spec.mtd.max_relative_change == 0.2

    def test_with_updates_rejects_unknown_component(self):
        with pytest.raises(ConfigurationError):
            small_spec().with_updates({"nosuch.field": 1})

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GridSpec(baseline="ac-opf")
        with pytest.raises(ConfigurationError):
            AttackSpec(n_attacks=0)
        with pytest.raises(ConfigurationError):
            MTDSpec(policy="designed", gamma_threshold=None)
        with pytest.raises(ConfigurationError):
            MTDSpec(policy="designed", gamma_threshold=2.0)  # > pi/2: likely degrees
        with pytest.raises(ConfigurationError):
            MTDSpec(policy="designed", gamma_threshold=-0.1)
        with pytest.raises(ConfigurationError):
            DetectorSpec(method="oracle")
        with pytest.raises(ConfigurationError):
            small_spec(n_trials=0)

    def test_expand_grid(self):
        base = small_spec()
        specs = expand_grid(
            base, {"mtd.max_relative_change": (0.1, 0.2), "grid.case": ("ieee14", "ieee30")}
        )
        assert len(specs) == 4
        assert {s.grid.case for s in specs} == {"ieee14", "ieee30"}
        assert all(s.name.startswith("test-small[") for s in specs)
        # Row-major: the first axis varies slowest.
        assert [s.mtd.max_relative_change for s in specs] == [0.1, 0.1, 0.2, 0.2]


class TestTrialSeeding:
    def test_trial_seed_sequence_matches_spawn(self):
        root = np.random.SeedSequence(42)
        children = root.spawn(5)
        for index in (0, 2, 4):
            direct = trial_seed_sequence(42, index)
            assert direct.generate_state(4).tolist() == children[index].generate_state(4).tolist()

    def test_trial_depends_only_on_spec_and_index(self):
        spec = small_spec()
        a = run_trial(spec, 2)
        b = run_trial(spec, 2)
        assert a == b
        assert run_trial(spec, 1) != run_trial(spec, 2)

    def test_trial_index_bounds(self):
        with pytest.raises(ConfigurationError):
            run_trial(small_spec(), 4)


class TestEngineExecution:
    def test_parallel_identical_to_serial(self):
        spec = small_spec()
        serial = ScenarioEngine(n_workers=1).run(spec)
        parallel = ScenarioEngine(n_workers=2).run(spec)
        assert serial.trials == parallel.trials
        assert parallel.n_workers == 2
        assert not serial.from_cache and not parallel.from_cache

    def test_results_aggregate_to_montecarlo_summary(self):
        result = ScenarioEngine().run(small_spec())
        summary = result.summarize("spa")
        assert summary.n_trials == 4
        assert summary.median == pytest.approx(float(np.median(result.values("spa"))))
        assert 0.0 <= summary.percentile(95) <= np.pi / 2
        with pytest.raises(ConfigurationError):
            result.values("nonexistent")

    def test_result_round_trip(self):
        result = ScenarioEngine().run(small_spec())
        rebuilt = ScenarioResult.from_dict(result.to_dict())
        assert rebuilt.spec == result.spec
        assert rebuilt.trials == result.trials

    def test_none_policy_is_stealthy_control(self):
        spec = small_spec(
            name="control", mtd=MTDSpec(policy="none", gamma_threshold=None)
        )
        result = ScenarioEngine().run(spec)
        # Without MTD every stealthy attack stays at the false-positive floor.
        assert all(t.metrics["undetectable_fraction"] == 1.0 for t in result.trials)
        assert all(t.metrics["spa"] == 0.0 for t in result.trials)

    def test_run_sweep(self):
        engine = ScenarioEngine()
        results = engine.run_sweep(
            small_spec(n_trials=2), {"mtd.max_relative_change": (0.05, 0.3)}
        )
        assert len(results) == 2
        assert results[0].spec.mtd.max_relative_change == 0.05
        pooled = merge_metric(results, "spa")
        assert pooled.size == 4


class TestResultCache:
    def test_cache_miss_then_hit(self, tmp_path):
        engine = ScenarioEngine(cache=tmp_path / "cache", n_workers=1)
        spec = small_spec()
        first = engine.run(spec)
        assert not first.from_cache
        assert engine.executed_trials == spec.n_trials
        second = engine.run(spec)
        assert second.from_cache
        assert second.trials == first.trials
        # The cache hit executed nothing.
        assert engine.executed_trials == spec.n_trials
        assert engine.cache.stats()["hits"] == 1
        assert engine.cache.stats()["entries"] == 1

    def test_cache_distinguishes_specs(self, tmp_path):
        engine = ScenarioEngine(cache=tmp_path)
        engine.run(small_spec())
        other = engine.run(small_spec(base_seed=99))
        assert not other.from_cache
        assert len(engine.cache) == 2

    def test_cache_shared_across_engines(self, tmp_path):
        spec = small_spec()
        ScenarioEngine(cache=tmp_path).run(spec)
        replay = ScenarioEngine(cache=tmp_path).run(spec)
        assert replay.from_cache

    def test_use_cache_false_forces_execution(self, tmp_path):
        engine = ScenarioEngine(cache=tmp_path)
        spec = small_spec()
        engine.run(spec)
        fresh = engine.run(spec, use_cache=False)
        assert not fresh.from_cache
        assert engine.executed_trials == 2 * spec.n_trials

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_spec()
        engine = ScenarioEngine(cache=cache)
        engine.run(spec)
        cache.path_for(spec).write_text("{not json")
        assert cache.get(spec) is None
        rerun = engine.run(spec)
        assert not rerun.from_cache

    def test_relabelled_spec_hits_same_entry(self, tmp_path):
        engine = ScenarioEngine(cache=tmp_path)
        engine.run(small_spec())
        hit = engine.run(small_spec(name="renamed", description="same physics"))
        assert hit.from_cache


class TestPaperScenario:
    def test_designed_mtd_reproduces_effectiveness(self):
        """Engine-driven reproduction of the paper's core result: a designed
        perturbation at gamma_th = 0.2 rad detects the bulk of the attack
        ensemble while the no-MTD control detects none (Figs. 6/7 setup)."""
        designed = ScenarioEngine().run(
            ScenarioSpec(
                name="paper-designed",
                grid=GridSpec(case="ieee14", baseline="dc-opf"),
                attack=AttackSpec(n_attacks=200, seed=1),
                mtd=MTDSpec(policy="designed", gamma_threshold=0.2, include_cost=True),
                deltas=(0.5, 0.9),
            )
        )
        metrics = designed.trials[0].metrics
        assert metrics["spa"] >= 0.2 - 1e-9
        assert metrics["eta(0.5)"] > 0.8
        assert metrics["eta(0.9)"] > 0.5
        assert metrics["undetectable_fraction"] < 0.05
        assert metrics["baseline_cost"] > 0

        control = ScenarioEngine().run(
            ScenarioSpec(
                name="paper-control",
                grid=GridSpec(case="ieee14", baseline="dc-opf"),
                attack=AttackSpec(n_attacks=200, seed=1),
                mtd=MTDSpec(policy="none", gamma_threshold=None),
                deltas=(0.5, 0.9),
            )
        )
        assert control.trials[0].metrics["eta(0.5)"] == 0.0

    def test_infeasible_gamma_saturates_at_max_spa(self):
        result = ScenarioEngine().run(
            ScenarioSpec(
                name="saturated",
                grid=GridSpec(case="ieee14", baseline="dc-opf"),
                attack=AttackSpec(n_attacks=16, seed=1),
                mtd=MTDSpec(policy="designed", gamma_threshold=1.5),
                deltas=(0.5,),
            )
        )
        spa = result.trials[0].metrics["spa"]
        assert 0.0 < spa < 1.5


class TestMultiCaseSuite:
    """The acceptance scenario: >= 3 grid cases (incl. a >= 57-bus one)
    through the engine with n_workers > 1, identical to serial, then served
    from the cache."""

    def suite(self):
        return [
            small_spec(name=f"suite-{case}", grid=GridSpec(case=case, baseline="dc-opf"),
                       n_trials=3)
            for case in ("ieee14", "ieee30", "synthetic57")
        ]

    def test_parallel_suite_matches_serial_and_caches(self, tmp_path):
        suite = self.suite()
        serial = ScenarioEngine(n_workers=1).run_suite(suite)
        engine = ScenarioEngine(cache=tmp_path, n_workers=2)
        parallel = engine.run_suite(suite)
        assert all(s.trials == p.trials for s, p in zip(serial, parallel))
        assert engine.executed_trials == sum(s.n_trials for s in suite)

        replay = engine.run_suite(suite)
        assert all(r.from_cache for r in replay)
        assert all(r.trials == p.trials for r, p in zip(replay, parallel))
        # No additional trials ran on the replay.
        assert engine.executed_trials == sum(s.n_trials for s in suite)


class TestScenarioRegistry:
    def test_available_scenarios(self):
        names = available_scenarios()
        for expected in ("fig6a", "fig6b", "fig7", "fig8", "fig9", "fig10", "fig11",
                         "tables", "scale"):
            assert expected in names

    def test_suites_reference_registered_cases(self):
        cases = available_cases()
        for name in available_scenarios():
            for spec in scenario_suite(name):
                assert spec.grid.case in cases
                # Every canonical spec is hashable and JSON-serialisable.
                assert len(spec.content_hash()) == 64
                assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_scale_suite_spans_large_grids(self):
        sizes = {spec.grid.case for spec in scenario_suite("scale")}
        assert "synthetic57" in sizes and "synthetic118" in sizes

    def test_unknown_suite(self):
        with pytest.raises(ConfigurationError):
            scenario_suite("fig99")


class TestSyntheticRegistryCases:
    def test_synthetic_cases_registered(self):
        names = available_cases()
        for name in ("synthetic57", "synthetic118"):
            assert name in names
        # Not aliased as caseNN — those names would imply the IEEE data.
        assert "case57" not in names and "case118" not in names

    def test_synthetic57_properties(self):
        network = load_case("synthetic57")
        assert network.n_buses == 57
        assert len(network.dfacts_branches) > 0
        # Pinned default seed: loading twice yields the same network.
        again = load_case("synthetic57")
        assert np.array_equal(network.reactances(), again.reactances())
        # The registered configuration is dispatchable.
        assert solve_dc_opf(network).success

    def test_synthetic118_dispatchable(self):
        network = load_case("synthetic118")
        assert network.n_buses == 118
        assert solve_dc_opf(network).success

    def test_case_kwargs_forwarded(self):
        network = load_case("synthetic57", seed=3)
        default = load_case("synthetic57")
        assert not np.array_equal(network.reactances(), default.reactances())


class TestSummaryStatistics:
    def test_median_and_percentile(self):
        summary = summarize_values([1.0, 2.0, 3.0, 4.0, 100.0])
        assert summary.median == 3.0
        assert summary.percentile(0) == 1.0
        assert summary.percentile(100) == 100.0
        assert summary.percentile(50) == summary.median
        with pytest.raises(ValueError):
            summary.percentile(101)

    def test_summarize_values_matches_repeat_experiment_layout(self):
        summary = summarize_values(np.array([2.0, 4.0]))
        assert summary.mean == 3.0
        assert summary.n_trials == 2
        assert summary.confidence_halfwidth > 0

    def test_format_summaries_surfaces_new_statistics(self):
        summary = summarize_values([1.0, 2.0, 3.0])
        text = format_summaries([("demo", summary)], title="t")
        assert "median" in text and "p5" in text and "p95" in text
        assert "demo" in text


class TestTrialResultRecords:
    def test_trial_result_round_trip(self):
        trial = TrialResult(trial_index=3, metrics={"eta(0.9)": 0.5})
        assert TrialResult.from_dict(trial.to_dict()) == trial

    def test_fraction_meeting(self):
        spec = small_spec(n_trials=2)
        trials = (
            TrialResult(0, {"eta(0.9)": 0.95, "spa": 0.1}),
            TrialResult(1, {"eta(0.9)": 0.10, "spa": 0.2}),
        )
        result = ScenarioResult(spec=spec, trials=trials)
        assert result.fraction_meeting("eta(0.9)", 0.9) == 0.5
        assert result.values().tolist() == [0.95, 0.10]
