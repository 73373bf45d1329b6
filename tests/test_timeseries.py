"""Tests of the time-series operation engine.

Covers the spec layer (profiles, tuning, operation components, JSON/hash),
the engine (a golden of the default path, scan-vs-bisect agreement,
parallel/batched/cached bit-identity, warm-up and staleness) and the
campaign integration (daily-operation suites run, resume and query through
the store).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import CampaignOrchestrator, query_results
from repro.campaign.suites import campaign_from_suite
from repro.engine import ResultCache, ScenarioEngine, ScenarioSpec, scenario_suite
from repro.engine.trial import run_trial
from repro.exceptions import ConfigurationError
from repro.loads.profiles import available_shapes, day_shape, multi_day_profile
from repro.timeseries import (
    OperationEngine,
    OperationResult,
    OperationSpec,
    ProfileSpec,
    TuningSpec,
    daily_operation_spec,
)
from repro.timeseries.engine import _build_hours, _solve_hour_baseline

#: Default-path records (captured before the compatibility paths were
#: removed): dispatch-only IEEE 14-bus, loads [205, 212, 220] MW,
#: n_attacks=80, a scan over gamma_grid=(0.05, 0.15, 0.25, 0.35), seed=0.
#: The dispatch-only baseline keeps the flat eq. (1) optimum out of it.
GOLDEN_RECORDS = [
    {
        "hour": 0,
        "total_load_mw": 204.99999999999997,
        "baseline_cost": 4162.133344389262,
        "mtd_cost": 4125.3079846330575,
        "cost_increase_percent": 0.0,
        "gamma_threshold": 0.25,
        "achieved_eta": 0.9,
        "spa_attacker_vs_baseline": 1.761125037404662e-15,
        "spa_attacker_vs_mtd": 0.25000000043106935,
        "spa_baseline_vs_mtd": 0.25000000043106935,
        "n_tuning_probes": 3,
    },
    {
        "hour": 1,
        "total_load_mw": 212.0,
        "baseline_cost": 4393.928823933605,
        "mtd_cost": 4326.715924836106,
        "cost_increase_percent": 0.0,
        "gamma_threshold": 0.25,
        "achieved_eta": 0.85,
        "spa_attacker_vs_baseline": 1.761125037404662e-15,
        "spa_attacker_vs_mtd": 0.25000000043106935,
        "spa_baseline_vs_mtd": 0.25000000043106935,
        "n_tuning_probes": 4,
    },
    {
        "hour": 2,
        "total_load_mw": 219.99999999999997,
        "baseline_cost": 4658.837943412866,
        "mtd_cost": 4568.756444430115,
        "cost_increase_percent": 0.0,
        "gamma_threshold": 0.25,
        "achieved_eta": 0.8625,
        "spa_attacker_vs_baseline": 1.761125037404662e-15,
        "spa_attacker_vs_mtd": 0.25000000043106935,
        "spa_baseline_vs_mtd": 0.25000000043106935,
        "n_tuning_probes": 4,
    },
]

#: Golden fields compared with rtol 1e-9 (they pass through the OPF solver).
GOLDEN_RTOL_FIELDS = (
    "total_load_mw",
    "baseline_cost",
    "mtd_cost",
    "cost_increase_percent",
    "spa_attacker_vs_mtd",
    "spa_baseline_vs_mtd",
)

#: Golden fields compared exactly (grid values, attack fractions, probe counts).
GOLDEN_EXACT_FIELDS = ("hour", "gamma_threshold", "achieved_eta", "n_tuning_probes")


def tiny_spec(**overrides) -> ScenarioSpec:
    """A fast operation spec for structural tests (seconds, not minutes)."""
    defaults = dict(
        name="ts-tiny",
        profile=ProfileSpec(
            explicit_totals_mw=(205.0, 212.0, 220.0),
            peak_load_mw=None,
            min_load_mw=None,
        ),
        tuning=TuningSpec(gamma_grid=(0.05, 0.2)),
        n_attacks=24,
        seed=0,
    )
    defaults.update(overrides)
    return daily_operation_spec(**defaults)


# ----------------------------------------------------------------------
# load profiles
# ----------------------------------------------------------------------
class TestSeasonalProfiles:
    def test_registered_shapes(self):
        assert {"winter-weekday", "winter-weekend", "summer-weekday", "flat"} <= set(
            available_shapes()
        )
        for name in available_shapes():
            assert day_shape(name).shape == (24,)

    def test_unknown_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            day_shape("spring-holiday")

    def test_weekend_lies_below_weekday(self):
        assert day_shape("winter-weekend").max() < day_shape("winter-weekday").max()

    def test_summer_peaks_in_the_afternoon(self):
        assert 14 <= int(np.argmax(day_shape("summer-weekday"))) <= 17

    def test_multi_day_profile_band_and_length(self):
        profile = multi_day_profile(
            ["winter-weekday", "winter-weekend"], peak_load_mw=220.0, min_load_mw=143.0
        )
        assert profile.shape == (48,)
        assert profile.max() == pytest.approx(220.0)
        assert profile.min() == pytest.approx(143.0)
        # The weekend day keeps its relative level against the weekday peak.
        assert profile[24:].max() < profile[:24].max()

    def test_multi_day_profile_validation(self):
        with pytest.raises(ConfigurationError):
            multi_day_profile([], 220.0, 143.0)
        with pytest.raises(ConfigurationError):
            multi_day_profile(["winter-weekday"], 100.0, 150.0)


class TestProfileSpec:
    def test_n_hours_and_truncation(self):
        assert ProfileSpec().n_hours() == 24
        assert ProfileSpec(n_days=3).n_hours() == 72
        assert ProfileSpec(n_days=2, hours=30).n_hours() == 30
        assert ProfileSpec(explicit_totals_mw=(1.0, 2.0), peak_load_mw=None,
                           min_load_mw=None, hours=1).n_hours() == 1

    def test_explicit_days_override_shape(self):
        spec = ProfileSpec(days=("winter-weekday", "winter-weekend"))
        assert spec.day_names() == ("winter-weekday", "winter-weekend")
        assert spec.n_hours() == 48

    def test_totals_absolute_band(self):
        totals = ProfileSpec(peak_load_mw=200.0, min_load_mw=100.0).totals_mw()
        assert totals.max() == pytest.approx(200.0)
        assert totals.min() == pytest.approx(100.0)

    def test_totals_per_case_normalisation(self):
        spec = ProfileSpec(peak_load_mw=None, min_load_mw=None,
                           peak_fraction=1.2, min_fraction=0.6)
        totals = spec.totals_mw(nominal_total_mw=100.0)
        assert totals.max() == pytest.approx(120.0)
        assert totals.min() == pytest.approx(60.0)
        with pytest.raises(ConfigurationError):
            spec.totals_mw()  # nominal total required in fraction mode

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ProfileSpec(shape="bogus")
        with pytest.raises(ConfigurationError):
            ProfileSpec(n_days=0)
        with pytest.raises(ConfigurationError):
            ProfileSpec(peak_load_mw=100.0, min_load_mw=None)
        with pytest.raises(ConfigurationError):
            ProfileSpec(peak_load_mw=100.0, min_load_mw=150.0)
        with pytest.raises(ConfigurationError):
            ProfileSpec(hours=0)


# ----------------------------------------------------------------------
# spec layer
# ----------------------------------------------------------------------
class TestOperationSpecLayer:
    def test_tuning_validation(self):
        with pytest.raises(ConfigurationError):
            TuningSpec(method="newton")
        with pytest.raises(ConfigurationError):
            TuningSpec(gamma_grid=())
        with pytest.raises(ConfigurationError):
            TuningSpec(gamma_grid=(0.2, 0.1))
        with pytest.raises(ConfigurationError):
            TuningSpec(gamma_grid=(0.1, 2.0))
        with pytest.raises(ConfigurationError):
            TuningSpec(delta=0.0)

    def test_operation_validation(self):
        with pytest.raises(ConfigurationError):
            OperationSpec(staleness_hours=0)
        with pytest.raises(ConfigurationError):
            OperationSpec(carryover_tolerance=-1.0)

    def test_scenario_requires_designed_policy_and_analytic_detector(self):
        with pytest.raises(ConfigurationError, match="designed"):
            tiny_spec().with_updates({"mtd.policy": "random"})
        with pytest.raises(ConfigurationError, match="analytic"):
            tiny_spec().with_updates({"detector.method": "monte-carlo"})

    def test_n_trials_pinned_to_horizon(self):
        spec = tiny_spec()
        assert spec.n_trials == 3
        # Overriding n_trials is a no-op: the horizon defines the count.
        assert spec.with_updates(n_trials=99).n_trials == 3
        assert spec.with_updates({"operation.profile.hours": 2}).n_trials == 2

    def test_json_round_trip_and_hash(self):
        spec = tiny_spec()
        clone = ScenarioSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.content_hash() == spec.content_hash()
        # The operation policy participates in the identity.
        changed = spec.with_updates({"operation.staleness_hours": 2})
        assert changed.content_hash() != spec.content_hash()
        assert spec.operation.content_hash() != changed.operation.content_hash()

    def test_pre_change_operation_payload_rejected(self):
        """A stored payload carrying the removed ``warmup``/``rng`` policy
        fields fails loudly instead of being silently re-hashed."""
        payload = tiny_spec().to_dict()
        payload["operation"].update(warmup="fresh", rng="legacy")
        with pytest.raises(ConfigurationError, match="rng.*warmup"):
            ScenarioSpec.from_dict(payload)

    def test_plain_specs_keep_their_shape_and_hash(self):
        """Adding the operation component must not disturb existing specs:
        no ``operation`` key in their payload, hashes untouched."""
        plain = ScenarioSpec(name="plain")
        assert "operation" not in plain.to_dict()
        assert ScenarioSpec.from_dict(plain.to_dict()) == plain

    def test_deep_with_updates(self):
        spec = tiny_spec().with_updates(
            {"operation.tuning.method": "scan", "operation.profile.hours": 1}
        )
        assert spec.operation.tuning.method == "scan"
        assert spec.operation.profile.hours == 1
        with pytest.raises(ConfigurationError):
            tiny_spec().with_updates({"operation.bogus.path": 1})


# ----------------------------------------------------------------------
# engine: golden and determinism
# ----------------------------------------------------------------------
class TestDefaultPathGolden:
    def test_records_match_the_captured_values(self):
        spec = daily_operation_spec(
            name="ts-golden",
            case="ieee14",
            cost_baseline="dispatch-only",
            profile=ProfileSpec(
                explicit_totals_mw=(205.0, 212.0, 220.0),
                peak_load_mw=None,
                min_load_mw=None,
            ),
            tuning=TuningSpec(method="scan", gamma_grid=(0.05, 0.15, 0.25, 0.35)),
            n_attacks=80,
            seed=0,
        )
        result = OperationEngine().run(spec, use_cache=False)
        assert len(result) == len(GOLDEN_RECORDS)
        for record, expected in zip(result, GOLDEN_RECORDS):
            for name in GOLDEN_EXACT_FIELDS:
                assert getattr(record, name) == expected[name], name
            for name in GOLDEN_RTOL_FIELDS:
                np.testing.assert_allclose(
                    getattr(record, name), expected[name], rtol=1e-9, err_msg=name
                )
            np.testing.assert_allclose(
                record.spa_attacker_vs_baseline,
                expected["spa_attacker_vs_baseline"],
                rtol=0.0,
                atol=1e-12,
            )


class TestScanVsBisect:
    def test_agreement_on_the_fig10_setting(self):
        """Bisection selects the same thresholds and records as the linear
        scan on the Fig. 10 configuration, with no more probes."""
        base = scenario_suite("fig10")[0].with_updates(
            {"operation.profile.hours": 2, "attack.n_attacks": 24}
        )
        scan = base.with_updates({"operation.tuning.method": "scan"})
        bisect = base.with_updates({"operation.tuning.method": "bisect"})
        engine = ScenarioEngine()
        scan_result = OperationResult.from_scenario(engine.run(scan, use_cache=False))
        bisect_result = OperationResult.from_scenario(engine.run(bisect, use_cache=False))
        for a, b in zip(scan_result, bisect_result):
            assert a.gamma_threshold == b.gamma_threshold
            assert a.cost_increase_percent == b.cost_increase_percent
            assert a.achieved_eta == b.achieved_eta
            assert a.spa_attacker_vs_mtd == b.spa_attacker_vs_mtd
        assert (
            bisect_result.total_tuning_probes() <= scan_result.total_tuning_probes()
        )


class TestParallelAndCache:
    def test_parallel_hours_bit_identical_to_serial_multi_day(self):
        """A horizon spanning two (short) days gives the same records on a
        process pool as serially — the seed-spawned per-hour streams make
        hour execution order-independent."""
        spec = tiny_spec(
            name="ts-par",
            profile=ProfileSpec(
                explicit_totals_mw=(205.0, 210.0, 215.0, 220.0, 212.0),
                peak_load_mw=None,
                min_load_mw=None,
            ),
            n_attacks=16,
            tuning=TuningSpec(gamma_grid=(0.05, 0.2)),
        )
        engine = ScenarioEngine()
        serial = engine.run(spec, use_cache=False)
        parallel = engine.run(spec, n_workers=2, use_cache=False)
        assert serial.trials == parallel.trials

    def test_result_cache_replays_operation_runs(self, tmp_path):
        spec = tiny_spec(name="ts-cache")
        engine = ScenarioEngine(cache=ResultCache(tmp_path / "cache"))
        first = engine.run(spec)
        replay = engine.run(spec)
        assert replay.from_cache
        assert replay.trials == first.trials
        # The typed view rebuilds losslessly from the cached payload.
        records = OperationResult.from_scenario(replay).records
        assert [r.hour for r in records] == [0, 1, 2]

    def test_run_trial_dispatch_and_bounds(self):
        spec = tiny_spec(name="ts-dispatch")
        trial = run_trial(spec, 1)
        assert trial.trial_index == 1
        assert "gamma_threshold" in trial.metrics
        assert "cost_increase_percent" in trial.metrics
        with pytest.raises(ConfigurationError):
            run_trial(spec, 3)


class TestWarmupAndStaleness:
    @staticmethod
    def _context(net, **operation_overrides):
        spec = daily_operation_spec(
            name="ts-warmup",
            cost_baseline="dispatch-only",
            profile=ProfileSpec(
                explicit_totals_mw=(200.0, 210.0, 220.0),
                peak_load_mw=None,
                min_load_mw=None,
            ),
            n_attacks=8,
        ).with_updates(
            {f"operation.{key}": value for key, value in operation_overrides.items()}
        )
        return _build_hours(net, spec.grid.baseline, spec.operation, spec.base_seed)

    def test_wrap_around_uses_previous_days_last_hour(self, net14):
        hours = self._context(net14)
        # Hour 0's attacker operates at the *last* hour's load level…
        np.testing.assert_allclose(
            hours[0].knowledge_angles, hours[2].baseline.angles_rad
        )
        # …while later hours use the previous hour as before.
        np.testing.assert_allclose(
            hours[1].knowledge_angles, hours[0].baseline.angles_rad
        )

    def test_staleness_two_hours(self, net14):
        hours = self._context(net14, staleness_hours=2)
        # t=0 wraps two hours back to hour 1 of the previous (identical) day.
        np.testing.assert_allclose(
            hours[0].knowledge_angles, hours[1].baseline.angles_rad
        )
        np.testing.assert_allclose(
            hours[2].knowledge_angles, hours[0].baseline.angles_rad
        )

    def test_hour_zero_baseline_carries_over_from_the_previous_day(self, net14):
        """The baseline chain wraps like the attacker's knowledge: hour 0 is
        the carryover rule applied to the previous (identical) day's last
        hour, so γ(H_t, H_t′) at hour 0 compares like with like."""
        spec = daily_operation_spec(
            name="ts-warmup-opf",
            profile=ProfileSpec(
                explicit_totals_mw=(205.0, 212.0, 220.0),
                peak_load_mw=None,
                min_load_mw=None,
            ),
            n_attacks=8,
            seed=0,
        )
        assert spec.grid.baseline == "reactance-opf"
        hours = _build_hours(net14, spec.grid.baseline, spec.operation, spec.base_seed)
        hour_zero = _solve_hour_baseline(
            net14,
            spec.grid.baseline,
            spec.operation,
            spec.base_seed,
            hours[0].loads,
            previous=hours[-1].baseline,
        )
        np.testing.assert_array_equal(
            hour_zero.reactances, hours[0].baseline.reactances
        )


# ----------------------------------------------------------------------
# campaign integration
# ----------------------------------------------------------------------
QUICK_OPERATION_OVERRIDES = {
    "attack.n_attacks": 6,
    "operation.profile.hours": 1,
    "operation.tuning.gamma_grid": (0.05,),
}


class TestDailyOperationCampaigns:
    def test_interrupted_suite_resumes_exactly_the_missing_work(self, tmp_path):
        definition = campaign_from_suite(
            "daily-ops", overrides=QUICK_OPERATION_OVERRIDES, shard_size=1
        )
        orchestrator = CampaignOrchestrator(tmp_path / "daily.campaign")
        interrupted = orchestrator.run(definition, shard_limit=2)
        assert not interrupted.complete
        assert len(interrupted.executed) == 2

        resumed = orchestrator.resume()
        assert resumed.complete
        assert set(resumed.skipped) == set(interrupted.executed)
        assert set(resumed.executed).isdisjoint(interrupted.executed)
        assert len(resumed.executed) == definition_points(definition) - 2

        # Query the store on operation fields and read the typed records back.
        results = query_results(
            orchestrator.store, where={"operation.staleness_hours": 1}
        )
        assert len(results) == definition_points(definition)
        for result in results:
            records = OperationResult.from_scenario(result).records
            assert len(records) == 1
            assert records[0].cost_increase_percent >= 0.0

    def test_fig10_suite_is_a_single_operation_point(self):
        suite = scenario_suite("fig10")
        assert len(suite) == 1
        assert suite[0].operation is not None
        assert suite[0].n_trials == 24
        # fig11 reads off the same simulated day.
        assert scenario_suite("fig11")[0].content_hash() == suite[0].content_hash()


def definition_points(definition) -> int:
    return len(definition.points)
