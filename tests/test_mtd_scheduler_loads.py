"""Tests for the load profiles and for the properties of hourly MTD
operation (Figs. 10-11) run through the time-series operation engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.loads.profiles import nyiso_like_winter_day, scale_profile_to_band
from repro.timeseries import (
    OperationEngine,
    ProfileSpec,
    TuningSpec,
    daily_operation_spec,
)
from repro.timeseries.engine import _build_hours


def explicit_profile(*totals_mw: float) -> ProfileSpec:
    """A profile operating exactly the given hourly totals (MW)."""
    return ProfileSpec(
        explicit_totals_mw=totals_mw, peak_load_mw=None, min_load_mw=None
    )


class TestLoadProfiles:
    def test_profile_has_24_hours(self):
        profile = nyiso_like_winter_day()
        assert profile.shape == (24,)

    def test_band_respected(self):
        profile = nyiso_like_winter_day(peak_load_mw=220.0, min_load_mw=143.0)
        assert profile.max() == pytest.approx(220.0)
        assert profile.min() == pytest.approx(143.0)

    def test_evening_peak(self):
        """The peak must fall in the evening (hour index 17 = 6 PM)."""
        profile = nyiso_like_winter_day()
        assert int(np.argmax(profile)) == 17

    def test_overnight_trough(self):
        profile = nyiso_like_winter_day()
        assert int(np.argmin(profile)) in (1, 2, 3, 4)

    def test_invalid_band_rejected(self):
        with pytest.raises(ConfigurationError):
            nyiso_like_winter_day(peak_load_mw=100.0, min_load_mw=150.0)
        with pytest.raises(ConfigurationError):
            nyiso_like_winter_day(peak_load_mw=-1.0)

    def test_scale_profile_to_band(self):
        scaled = scale_profile_to_band(np.array([1.0, 2.0, 3.0]), 10.0, 30.0)
        np.testing.assert_allclose(scaled, [10.0, 20.0, 30.0])

    def test_scale_constant_profile(self):
        scaled = scale_profile_to_band(np.array([2.0, 2.0]), 10.0, 30.0)
        np.testing.assert_allclose(scaled, [20.0, 20.0])

    def test_scale_empty_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            scale_profile_to_band(np.array([]), 0.0, 1.0)

    def test_hourly_loads_keep_proportions(self, net14):
        """The operation engine scales each hour's total onto the nominal
        per-bus loads."""
        totals = (150.0, 200.0)
        spec = daily_operation_spec(
            case="ieee14",
            profile=explicit_profile(*totals),
            cost_baseline="dispatch-only",
            n_attacks=8,
        )
        hours = _build_hours(net14, spec.grid.baseline, spec.operation, spec.base_seed)
        assert len(hours) == 2
        for hour, total in zip(hours, totals):
            assert hour.loads.sum() == pytest.approx(total)
            # Proportions match the nominal distribution.
            nominal = net14.loads_mw()
            mask = nominal > 0
            np.testing.assert_allclose(
                hour.loads[mask] / nominal[mask],
                np.full(mask.sum(), total / nominal.sum()),
            )

    def test_hourly_loads_default_profile(self):
        """The default profile is one NYISO-like winter weekday."""
        totals = ProfileSpec().totals_mw()
        assert totals.shape == (24,)
        np.testing.assert_array_equal(totals, nyiso_like_winter_day())


class TestDailyScheduler:
    @pytest.fixture(scope="class")
    def short_run(self):
        """A three-hour run shared by the assertions below.  Consecutive
        hourly loads differ by a few percent, as in a real trace, so the
        temporal-correlation property of Fig. 11 applies."""
        spec = daily_operation_spec(
            case="ieee14",
            profile=explicit_profile(205.0, 212.0, 220.0),
            tuning=TuningSpec(method="scan", gamma_grid=(0.05, 0.15, 0.25, 0.35)),
            n_attacks=80,
            seed=0,
        )
        return OperationEngine().run(spec, use_cache=False)

    def test_one_record_per_hour(self, short_run):
        assert len(short_run) == 3
        assert [r.hour for r in short_run] == [0, 1, 2]

    def test_loads_recorded(self, short_run):
        np.testing.assert_allclose(short_run.loads(), [205.0, 212.0, 220.0])

    def test_costs_non_negative(self, short_run):
        assert np.all(short_run.cost_increases_percent() >= 0.0)

    def test_peak_hour_is_most_expensive(self, short_run):
        """Fig. 10's observation: the MTD premium grows with load."""
        costs = short_run.cost_increases_percent()
        assert costs[2] >= costs[0]
        assert short_run.peak_cost_hour() == 2 or costs[2] == pytest.approx(costs.max())

    def test_design_angle_meets_tuned_threshold(self, short_run):
        for record in short_run:
            assert record.spa_attacker_vs_mtd >= record.gamma_threshold - 1e-6

    def test_spa_series_keys(self, short_run):
        series = short_run.spa_series()
        assert set(series) == {
            "gamma(Ht, Ht')",
            "gamma(Ht, H't')",
            "gamma(Ht', H't')",
        }
        for values in series.values():
            assert values.shape == (3,)

    def test_baseline_matrices_stay_close(self, short_run):
        """γ(Ht, Ht') must remain small and below the designed γ(Ht, H't') —
        the temporal-correlation observation of Fig. 11."""
        series = short_run.spa_series()
        assert np.all(series["gamma(Ht, Ht')"] <= 0.1 + 1e-9)
        assert np.all(
            series["gamma(Ht, Ht')"] <= series["gamma(Ht, H't')"] + 1e-9
        )

    def test_effectiveness_reported(self, short_run):
        for record in short_run:
            assert 0.0 <= record.achieved_eta <= 1.0

    def test_invalid_baseline_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            daily_operation_spec(
                profile=explicit_profile(150.0), cost_baseline="bogus"
            )

    def test_dispatch_only_baseline_runs(self):
        spec = daily_operation_spec(
            profile=explicit_profile(180.0),
            tuning=TuningSpec(method="scan", gamma_grid=(0.1, 0.2)),
            n_attacks=40,
            cost_baseline="dispatch-only",
            seed=1,
        )
        result = OperationEngine().run(spec, use_cache=False)
        assert len(result) == 1
        assert result.records[0].cost_increase_percent >= 0.0
