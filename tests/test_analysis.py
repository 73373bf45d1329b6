"""Tests for the analysis helpers (metrics, reporting, Monte-Carlo summaries)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.metrics import monotonicity_fraction, rank_correlation
from repro.analysis.montecarlo import summarize_values
from repro.analysis.reporting import format_series, format_table


class TestMetrics:
    def test_rank_correlation_perfect(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert rank_correlation(x, 2 * x) == pytest.approx(1.0)
        assert rank_correlation(x, -x) == pytest.approx(-1.0)

    def test_rank_correlation_length_mismatch(self):
        with pytest.raises(ValueError):
            rank_correlation(np.ones(3), np.ones(4))

    def test_rank_correlation_short_series_nan(self):
        assert np.isnan(rank_correlation(np.array([1.0]), np.array([2.0])))

    def test_monotonicity_fraction(self):
        assert monotonicity_fraction(np.array([1.0, 2.0, 3.0])) == pytest.approx(1.0)
        assert monotonicity_fraction(np.array([3.0, 2.0, 1.0])) == pytest.approx(0.0)
        assert monotonicity_fraction(np.array([1.0, 2.0, 1.5, 3.0])) == pytest.approx(2.0 / 3.0)
        assert monotonicity_fraction(np.array([1.0])) == pytest.approx(1.0)


class TestReporting:
    def test_table_contains_headers_and_rows(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", 3]], title="demo")
        assert "demo" in text
        assert "| a" in text
        assert "2.5" in text
        assert "x" in text

    def test_table_bool_rendering(self):
        text = format_table(["flag"], [[True], [False]])
        assert "yes" in text
        assert "no" in text

    def test_series_rendering(self):
        text = format_series("curve", "gamma", "eta", [0.1, 0.2], [0.5, 0.9])
        assert "curve" in text
        assert "gamma" in text
        assert "0.9" in text

    def test_table_alignment_width(self):
        text = format_table(["col"], [["a-very-long-cell-value"]])
        header_line = text.splitlines()[0]
        row_line = text.splitlines()[2]
        assert len(header_line) == len(row_line)


class TestMonteCarlo:
    """:func:`summarize_values`, the aggregation of per-trial outcomes."""

    def test_constant_experiment(self):
        summary = summarize_values(np.full(10, 2.0))
        assert summary.mean == pytest.approx(2.0)
        assert summary.std == pytest.approx(0.0)
        assert summary.n_trials == 10
        low, high = summary.confidence_interval()
        assert low == pytest.approx(2.0)
        assert high == pytest.approx(2.0)

    def test_mean_estimate_converges(self):
        values = np.random.default_rng(1).normal(5.0, 1.0, size=400)
        summary = summarize_values(values)
        assert summary.mean == pytest.approx(5.0, abs=0.2)
        assert summary.confidence_halfwidth == pytest.approx(
            1.96 * np.std(values, ddof=1) / np.sqrt(400)
        )
        assert summary.confidence_halfwidth < 0.2

    def test_invalid_trial_count(self):
        with pytest.raises(ValueError):
            summarize_values([])

    def test_single_trial_has_zero_spread(self):
        summary = summarize_values([1.0])
        assert summary.std == pytest.approx(0.0)
        assert summary.confidence_halfwidth == pytest.approx(0.0)
