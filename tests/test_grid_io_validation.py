"""Tests for repro.grid.validation."""

from __future__ import annotations

from repro.grid.cases import case14
from repro.grid.validation import validate_for_operation


class TestOperationalValidation:
    def test_ieee_cases_pass(self, net4, net14, net30):
        for net in (net4, net14, net30):
            report = validate_for_operation(net)
            assert report.ok, report.summary()

    def test_insufficient_capacity_flagged(self, net14):
        overloaded = net14.with_scaled_loads(10.0)
        report = validate_for_operation(overloaded)
        assert not report.ok
        assert any("capacity" in err for err in report.errors)

    def test_no_dfacts_warns(self):
        net = case14(dfacts_branches=())
        report = validate_for_operation(net)
        assert report.ok
        assert any("D-FACTS" in warning for warning in report.warnings)

    def test_summary_contains_status(self, net14):
        assert "passed" in validate_for_operation(net14).summary()

    def test_tight_capacity_margin_warns(self):
        # Scale loads so that capacity margin is below 5 % but still adequate.
        net = case14()
        capacity = net.total_generation_capacity_mw()
        net = net.with_scaled_loads(0.97 * capacity / net.total_load_mw())
        report = validate_for_operation(net)
        assert any("margin" in warning for warning in report.warnings)
