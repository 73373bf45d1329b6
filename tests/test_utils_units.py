"""Tests for repro.utils.units."""

from __future__ import annotations

import pytest

from repro.utils.units import DEFAULT_BASE_MVA


class TestPerUnitBase:
    def test_default_base(self):
        assert DEFAULT_BASE_MVA == pytest.approx(100.0)
