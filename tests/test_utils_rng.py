"""Tests for repro.utils.rng."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_generator


class TestAsGenerator:
    def test_none_returns_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = as_generator(42).integers(0, 1_000_000, size=5)
        b = as_generator(42).integers(0, 1_000_000, size=5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = as_generator(1).integers(0, 1_000_000, size=10)
        b = as_generator(2).integers(0, 1_000_000, size=10)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(7)
        gen = as_generator(seq)
        assert isinstance(gen, np.random.Generator)
