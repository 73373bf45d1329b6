"""Tests for repro.utils.rng."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import as_generator, spawn_generators


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


class TestSpawnGenerators:
    def test_count_matches(self):
        children = spawn_generators(0, 5)
        assert len(children) == 5

    def test_children_are_independent_streams(self):
        children = spawn_generators(0, 2)
        a = children[0].standard_normal(20)
        b = children[1].standard_normal(20)
        assert not np.allclose(a, b)

    def test_deterministic_given_seed(self):
        a = spawn_generators(3, 3)[1].standard_normal(5)
        b = spawn_generators(3, 3)[1].standard_normal(5)
        np.testing.assert_allclose(a, b)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)

    def test_generator_seed_supported(self):
        children = spawn_generators(np.random.default_rng(5), 2)
        assert len(children) == 2


class TestSpawnGeneratorsStateless:
    """Regression tests: spawning must never consume the caller's stream."""

    def test_generator_input_not_mutated(self):
        gen = np.random.default_rng(5)
        before = gen.bit_generator.state
        spawn_generators(gen, 4)
        assert gen.bit_generator.state == before

    def test_repeated_calls_with_same_generator_agree(self):
        gen = np.random.default_rng(7)
        first = spawn_generators(gen, 3)
        second = spawn_generators(gen, 3)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.standard_normal(8), b.standard_normal(8))

    def test_generator_and_equal_seed_agree(self):
        """A generator-seeded spawn matches the spawn of its own seed."""
        a = spawn_generators(np.random.default_rng(11), 2)
        b = spawn_generators(np.random.default_rng(11), 2)
        np.testing.assert_array_equal(a[1].standard_normal(4), b[1].standard_normal(4))

    def test_integer_path_unchanged(self):
        """Integer/SeedSequence seeds keep their historical children."""
        children = spawn_generators(3, 3)
        reference = [
            np.random.Generator(np.random.PCG64(child))
            for child in np.random.SeedSequence(3).spawn(3)
        ]
        for ours, ref in zip(children, reference):
            np.testing.assert_array_equal(ours.standard_normal(6), ref.standard_normal(6))

    def test_seed_sequence_not_advanced(self):
        seq = np.random.SeedSequence(9)
        spawn_generators(seq, 3)
        assert seq.n_children_spawned == 0

    def test_no_collision_with_previously_spawned_children(self):
        """Children never repeat streams the caller already spawned: the
        spawn counter is read (as the key offset) without being advanced."""
        seq = np.random.SeedSequence(13)
        own = [np.random.Generator(np.random.PCG64(c)) for c in seq.spawn(2)]
        ours = spawn_generators(seq, 2)
        own_draws = [g.standard_normal(6) for g in own]
        for child in ours:
            draws = child.standard_normal(6)
            assert all(not np.allclose(draws, prior) for prior in own_draws)
