"""Tests for the FDI-attack subpackage."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.fdi import stealthy_attack, targeted_state_attack
from repro.attacks.generator import generate_attack_ensemble
from repro.attacks.impact import estimate_attack_cost_impact, falsified_loads_from_state_bias
from repro.attacks.scaling import (
    attack_measurement_ratio,
    scale_attack_to_measurement_ratio,
)
from repro.estimation.bdd import BadDataDetector
from repro.exceptions import AttackConstructionError


class TestStealthyAttack:
    def test_attack_is_hc(self, measurement14, rng):
        H = measurement14.matrix()
        c = rng.standard_normal(13)
        np.testing.assert_allclose(stealthy_attack(H, c), H @ c)

    def test_attack_bypasses_matching_bdd(self, measurement14, rng):
        """a = Hc keeps detection probability at the FP rate on the
        unperturbed system — the Liu-Ning-Reiter result."""
        detector = BadDataDetector(measurement14)
        attack = stealthy_attack(measurement14.matrix(), rng.standard_normal(13))
        assert detector.detection_probability(attack) == pytest.approx(
            detector.false_positive_rate
        )

    def test_wrong_bias_length_rejected(self, measurement14):
        with pytest.raises(AttackConstructionError):
            stealthy_attack(measurement14.matrix(), np.ones(4))

    def test_non_matrix_rejected(self):
        with pytest.raises(AttackConstructionError):
            stealthy_attack(np.ones(5), np.ones(5))

    def test_targeted_attack_hits_requested_states(self, measurement14):
        H = measurement14.matrix()
        attack = targeted_state_attack(H, {2: 0.1, 5: -0.05})
        expected_c = np.zeros(13)
        expected_c[2] = 0.1
        expected_c[5] = -0.05
        np.testing.assert_allclose(attack, H @ expected_c)

    def test_targeted_attack_invalid_index(self, measurement14):
        with pytest.raises(AttackConstructionError):
            targeted_state_attack(measurement14.matrix(), {99: 0.1})

    def test_targeted_attack_all_zero_rejected(self, measurement14):
        with pytest.raises(AttackConstructionError):
            targeted_state_attack(measurement14.matrix(), {2: 0.0})


class TestScaling:
    def test_scaling_achieves_target_ratio(self, opf14, measurement14, rng):
        z = measurement14.noiseless_measurements(opf14.angles_rad)
        attack = measurement14.matrix() @ rng.standard_normal(13)
        scaled = scale_attack_to_measurement_ratio(attack, z, target_ratio=0.08)
        assert attack_measurement_ratio(scaled, z) == pytest.approx(0.08)

    def test_scaling_preserves_direction(self, opf14, measurement14, rng):
        z = measurement14.noiseless_measurements(opf14.angles_rad)
        attack = measurement14.matrix() @ rng.standard_normal(13)
        scaled = scale_attack_to_measurement_ratio(attack, z, target_ratio=0.05)
        cosine = np.dot(scaled, attack) / (np.linalg.norm(scaled) * np.linalg.norm(attack))
        assert cosine == pytest.approx(1.0)

    def test_zero_attack_rejected(self, opf14, measurement14):
        z = measurement14.noiseless_measurements(opf14.angles_rad)
        with pytest.raises(AttackConstructionError):
            scale_attack_to_measurement_ratio(np.zeros(54), z)

    def test_invalid_ratio_rejected(self, opf14, measurement14, rng):
        z = measurement14.noiseless_measurements(opf14.angles_rad)
        attack = measurement14.matrix() @ rng.standard_normal(13)
        with pytest.raises(AttackConstructionError):
            scale_attack_to_measurement_ratio(attack, z, target_ratio=-0.1)

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(AttackConstructionError):
            scale_attack_to_measurement_ratio(rng.standard_normal(5), rng.standard_normal(6))

    def test_stack_scales_each_row_like_a_vector(self, opf14, measurement14, rng):
        z = measurement14.noiseless_measurements(opf14.angles_rad)
        stack = rng.standard_normal((6, 13)) @ measurement14.matrix().T
        scaled = scale_attack_to_measurement_ratio(stack, z, target_ratio=0.07)
        assert scaled.shape == stack.shape
        for row, attack in zip(scaled, stack):
            assert np.array_equal(row, scale_attack_to_measurement_ratio(attack, z, 0.07))

    def test_stack_with_a_zero_row_rejected(self, opf14, measurement14, rng):
        z = measurement14.noiseless_measurements(opf14.angles_rad)
        stack = rng.standard_normal((4, 54))
        stack[2] = 0.0
        with pytest.raises(AttackConstructionError, match="all-zero"):
            scale_attack_to_measurement_ratio(stack, z)


class TestEnsemble:
    def test_ensemble_size_and_shapes(self, opf14, measurement14):
        z = measurement14.noiseless_measurements(opf14.angles_rad)
        ensemble = generate_attack_ensemble(measurement14.matrix(), z, n_attacks=50, seed=0)
        assert len(ensemble) == 50
        assert ensemble.attacks.shape == (50, 54)
        assert ensemble.state_biases.shape == (50, 13)

    def test_every_attack_has_target_ratio(self, opf14, measurement14):
        z = measurement14.noiseless_measurements(opf14.angles_rad)
        ensemble = generate_attack_ensemble(
            measurement14.matrix(), z, n_attacks=30, target_ratio=0.08, seed=1
        )
        for attack in ensemble:
            assert attack_measurement_ratio(attack, z) == pytest.approx(0.08)

    def test_attacks_consistent_with_biases(self, opf14, measurement14):
        z = measurement14.noiseless_measurements(opf14.angles_rad)
        ensemble = generate_attack_ensemble(measurement14.matrix(), z, n_attacks=10, seed=2)
        np.testing.assert_allclose(
            ensemble.attacks, ensemble.state_biases @ measurement14.matrix().T, atol=1e-9
        )

    def test_deterministic_given_seed(self, opf14, measurement14):
        z = measurement14.noiseless_measurements(opf14.angles_rad)
        a = generate_attack_ensemble(measurement14.matrix(), z, n_attacks=5, seed=3)
        b = generate_attack_ensemble(measurement14.matrix(), z, n_attacks=5, seed=3)
        np.testing.assert_allclose(a.attacks, b.attacks)

    def test_subset(self, opf14, measurement14):
        z = measurement14.noiseless_measurements(opf14.angles_rad)
        ensemble = generate_attack_ensemble(measurement14.matrix(), z, n_attacks=10, seed=4)
        subset = ensemble.subset([0, 3, 7])
        assert len(subset) == 3
        np.testing.assert_allclose(subset.attacks[1], ensemble.attacks[3])

    def test_invalid_count_rejected(self, opf14, measurement14):
        z = measurement14.noiseless_measurements(opf14.angles_rad)
        with pytest.raises(AttackConstructionError):
            generate_attack_ensemble(measurement14.matrix(), z, n_attacks=0)

    def test_matches_per_row_reference(self, opf14, measurement14):
        """One block draw and one product equal the per-attack loop."""
        H = measurement14.matrix()
        z = measurement14.noiseless_measurements(opf14.angles_rad)
        rng = np.random.default_rng(21)
        ensemble = generate_attack_ensemble(H, z, n_attacks=40, target_ratio=0.08, seed=rng)
        reference = np.random.default_rng(21)
        biases, attacks = [], []
        for _ in range(40):
            c = reference.standard_normal(13)
            raw = stealthy_attack(H, c)
            scaled = scale_attack_to_measurement_ratio(raw, z, 0.08)
            biases.append(c * (np.sum(np.abs(scaled)) / np.sum(np.abs(raw))))
            attacks.append(scaled)
        assert rng.bit_generator.state == reference.bit_generator.state
        # Relative to each row: gemm and gemv round entries that cancel
        # to near zero differently.
        for got, expected in ((ensemble.attacks, attacks), (ensemble.state_biases, biases)):
            expected = np.array(expected)
            gap = np.linalg.norm(got - expected, axis=1) / np.linalg.norm(expected, axis=1)
            assert gap.max() <= 1e-14

    def test_scaling_checks_raise(self, opf14, measurement14):
        H = measurement14.matrix()
        z = measurement14.noiseless_measurements(opf14.angles_rad)
        with pytest.raises(AttackConstructionError, match="target_ratio"):
            generate_attack_ensemble(H, z, n_attacks=3, target_ratio=0.0)
        with pytest.raises(AttackConstructionError, match="zero L1 norm"):
            generate_attack_ensemble(H, np.zeros_like(z), n_attacks=3)
        with pytest.raises(AttackConstructionError, match="all-zero"):
            generate_attack_ensemble(np.zeros_like(H), z, n_attacks=3)


class TestImpact:
    def test_falsified_loads_preserve_total(self, net14, rng):
        bias = 0.05 * rng.standard_normal(13)
        falsified = falsified_loads_from_state_bias(net14, bias)
        assert falsified.sum() == pytest.approx(net14.total_load_mw(), rel=1e-6)
        assert np.all(falsified >= 0.0)

    def test_zero_bias_changes_nothing(self, net14):
        impact = estimate_attack_cost_impact(net14, np.zeros(13))
        assert impact.relative_increase == pytest.approx(0.0, abs=1e-9)
        assert impact.feasible

    def test_significant_bias_increases_cost(self, net14):
        """A load-redistribution attack on the congested 14-bus system makes
        the realised dispatch more expensive."""
        bias = np.zeros(13)
        bias[1] = 0.01   # bus 3 (largest load) region
        bias[2] = -0.01  # bus 4 region
        impact = estimate_attack_cost_impact(net14, bias)
        assert impact.feasible
        assert impact.attacked_cost >= impact.baseline_cost - 1e-6
        assert impact.relative_increase >= 0.0

    def test_wrong_bias_length_rejected(self, net14):
        with pytest.raises(AttackConstructionError):
            falsified_loads_from_state_bias(net14, np.zeros(4))
