"""Tests for reactance perturbations and the Proposition 1 / Theorem 1 conditions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.fdi import stealthy_attack
from repro.exceptions import MTDDesignError
from repro.grid.matrices import reduced_measurement_matrix
from repro.mtd.conditions import (
    admits_no_undetectable_attacks,
    attack_remains_stealthy,
    surviving_attack_fraction,
    undetectable_attack_subspace,
)
from repro.mtd.perturbation import ReactancePerturbation


class TestReactancePerturbation:
    def test_identity_perturbation(self, net14):
        perturbation = ReactancePerturbation.identity(net14)
        np.testing.assert_allclose(perturbation.delta, np.zeros(20))
        assert perturbation.perturbed_branches == ()
        assert perturbation.magnitude() == pytest.approx(0.0)
        assert perturbation.respects_dfacts_limits()

    def test_single_line_perturbation(self, net4):
        perturbation = ReactancePerturbation.single_line(net4, 0, 0.2)
        assert perturbation.perturbed_branches == (0,)
        assert perturbation.relative_changes()[0] == pytest.approx(0.2)
        np.testing.assert_allclose(perturbation.relative_changes()[1:], np.zeros(3))

    def test_single_line_invalid_index(self, net4):
        with pytest.raises(MTDDesignError):
            ReactancePerturbation.single_line(net4, 9, 0.2)

    def test_single_line_negative_reactance_rejected(self, net4):
        with pytest.raises(MTDDesignError):
            ReactancePerturbation.single_line(net4, 0, -1.5)

    def test_delta_sign_convention(self, net4):
        """The paper defines Δx = x − x', so increasing a reactance gives a
        negative delta entry."""
        perturbation = ReactancePerturbation.single_line(net4, 1, 0.2)
        assert perturbation.delta[1] < 0.0

    def test_random_perturbation_respects_limits(self, net14):
        perturbation = ReactancePerturbation.random(net14, max_relative_change=0.3, seed=0)
        assert perturbation.respects_dfacts_limits()
        assert set(perturbation.perturbed_branches).issubset(set(net14.dfacts_branches))

    def test_random_perturbation_deterministic(self, net14):
        a = ReactancePerturbation.random(net14, 0.2, seed=5)
        b = ReactancePerturbation.random(net14, 0.2, seed=5)
        np.testing.assert_allclose(a.perturbed_reactances, b.perturbed_reactances)

    def test_random_without_dfacts_rejected(self, net14):
        with pytest.raises(MTDDesignError):
            ReactancePerturbation.random(net14, 0.2, branch_indices=[], seed=0)

    def test_out_of_range_perturbation_flagged(self, net14):
        x = net14.reactances()
        index = net14.dfacts_branches[0]
        x[index] *= 2.0  # beyond the +50% D-FACTS limit
        perturbation = ReactancePerturbation.from_perturbed(net14, x)
        assert not perturbation.respects_dfacts_limits()
        with pytest.raises(MTDDesignError):
            perturbation.require_valid()

    def test_non_dfacts_branch_perturbation_flagged(self, net14):
        x = net14.reactances()
        non_dfacts = next(
            i for i in range(net14.n_branches) if i not in net14.dfacts_branches
        )
        x[non_dfacts] *= 1.1
        perturbation = ReactancePerturbation.from_perturbed(net14, x)
        assert not perturbation.respects_dfacts_limits()

    def test_apply_returns_perturbed_network(self, net14):
        x = net14.reactances()
        index = net14.dfacts_branches[0]
        x[index] *= 1.4
        perturbed_net = ReactancePerturbation.from_perturbed(net14, x).apply()
        assert perturbed_net.reactances()[index] == pytest.approx(x[index])
        # Original untouched.
        assert net14.reactances()[index] != pytest.approx(x[index])

    def test_measurement_matrices(self, net14):
        x = net14.reactances()
        index = net14.dfacts_branches[0]
        x[index] *= 1.4
        perturbation = ReactancePerturbation.from_perturbed(net14, x)
        assert not np.allclose(
            reduced_measurement_matrix(net14, perturbation.base_reactances),
            reduced_measurement_matrix(net14, perturbation.perturbed_reactances),
        )

    def test_wrong_vector_length_rejected(self, net14):
        with pytest.raises(MTDDesignError):
            ReactancePerturbation.from_perturbed(net14, np.ones(3))

    def test_non_positive_reactance_rejected(self, net14):
        x = net14.reactances()
        x[0] = -0.1
        with pytest.raises(MTDDesignError):
            ReactancePerturbation.from_perturbed(net14, x)


class TestProposition1:
    def test_attack_stealthy_under_identical_matrix(self, net14, rng):
        H = reduced_measurement_matrix(net14)
        attack = stealthy_attack(H, rng.standard_normal(13))
        assert attack_remains_stealthy(attack, H)

    def test_attack_detected_under_perturbed_matrix(self, net14, rng):
        H = reduced_measurement_matrix(net14)
        attack = stealthy_attack(H, rng.standard_normal(13))
        x = net14.reactances()
        for index in net14.dfacts_branches:
            x[index] *= 1.5
        H_perturbed = reduced_measurement_matrix(net14, x)
        assert not attack_remains_stealthy(attack, H_perturbed)

    def test_motivating_example_pattern(self, net4):
        """Table I's zero/non-zero pattern: attack 1 stays stealthy when line
        3 or 4 is perturbed, attack 2 when line 1 or 2 is perturbed."""
        H = reduced_measurement_matrix(net4)
        attack_1 = stealthy_attack(H, np.array([1.0, 1.0, 1.0]))
        attack_2 = stealthy_attack(H, np.array([0.0, 0.0, 1.0]))
        stealthy = {}
        for line in range(4):
            perturbation = ReactancePerturbation.single_line(net4, line, 0.2)
            H_post = reduced_measurement_matrix(net4, perturbation.perturbed_reactances)
            stealthy[line] = (
                attack_remains_stealthy(attack_1, H_post),
                attack_remains_stealthy(attack_2, H_post),
            )
        assert stealthy[0] == (False, True)
        assert stealthy[1] == (False, True)
        assert stealthy[2] == (True, False)
        assert stealthy[3] == (True, False)

    def test_attacks_in_intersection_stay_stealthy(self, net14, rng):
        """Any attack built from the intersection basis must bypass both
        systems — the constructive version of Proposition 1."""
        H = reduced_measurement_matrix(net14)
        x = net14.reactances()
        for index in net14.dfacts_branches:
            x[index] *= 1.5
        H_perturbed = reduced_measurement_matrix(net14, x)
        basis = undetectable_attack_subspace(H, H_perturbed)
        assert basis.shape[1] >= 1
        attack = basis @ rng.standard_normal(basis.shape[1])
        assert attack_remains_stealthy(attack, H_perturbed, tol=1e-6)
        assert attack_remains_stealthy(attack, H, tol=1e-6)


class TestTheorem1:
    def test_orthogonal_spaces_admit_no_stealthy_attacks(self):
        pre = np.eye(8)[:, :3]
        post = np.eye(8)[:, 3:6]
        assert admits_no_undetectable_attacks(pre, post, require_orthogonality=True)
        assert admits_no_undetectable_attacks(pre, post)
        assert undetectable_attack_subspace(pre, post).shape[1] == 0

    def test_identical_spaces_admit_all_attacks(self, net14):
        H = reduced_measurement_matrix(net14)
        assert not admits_no_undetectable_attacks(H, H)
        assert surviving_attack_fraction(H, H) == pytest.approx(1.0)

    def test_partial_dfacts_coverage_leaves_survivors(self, net14):
        """The realisable perturbations of the 14-bus case cannot eliminate
        every stealthy attack — which is exactly why the paper's η'(δ)
        saturates below 1."""
        H = reduced_measurement_matrix(net14)
        x = net14.reactances()
        for index in net14.dfacts_branches:
            x[index] *= 1.5
        H_perturbed = reduced_measurement_matrix(net14, x)
        assert not admits_no_undetectable_attacks(H, H_perturbed)
        fraction = surviving_attack_fraction(H, H_perturbed)
        assert 0.0 < fraction < 1.0

    def test_surviving_fraction_of_orthogonal_spaces_is_zero(self):
        pre = np.eye(10)[:, :4]
        post = np.eye(10)[:, 4:8]
        assert surviving_attack_fraction(pre, post) == pytest.approx(0.0)
