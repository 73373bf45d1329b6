"""Tests for the attacker subspace-learning extension (repro.attacks.learning)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.learning import (
    SubspaceLearner,
    knowledge_decay_curve,
    learned_attack,
)
from repro.estimation.bdd import BadDataDetector
from repro.exceptions import AttackConstructionError


class TestSubspaceLearner:
    def test_noiseless_snapshots_recover_subspace_exactly(self, net14, opf14, measurement14, rng):
        """With enough noise-free snapshots the learned basis spans Col(H)."""
        learner = SubspaceLearner(measurement14.n_states)
        H = measurement14.matrix()
        snapshots = np.array(
            [H @ (measurement14.reduce_angles(opf14.angles_rad) + 0.05 * rng.standard_normal(13))
             for _ in range(60)]
        )
        learned = learner.learn(snapshots, true_matrix=H)
        assert learned.alignment_with == pytest.approx(0.0, abs=1e-6)

    def test_noisy_learning_improves_with_more_snapshots(self, net14, opf14, measurement14):
        learner = SubspaceLearner(measurement14.n_states)
        few = learner.collect_and_learn(
            measurement14, opf14.angles_rad, n_snapshots=20, rng=3,
            true_matrix=measurement14.matrix(),
        )
        many = learner.collect_and_learn(
            measurement14, opf14.angles_rad, n_snapshots=400, rng=3,
            true_matrix=measurement14.matrix(),
        )
        assert many.alignment_with <= few.alignment_with + 1e-9
        assert many.n_snapshots == 400

    def test_attacks_from_well_learned_subspace_are_stealthy(self, net14, opf14, measurement14, rng):
        """After enough eavesdropping the attacker bypasses the BDD again —
        the knowledge-decay premise behind the paper's hourly re-perturbation."""
        learner = SubspaceLearner(measurement14.n_states)
        learned = learner.collect_and_learn(
            measurement14, opf14.angles_rad, n_snapshots=800, rng=5
        )
        detector = BadDataDetector(measurement14)
        attack = learned_attack(learned, rng.standard_normal(13))
        attack *= 0.05 / np.linalg.norm(attack)
        assert detector.detection_probability(attack) < 0.1

    def test_too_few_snapshots_rejected(self, measurement14, rng):
        learner = SubspaceLearner(measurement14.n_states)
        with pytest.raises(AttackConstructionError):
            learner.learn(rng.standard_normal((5, measurement14.n_measurements)))

    def test_invalid_state_dimension_rejected(self):
        with pytest.raises(AttackConstructionError):
            SubspaceLearner(0)

    def test_non_matrix_snapshots_rejected(self, measurement14, rng):
        learner = SubspaceLearner(measurement14.n_states)
        with pytest.raises(AttackConstructionError):
            learner.learn(rng.standard_normal(10))

    def test_learned_attack_weight_mismatch(self, net14, opf14, measurement14):
        learner = SubspaceLearner(measurement14.n_states)
        learned = learner.collect_and_learn(
            measurement14, opf14.angles_rad, n_snapshots=30, rng=0
        )
        with pytest.raises(AttackConstructionError):
            learned_attack(learned, np.ones(4))


class TestKnowledgeDecay:
    def test_detection_probability_decreases_with_snapshots(self, net14, opf14, measurement14):
        """The more the attacker eavesdrops after a perturbation, the more
        stealthy their re-crafted attacks become."""
        curve = knowledge_decay_curve(
            measurement14,
            opf14.angles_rad,
            snapshot_counts=[15, 60, 600],
            n_attacks=20,
            seed=1,
        )
        assert len(curve) == 3
        detection = [point["mean_detection_probability"] for point in curve]
        errors = [point["subspace_error"] for point in curve]
        assert detection[0] > detection[-1] + 0.2
        assert errors[0] >= errors[-1]
        assert detection[-1] < 0.5

    def test_batched_budgets_match_the_per_attack_loop(self, opf14, measurement14):
        """Each budget's attacks come from one weight draw and one batch of
        detection probabilities; the curve is the per-attack loop's, which
        drew and priced one attack at a time from the same stream."""
        counts, n_attacks, scale = [15, 60, 600], 20, 0.3
        curve = knowledge_decay_curve(
            measurement14, opf14.angles_rad, snapshot_counts=counts, n_attacks=n_attacks, seed=1
        )
        rng = np.random.default_rng(1)
        learner = SubspaceLearner(measurement14.n_states)
        detector = BadDataDetector(measurement14)
        true_matrix = measurement14.matrix()
        for count, point in zip(counts, curve):
            learned = learner.collect_and_learn(
                measurement14, opf14.angles_rad, n_snapshots=count, angle_jitter=0.01,
                rng=rng, true_matrix=true_matrix,
            )
            probabilities = []
            for _ in range(n_attacks):
                attack = learned_attack(learned, rng.standard_normal(learned.basis.shape[1]))
                attack = attack * (scale / np.linalg.norm(attack))
                probabilities.append(detector.detection_probability(attack))
            assert point["subspace_error"] == learned.alignment_with
            assert point["mean_detection_probability"] == pytest.approx(
                np.mean(probabilities), rel=1e-12, abs=0.0
            )
