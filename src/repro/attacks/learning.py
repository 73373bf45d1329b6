"""Attacker-side learning of the measurement subspace.

The paper's threat model (Section IV-A) assumes the attacker has learned the
measurement matrix from eavesdropped measurements — citing the subspace
methods of Kim, Tong and Thomas — and argues that the MTD stays ahead of the
attacker because re-learning after each perturbation takes hundreds of
measurement snapshots.  This module implements that learning step so the
claim can be studied quantitatively:

* :class:`SubspaceLearner` estimates ``Col(H)`` from noisy measurement
  snapshots by principal component analysis (the attacker does not need the
  matrix itself: any basis of its column space suffices to craft stealthy
  attacks ``a = B̂ w``).
* :func:`learned_attack` builds an attack from the learned basis.
* :func:`knowledge_decay_curve` measures, as a function of the number of
  snapshots collected after an MTD perturbation, how stealthy the attacker's
  re-learned attacks become — quantifying how frequently the defender must
  re-perturb.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.estimation.bdd import BadDataDetector
from repro.estimation.measurement import MeasurementSystem
from repro.exceptions import AttackConstructionError
from repro.mtd.subspace import subspace_angle
from repro.utils.linalg import orthonormal_basis
from repro.utils.rng import as_generator


@dataclass(frozen=True)
class LearnedSubspace:
    """Outcome of the attacker's subspace-estimation step.

    Attributes
    ----------
    basis:
        ``M x k`` orthonormal basis of the estimated measurement subspace.
    n_snapshots:
        Number of measurement snapshots used.
    singular_values:
        Singular values of the (centred) snapshot matrix, useful for
        diagnosing how well separated signal and noise are.
    alignment_with:
        Subspace angle (radians) between the learned basis and the true
        column space it was compared against, when provided at construction.
    """

    basis: np.ndarray
    n_snapshots: int
    singular_values: np.ndarray
    alignment_with: float | None = None


class SubspaceLearner:
    """Estimate the measurement-matrix column space from snapshots.

    Parameters
    ----------
    n_states:
        Dimension of the state (``N − 1``); the learner keeps this many
        principal directions, as the attacker knows the grid's size.
    """

    def __init__(self, n_states: int) -> None:
        if n_states <= 0:
            raise AttackConstructionError(f"n_states must be positive, got {n_states}")
        self._n_states = int(n_states)

    def learn(
        self,
        snapshots: np.ndarray,
        true_matrix: np.ndarray | None = None,
    ) -> LearnedSubspace:
        """Estimate the subspace from a ``n_snapshots x M`` snapshot array."""
        Z = np.asarray(snapshots, dtype=float)
        if Z.ndim != 2:
            raise AttackConstructionError(
                f"snapshots must be a 2-D array, got shape {Z.shape}"
            )
        if Z.shape[0] < self._n_states:
            raise AttackConstructionError(
                f"at least {self._n_states} snapshots are needed, got {Z.shape[0]}"
            )
        # Principal component analysis of the raw snapshots: the measurement
        # vectors live (up to noise) in Col(H), which the leading right
        # singular vectors of the snapshot matrix estimate.
        _, singular_values, vt = np.linalg.svd(Z, full_matrices=False)
        basis = orthonormal_basis(vt[: self._n_states].T)
        alignment = None
        if true_matrix is not None:
            alignment = subspace_angle(np.asarray(true_matrix, dtype=float), basis)
        return LearnedSubspace(
            basis=basis,
            n_snapshots=int(Z.shape[0]),
            singular_values=singular_values,
            alignment_with=alignment,
        )

    def collect_and_learn(
        self,
        system: MeasurementSystem,
        operating_angles_rad: np.ndarray,
        n_snapshots: int,
        angle_jitter: float = 0.02,
        rng: int | np.random.Generator | None = None,
        true_matrix: np.ndarray | None = None,
    ) -> LearnedSubspace:
        """Eavesdrop ``n_snapshots`` noisy measurements and learn from them.

        ``angle_jitter`` adds small random variations around the operating
        point, modelling the load fluctuations that give the attacker the
        state diversity needed for the subspace to be identifiable.
        """
        rng = as_generator(rng)
        angles = np.asarray(operating_angles_rad, dtype=float)
        snapshots = np.empty((n_snapshots, system.n_measurements))
        for k in range(n_snapshots):
            jitter = angle_jitter * rng.standard_normal(angles.shape[0])
            jitter[system.network.slack_bus] = 0.0
            snapshots[k] = system.measure(angles + jitter, rng=rng)
        return self.learn(snapshots, true_matrix=true_matrix)


def learned_attack(
    learned: LearnedSubspace,
    weights: np.ndarray,
) -> np.ndarray:
    """Build a (hopefully stealthy) attack from a learned subspace basis."""
    w = np.asarray(weights, dtype=float).ravel()
    if w.shape[0] != learned.basis.shape[1]:
        raise AttackConstructionError(
            f"expected {learned.basis.shape[1]} weights, got {w.shape[0]}"
        )
    return learned.basis @ w


def knowledge_decay_curve(
    system: MeasurementSystem,
    operating_angles_rad: np.ndarray,
    snapshot_counts: list[int] | np.ndarray,
    false_positive_rate: float = 5e-4,
    attack_scale: float = 0.3,
    n_attacks: int = 50,
    angle_jitter: float = 0.01,
    seed: int | np.random.Generator | None = 0,
) -> list[dict[str, float]]:
    """How quickly does the attacker re-learn a perturbed system?

    For each snapshot budget the attacker re-estimates the measurement
    subspace of the (post-MTD) ``system`` and crafts random attacks from it;
    the mean BDD detection probability of those attacks is reported.  A high
    detection probability means the attacker's knowledge is still inadequate
    — the quantity that determines how often the defender must re-perturb.

    ``attack_scale`` is the Euclidean norm of the crafted attacks (0.3 p.u. by
    default, comparable to the ensemble attacks used elsewhere); larger
    attacks are less forgiving of subspace-estimation errors, so the curve
    decays more slowly for ambitious attackers.

    Returns a list of dictionaries with keys ``n_snapshots``,
    ``subspace_error`` (radians) and ``mean_detection_probability``.
    """
    rng = as_generator(seed)
    learner = SubspaceLearner(system.n_states)
    detector = BadDataDetector(system, false_positive_rate=false_positive_rate)
    true_matrix = system.matrix()
    curve = []
    for count in snapshot_counts:
        learned = learner.collect_and_learn(
            system,
            operating_angles_rad,
            n_snapshots=int(count),
            angle_jitter=angle_jitter,
            rng=rng,
            true_matrix=true_matrix,
        )
        # One (n_attacks, dim) draw consumes the stream as n_attacks draws of
        # dim weights would.
        weights = rng.standard_normal((n_attacks, learned.basis.shape[1]))
        attacks = weights @ learned.basis.T
        norms = np.linalg.norm(attacks, axis=1)
        scales = np.divide(attack_scale, norms, out=np.ones_like(norms), where=norms > 0)
        probabilities = detector.detection_probabilities(attacks * scales[:, None])
        curve.append(
            {
                "n_snapshots": float(count),
                "subspace_error": float(learned.alignment_with or 0.0),
                "mean_detection_probability": float(np.mean(probabilities)),
            }
        )
    return curve


__all__ = [
    "SubspaceLearner",
    "LearnedSubspace",
    "learned_attack",
    "knowledge_decay_curve",
]
