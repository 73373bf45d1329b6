"""False data injection (FDI) attacks against state estimation.

Implements the attacker of Section IV-A of the paper: an adversary who has
learned the (pre-perturbation) measurement matrix ``H`` and injects attack
vectors of the form ``a = Hc``, which bypass the bad-data detector of the
unperturbed system with probability no greater than the false-positive rate.
"""

from repro.attacks.fdi import stealthy_attack, targeted_state_attack
from repro.attacks.scaling import scale_attack_to_measurement_ratio
from repro.attacks.generator import AttackEnsemble, generate_attack_ensemble
from repro.attacks.impact import AttackImpact, estimate_attack_cost_impact
from repro.attacks.learning import (
    LearnedSubspace,
    SubspaceLearner,
    knowledge_decay_curve,
    learned_attack,
)

__all__ = [
    "stealthy_attack",
    "targeted_state_attack",
    "scale_attack_to_measurement_ratio",
    "AttackEnsemble",
    "generate_attack_ensemble",
    "AttackImpact",
    "estimate_attack_cost_impact",
    "SubspaceLearner",
    "LearnedSubspace",
    "learned_attack",
    "knowledge_decay_curve",
]
