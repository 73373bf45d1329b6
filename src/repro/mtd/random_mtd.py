"""Random-perturbation MTD baseline (prior work).

The prior MTD proposals the paper compares against ([11]-[13]) perturb a
random subset of the D-FACTS-equipped lines by small random amounts and rely
on the "keyspace" of such perturbations for security.  Section VII-B of the
paper evaluates 500 random perturbations constrained to be within 2 % of the
optimal reactance values and shows that fewer than 10 % of them achieve
``η'(0.9) ≥ 0.9``.

This module reproduces that baseline's sampler: it draws one random
perturbation at a time.  The scenario engine's ``random`` MTD policy
evaluates each draw against the shared attack ensemble, and the Fig. 7 /
Fig. 8 keyspace statistics are its per-trial metrics (for example
:meth:`~repro.engine.results.ScenarioResult.fraction_meeting`).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import MTDDesignError
from repro.grid.network import PowerNetwork
from repro.mtd.effectiveness import EffectivenessEvaluator
from repro.mtd.perturbation import ReactancePerturbation
from repro.utils.rng import as_generator


class RandomMTDBaseline:
    """Sampler of random MTD perturbations.

    Parameters
    ----------
    network:
        The grid under study.
    evaluator:
        The effectiveness evaluator the draws are judged with; its base
        reactances (the attacker's knowledge) are the reactances each
        draw perturbs.
    max_relative_change:
        Maximum relative reactance change of each perturbed line (the paper
        constrains the random perturbations to within 2 % of the optimal
        values, i.e. 0.02).
    perturb_all_dfacts:
        When true every D-FACTS line is perturbed; otherwise a random
        non-empty subset is chosen per sample, as in the keyspace
        formulations of prior work.
    """

    def __init__(
        self,
        network: PowerNetwork,
        evaluator: EffectivenessEvaluator,
        max_relative_change: float = 0.02,
        perturb_all_dfacts: bool = True,
    ) -> None:
        if max_relative_change <= 0:
            raise MTDDesignError(
                f"max_relative_change must be positive, got {max_relative_change}"
            )
        if not network.dfacts_branches:
            raise MTDDesignError("the network has no D-FACTS devices; MTD is impossible")
        self._network = network
        self._evaluator = evaluator
        self._max_change = float(max_relative_change)
        self._perturb_all = bool(perturb_all_dfacts)

    # ------------------------------------------------------------------
    def draw_perturbation(
        self, seed: int | np.random.Generator | None = None
    ) -> ReactancePerturbation:
        """Draw one random perturbation from the keyspace."""
        rng = as_generator(seed)
        dfacts = np.array(self._network.dfacts_branches, dtype=int)
        if self._perturb_all:
            selected = dfacts
        else:
            count = int(rng.integers(1, dfacts.size + 1))
            selected = rng.permutation(dfacts)[:count]
        return ReactancePerturbation.random(
            self._network,
            max_relative_change=self._max_change,
            branch_indices=selected,
            base_reactances=self._evaluator.base_reactances,
            seed=rng,
        )


__all__ = ["RandomMTDBaseline"]
