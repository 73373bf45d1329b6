"""Random-perturbation MTD baseline (prior work).

The prior MTD proposals the paper compares against ([11]-[13]) perturb a
random subset of the D-FACTS-equipped lines by small random amounts and rely
on the "keyspace" of such perturbations for security.  Section VII-B of the
paper evaluates 500 random perturbations constrained to be within 2 % of the
optimal reactance values and shows that fewer than 10 % of them achieve
``η'(0.9) ≥ 0.9``.

This module reproduces that baseline's sampler: it draws one random
perturbation at a time, with :func:`draw_random_reactances`.  The
scenario engine's ``random`` MTD policy calls that function directly for
each trial and evaluates the draw against the shared attack ensemble; the
Fig. 7 / Fig. 8 keyspace statistics are its per-trial metrics (for
example :meth:`~repro.engine.results.ScenarioResult.fraction_meeting`).
:class:`RandomMTDBaseline` wraps the same draw as a
:class:`~repro.mtd.perturbation.ReactancePerturbation`.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import MTDDesignError
from repro.grid.network import PowerNetwork
from repro.mtd.effectiveness import AttackerSide, EffectivenessEvaluator
from repro.mtd.perturbation import ReactancePerturbation
from repro.utils.rng import as_generator


def draw_random_reactances(
    side: AttackerSide,
    max_relative_change: float,
    perturb_all_dfacts: bool,
    rng: np.random.Generator,
) -> np.ndarray:
    """One random perturbation of the keyspace, as post-perturbation reactances.

    Perturbs the side's D-FACTS branches in one copy of its base
    reactances: every branch, or with ``perturb_all_dfacts`` false a random
    non-empty subset (its size from ``rng.integers``, its branches from
    ``rng.permutation``).  Each perturbed reactance changes by a relative
    amount drawn from ``rng.uniform(-max_relative_change,
    max_relative_change)``.  The stream is consumed in that order.

    Raises
    ------
    MTDDesignError
        If the side has no D-FACTS branch, or a change of −100 % or more
        (possible only with ``max_relative_change ≥ 1``) leaves a
        reactance that is not positive.
    """
    dfacts = side.dfacts
    if dfacts.size == 0:
        raise MTDDesignError("the network has no D-FACTS devices; MTD is impossible")
    if perturb_all_dfacts:
        selected = dfacts
    else:
        count = int(rng.integers(1, dfacts.size + 1))
        selected = rng.permutation(dfacts)[:count]
    base = side.base_reactances
    reactances = base.copy()
    changes = rng.uniform(-max_relative_change, max_relative_change, size=selected.size)
    reactances[selected] = base[selected] * (1.0 + changes)
    if max_relative_change >= 1.0 and np.any(reactances[selected] <= 0):
        raise MTDDesignError("all reactances must be strictly positive")
    return reactances


class RandomMTDBaseline:
    """Sampler of random MTD perturbations.

    Parameters
    ----------
    network:
        The grid under study.
    evaluator:
        The effectiveness evaluator the draws are judged with; its
        attacker side's base reactances (the attacker's knowledge) are the
        reactances each draw perturbs, on the side's D-FACTS branches.
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
        """Draw one random perturbation from the keyspace.

        The draw of :func:`draw_random_reactances` on the evaluator's
        attacker side.
        """
        perturbed = draw_random_reactances(
            self._evaluator.attacker_side, self._max_change, self._perturb_all, as_generator(seed)
        )
        return ReactancePerturbation(
            self._network,
            base_reactances=self._evaluator.base_reactances,
            perturbed_reactances=perturbed,
        )


__all__ = ["RandomMTDBaseline", "draw_random_reactances"]
