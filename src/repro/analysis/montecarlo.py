"""Monte-Carlo summaries of per-trial outcomes.

Several of the paper's results are averages over random draws (random
attacks, random perturbations, random noise).  The scenario engine runs
those trials, each on its own seed-spawned random stream, and
:func:`summarize_values` aggregates their outcomes into a
:class:`MonteCarloSummary`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MonteCarloSummary:
    """Summary of a repeated scalar-valued experiment.

    Attributes
    ----------
    values:
        The per-trial outcomes.
    mean, std:
        Sample mean and standard deviation.
    confidence_halfwidth:
        Half-width of the normal-approximation 95 % confidence interval on
        the mean.
    """

    values: np.ndarray
    mean: float
    std: float
    confidence_halfwidth: float

    @property
    def n_trials(self) -> int:
        return int(self.values.size)

    @property
    def median(self) -> float:
        """Sample median of the per-trial outcomes."""
        return float(np.median(self.values)) if self.values.size else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (``q`` in [0, 100]) of the outcomes."""
        if not (0.0 <= q <= 100.0):
            raise ValueError(f"q must be in [0, 100], got {q}")
        if self.values.size == 0:
            return 0.0
        return float(np.percentile(self.values, q))

    def confidence_interval(self) -> tuple[float, float]:
        """95 % confidence interval on the mean."""
        return (self.mean - self.confidence_halfwidth, self.mean + self.confidence_halfwidth)


def summarize_values(values: np.ndarray | list[float]) -> MonteCarloSummary:
    """Summarise an array of per-trial outcomes.

    The scenario engine runs the trials itself (possibly in parallel); this
    is its aggregation step.
    """
    array = np.asarray(values, dtype=float).ravel()
    if array.size == 0:
        raise ValueError("cannot summarise an empty set of trial values")
    n = int(array.size)
    std = float(np.std(array, ddof=1)) if n > 1 else 0.0
    halfwidth = 1.96 * std / np.sqrt(n) if n > 1 else 0.0
    return MonteCarloSummary(
        values=array,
        mean=float(np.mean(array)),
        std=std,
        confidence_halfwidth=float(halfwidth),
    )


__all__ = ["MonteCarloSummary", "summarize_values"]
