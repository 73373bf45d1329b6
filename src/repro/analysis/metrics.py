"""Trend statistics the figure benchmarks assert on (Fig. 6 and the SPA ablation)."""

from __future__ import annotations

import numpy as np
from scipy import stats


def rank_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation between two series.

    Used by the ablation benchmark that validates the paper's conjecture:
    the SPA heuristic should rank perturbations in (nearly) the same order
    as the true effectiveness metric.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape[0] != y.shape[0]:
        raise ValueError("series must have equal length")
    if x.shape[0] < 2:
        return float("nan")
    correlation, _ = stats.spearmanr(x, y)
    return float(correlation)


def monotonicity_fraction(values: np.ndarray) -> float:
    """Fraction of consecutive steps that are non-decreasing.

    A value of 1.0 means the series is monotone non-decreasing; used to
    check the "effectiveness increases with the SPA" trend of Fig. 6.
    """
    series = np.asarray(values, dtype=float).ravel()
    if series.size < 2:
        return 1.0
    steps = np.diff(series)
    return float(np.mean(steps >= -1e-9))


__all__ = [
    "rank_correlation",
    "monotonicity_fraction",
]
