"""Analysis helpers: Monte-Carlo summaries, metrics and plain-text reporting.

The :mod:`repro.analysis.lint` subpackage (the ``repro lint`` contract
checker) is deliberately *not* imported here: it is developer tooling —
stdlib-only AST analysis — and nothing at runtime depends on it.
"""

from repro.analysis.metrics import rank_correlation
from repro.analysis.reporting import format_table, format_series
from repro.analysis.montecarlo import MonteCarloSummary

__all__ = [
    "rank_correlation",
    "format_table",
    "format_series",
    "MonteCarloSummary",
]
