"""Typed result records of the scenario engine.

A scenario run produces one :class:`TrialResult` per trial — a flat mapping
of named scalar metrics — collected into a :class:`ScenarioResult` that
aggregates any metric into the library's standard
:class:`~repro.analysis.montecarlo.MonteCarloSummary`.  Both records
round-trip through plain dicts/JSON, which is what the on-disk cache stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

import numpy as np

from repro.analysis.montecarlo import MonteCarloSummary, summarize_values
from repro.engine.spec import ScenarioSpec
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one Monte-Carlo trial.

    Attributes
    ----------
    trial_index:
        Position of the trial in the scenario (also selects its RNG stream).
    metrics:
        Named scalar outcomes, e.g. ``{"eta(0.9)": 0.97, "spa": 0.41}``.
    """

    trial_index: int
    metrics: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "metrics", {str(k): float(v) for k, v in self.metrics.items()}
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-data (JSON-safe) representation of the trial."""
        return {"trial_index": self.trial_index, "metrics": dict(self.metrics)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TrialResult":
        """Rebuild a trial record from :meth:`to_dict` output."""
        return cls(trial_index=int(data["trial_index"]), metrics=dict(data["metrics"]))


@dataclass(frozen=True)
class ScenarioResult:
    """All trials of one scenario, plus execution metadata.

    The trial tuple is ordered by ``trial_index`` and — because every trial
    draws from its own seed-spawned stream — is bit-identical whether the
    engine ran serially or on a process pool.  Equality of two results'
    ``trials`` is therefore the engine's determinism contract.
    """

    spec: ScenarioSpec
    trials: tuple[TrialResult, ...]
    elapsed_seconds: float = 0.0
    n_workers: int = 1
    from_cache: bool = False
    #: Per-scenario telemetry delta (a plain
    #: :meth:`~repro.telemetry.metrics.MetricsSnapshot.to_dict` payload), or
    #: ``None`` when telemetry was off.  In-memory only: excluded from
    #: equality and from :meth:`to_dict`, so stored records — and therefore
    #: every cache entry and campaign segment — are byte-identical whether
    #: telemetry was on or off.
    telemetry: dict[str, Any] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "trials", tuple(self.trials))

    # ------------------------------------------------------------------
    @property
    def n_trials(self) -> int:
        """Number of trials the scenario produced."""
        return len(self.trials)

    def metric_names(self) -> tuple[str, ...]:
        """Names of the metrics every trial recorded."""
        if not self.trials:
            return ()
        return tuple(self.trials[0].metrics)

    def values(self, metric: str | None = None) -> np.ndarray:
        """Per-trial values of ``metric``, shape ``(n_trials,)``.

        Defaults to the spec's headline metric (``spec.metric``).
        """
        name = self.spec.metric if metric is None else metric
        try:
            return np.array([trial.metrics[name] for trial in self.trials])
        except KeyError:
            raise ConfigurationError(
                f"scenario {self.spec.name!r} has no metric {name!r}; "
                f"available: {', '.join(self.metric_names())}"
            ) from None

    def summarize(self, metric: str | None = None) -> MonteCarloSummary:
        """Aggregate a metric over trials into a :class:`MonteCarloSummary`."""
        return summarize_values(self.values(metric))

    def fraction_meeting(self, metric: str, target: float) -> float:
        """Fraction of trials with ``metric >= target`` (the Fig. 8 statistic)."""
        values = self.values(metric)
        return float(np.mean(values >= target)) if values.size else 0.0

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-data representation (what the on-disk cache stores)."""
        return {
            "spec": self.spec.to_dict(),
            "spec_hash": self.spec.content_hash(),
            "trials": [trial.to_dict() for trial in self.trials],
            "elapsed_seconds": self.elapsed_seconds,
            "n_workers": self.n_workers,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], from_cache: bool = False) -> "ScenarioResult":
        """Rebuild a result from :meth:`to_dict` output (or parsed JSON)."""
        return cls(
            spec=ScenarioSpec.from_dict(data["spec"]),
            trials=tuple(TrialResult.from_dict(t) for t in data["trials"]),
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
            n_workers=int(data.get("n_workers", 1)),
            from_cache=from_cache,
        )


def merge_metric(results: Iterable[ScenarioResult], metric: str | None = None) -> np.ndarray:
    """Concatenate one metric across several scenario results.

    Convenience for suite-level statistics, e.g. pooling the ``spa`` values
    of every case in a sweep.
    """
    arrays = [result.values(metric) for result in results]
    if not arrays:
        return np.array([])
    return np.concatenate(arrays)


__all__ = ["TrialResult", "ScenarioResult", "merge_metric"]
