"""Process-local, mergeable metrics: counters, gauges, histograms.

Every process (the orchestrating one and each pool worker) accumulates into
its own :class:`MetricsRegistry`.  At the pool boundary a worker captures a
:class:`MetricsSnapshot` — a plain-data, JSON-safe record — and ships it
back with its results; the parent merges the snapshots into its own
registry.  Merging is **exact and deterministic**:

* counters add, and addition is associative/commutative, so the merged
  totals are independent of shard assignment and completion order;
* histograms use *fixed bucket boundaries* chosen at first observation
  (or declared up front), so merged bucket counts equal the counts a
  single serial process would have produced — no re-bucketing, no
  approximation;
* gauges merge by maximum, the only order-independent choice for a
  last-value metric (used for high-water marks such as cache occupancy).

Metric names are dotted strings (``"engine.trials"``,
``"cache.topology.hits"``); optional labels are folded into the key
deterministically (``"span.seconds{name=engine.trial}"``).  Serialized
snapshots sort their keys, so two byte-identical runs produce
byte-identical telemetry payloads.

All helpers are no-ops while telemetry is disabled (see
:mod:`repro.telemetry.config`), so instrumentation sites cost one function
call and one attribute read when off.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.telemetry.config import _STATE

#: Default histogram boundaries for second-valued observations: roughly
#: exponential from 100 µs to 1 minute.  Observations above the last
#: boundary land in the overflow bucket.
DEFAULT_SECONDS_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


def metric_key(name: str, labels: Mapping[str, Any] | None = None) -> str:
    """The registry key of ``name`` with ``labels`` folded in, sorted."""
    if not labels:
        return name
    folded = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{folded}}}"


def split_metric_key(key: str) -> tuple[str, dict[str, str]]:
    """The inverse of :func:`metric_key`: ``(name, labels)`` of a key.

    The exporters use this to turn folded registry keys back into label
    sets (``"span.seconds{span=engine.trial}"`` →
    ``("span.seconds", {"span": "engine.trial"})``).  Label values
    containing ``,`` or ``=`` are not representable in the folded form to
    begin with, so the split is exact for every key the registry makes.
    """
    name, brace, rest = key.partition("{")
    if not brace:
        return key, {}
    if not rest.endswith("}"):
        raise ValueError(f"malformed metric key: {key!r}")
    labels: dict[str, str] = {}
    body = rest[:-1]
    if body:
        for part in body.split(","):
            label, sep, value = part.partition("=")
            if not sep:
                raise ValueError(f"malformed metric key label: {key!r}")
            labels[label] = value
    return name, labels


class _Histogram:
    """Mutable fixed-boundary histogram accumulator."""

    __slots__ = ("boundaries", "bucket_counts", "total", "count", "minimum", "maximum")

    def __init__(self, boundaries: tuple[float, ...]) -> None:
        self.boundaries = boundaries
        self.bucket_counts = [0] * (len(boundaries) + 1)  # +1 overflow bucket
        self.total = 0.0
        self.count = 0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.boundaries, value)] += 1
        self.total += value
        self.count += 1
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def to_dict(self) -> dict[str, Any]:
        return {
            "boundaries": list(self.boundaries),
            "bucket_counts": list(self.bucket_counts),
            "sum": self.total,
            "count": self.count,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
        }


def _merge_histogram_payloads(a: Mapping[str, Any], b: Mapping[str, Any]) -> dict[str, Any]:
    """Exact merge of two serialized histograms (same boundaries required)."""
    if list(a["boundaries"]) != list(b["boundaries"]):
        raise ValueError(
            "cannot merge histograms with different bucket boundaries: "
            f"{a['boundaries']} vs {b['boundaries']}"
        )
    mins = [m for m in (a.get("min"), b.get("min")) if m is not None]
    maxs = [m for m in (a.get("max"), b.get("max")) if m is not None]
    return {
        "boundaries": list(a["boundaries"]),
        "bucket_counts": [x + y for x, y in zip(a["bucket_counts"], b["bucket_counts"])],
        "sum": float(a["sum"]) + float(b["sum"]),
        "count": int(a["count"]) + int(b["count"]),
        "min": min(mins) if mins else None,
        "max": max(maxs) if maxs else None,
    }


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable, JSON-safe capture of a registry's accumulators.

    ``merge`` is associative and commutative (counters/histograms add,
    gauges take the maximum), so any merge tree over the same set of
    snapshots yields the same totals — the property the cross-process
    tests assert.
    """

    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, dict[str, Any]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """The exact combination of two snapshots (neither is mutated)."""
        counters = dict(self.counters)
        for key, value in other.counters.items():
            counters[key] = counters.get(key, 0) + value
        gauges = dict(self.gauges)
        for key, value in other.gauges.items():
            gauges[key] = max(gauges[key], value) if key in gauges else value
        histograms = {k: dict(v) for k, v in self.histograms.items()}
        for key, payload in other.histograms.items():
            if key in histograms:
                histograms[key] = _merge_histogram_payloads(histograms[key], payload)
            else:
                histograms[key] = dict(payload)
        return MetricsSnapshot(counters=counters, gauges=gauges, histograms=histograms)

    @staticmethod
    def merge_all(snapshots: Iterable["MetricsSnapshot"]) -> "MetricsSnapshot":
        """Fold ``merge`` over snapshots (associative: any order, same totals)."""
        merged = MetricsSnapshot()
        for snapshot in snapshots:
            merged = merged.merge(snapshot)
        return merged

    def subtract(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """The delta accumulated since ``earlier`` (a prefix of ``self``).

        Counters and histogram bucket counts are monotone, so the
        difference of two captures of the *same* registry is itself a valid
        snapshot — what :meth:`ScenarioEngine.run` attaches per scenario.
        Gauges and histogram min/max are not invertible; the later value is
        kept.
        """
        counters = {
            key: value - earlier.counters.get(key, 0)
            for key, value in self.counters.items()
            if value - earlier.counters.get(key, 0)
        }
        histograms: dict[str, dict[str, Any]] = {}
        for key, payload in self.histograms.items():
            before = earlier.histograms.get(key)
            if before is None:
                histograms[key] = dict(payload)
                continue
            counts = [x - y for x, y in zip(payload["bucket_counts"], before["bucket_counts"])]
            count = int(payload["count"]) - int(before["count"])
            if count <= 0:
                continue
            histograms[key] = {
                "boundaries": list(payload["boundaries"]),
                "bucket_counts": counts,
                "sum": float(payload["sum"]) - float(before["sum"]),
                "count": count,
                "min": payload.get("min"),
                "max": payload.get("max"),
            }
        return MetricsSnapshot(
            counters=counters, gauges=dict(self.gauges), histograms=histograms
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Sorted-key plain-data form (deterministic serialization)."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {k: dict(self.histograms[k]) for k in sorted(self.histograms)},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MetricsSnapshot":
        """Rebuild a snapshot from :meth:`to_dict` output (or parsed JSON)."""
        return cls(
            counters={str(k): int(v) for k, v in data.get("counters", {}).items()},
            gauges={str(k): float(v) for k, v in data.get("gauges", {}).items()},
            histograms={str(k): dict(v) for k, v in data.get("histograms", {}).items()},
        )


class MetricsRegistry:
    """Accumulates counters/gauges/histograms for one process.

    Registries are cheap plain-dict accumulators; the module-level default
    registry (accessed through :func:`counter` / :func:`gauge` /
    :func:`histogram`) is what the library's instrumentation writes to.
    """

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, _Histogram] = {}
        self._boundaries: dict[str, tuple[float, ...]] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, value: int = 1, **labels: Any) -> None:
        """Add ``value`` to the counter ``name`` (created at zero)."""
        key = metric_key(name, labels)
        self._counters[key] = self._counters.get(key, 0) + int(value)

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        """Record the latest value of ``name`` (merges as a maximum)."""
        self._gauges[metric_key(name, labels)] = float(value)

    def declare_histogram(self, name: str, boundaries: Iterable[float]) -> None:
        """Fix the bucket boundaries of ``name`` before first observation."""
        bounds = tuple(float(b) for b in boundaries)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"histogram boundaries must be strictly increasing: {bounds}")
        existing = self._boundaries.get(name)
        if existing is not None and existing != bounds:
            raise ValueError(
                f"histogram {name!r} already declared with boundaries {existing}"
            )
        self._boundaries[name] = bounds

    def histogram(
        self,
        name: str,
        value: float,
        boundaries: Iterable[float] | None = None,
        **labels: Any,
    ) -> None:
        """Observe ``value`` in the fixed-boundary histogram ``name``.

        The boundaries are fixed the first time the metric is seen —
        from ``boundaries``, a prior :meth:`declare_histogram`, or
        :data:`DEFAULT_SECONDS_BUCKETS` — and every process observing the
        same metric name uses the same default, which is what makes the
        cross-process merge exact.
        """
        key = metric_key(name, labels)
        hist = self._histograms.get(key)
        if hist is None:
            bounds = self._boundaries.get(name)
            if bounds is None:
                bounds = (
                    tuple(float(b) for b in boundaries)
                    if boundaries is not None
                    else DEFAULT_SECONDS_BUCKETS
                )
                self._boundaries.setdefault(name, bounds)
            hist = self._histograms[key] = _Histogram(bounds)
        hist.observe(float(value))

    # ------------------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        """An immutable capture of the current accumulators."""
        return MetricsSnapshot(
            counters=dict(self._counters),
            gauges=dict(self._gauges),
            histograms={k: h.to_dict() for k, h in self._histograms.items()},
        )

    def reset(self) -> None:
        """Drop every accumulator (declared boundaries are kept)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def snapshot_and_reset(self) -> MetricsSnapshot:
        """Capture then clear — the pool-boundary handoff primitive."""
        snapshot = self.snapshot()
        self.reset()
        return snapshot

    def merge_snapshot(self, snapshot: MetricsSnapshot | Mapping[str, Any]) -> None:
        """Fold a (possibly serialized) snapshot into this registry."""
        if not isinstance(snapshot, MetricsSnapshot):
            snapshot = MetricsSnapshot.from_dict(snapshot)
        for key, value in snapshot.counters.items():
            self._counters[key] = self._counters.get(key, 0) + value
        for key, value in snapshot.gauges.items():
            self._gauges[key] = max(self._gauges[key], value) if key in self._gauges else value
        for key, payload in snapshot.histograms.items():
            hist = self._histograms.get(key)
            if hist is None:
                bounds = tuple(float(b) for b in payload["boundaries"])
                hist = self._histograms[key] = _Histogram(bounds)
            merged = _merge_histogram_payloads(hist.to_dict(), payload)
            hist.bucket_counts = list(merged["bucket_counts"])
            hist.total = merged["sum"]
            hist.count = merged["count"]
            hist.minimum = merged["min"] if merged["min"] is not None else float("inf")
            hist.maximum = merged["max"] if merged["max"] is not None else float("-inf")


#: The process-local default registry all library instrumentation uses.
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-local default registry."""
    return _REGISTRY


def counter(name: str, value: int = 1, **labels: Any) -> None:
    """Increment a counter in the default registry (no-op when disabled)."""
    if _STATE.enabled:
        _REGISTRY.counter(name, value, **labels)


def gauge(name: str, value: float, **labels: Any) -> None:
    """Set a gauge in the default registry (no-op when disabled)."""
    if _STATE.enabled:
        _REGISTRY.gauge(name, value, **labels)


def histogram(
    name: str, value: float, boundaries: Iterable[float] | None = None, **labels: Any
) -> None:
    """Observe into a histogram in the default registry (no-op when disabled)."""
    if _STATE.enabled:
        _REGISTRY.histogram(name, value, boundaries=boundaries, **labels)


def snapshot() -> MetricsSnapshot:
    """Capture the default registry."""
    return _REGISTRY.snapshot()


def snapshot_and_reset() -> MetricsSnapshot:
    """Capture then clear the default registry (pool-boundary handoff)."""
    return _REGISTRY.snapshot_and_reset()


def reset() -> None:
    """Clear the default registry."""
    _REGISTRY.reset()


def merge_snapshot(payload: MetricsSnapshot | Mapping[str, Any]) -> None:
    """Merge a worker's snapshot into the default registry."""
    _REGISTRY.merge_snapshot(payload)


__all__ = [
    "DEFAULT_SECONDS_BUCKETS",
    "MetricsRegistry",
    "MetricsSnapshot",
    "metric_key",
    "split_metric_key",
    "registry",
    "counter",
    "gauge",
    "histogram",
    "snapshot",
    "snapshot_and_reset",
    "reset",
    "merge_snapshot",
]
