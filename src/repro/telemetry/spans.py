"""Lightweight timing spans with a no-op fast path.

``with span("campaign.shard", shard=3):`` times a region of code (wall and
CPU clock) and threads it into a tree: spans opened while another span is
active become its children.  Completed *root* spans are retained
per-process (bounded) and can be drained into a run report.

Two properties keep this safe to leave in hot paths:

* **disabled fast path** — while telemetry is off, :func:`span` returns a
  shared inert object; the call costs one attribute read and one function
  call, benchmarked at well under 2 % of the engine's trial kernel (see
  ``benchmarks/bench_telemetry_overhead.py``);
* **observation only** — spans never touch the instrumented computation;
  the scientific outputs are bit-identical with spans on or off.

On exit every span also records its wall duration into the
``span.seconds{span=...}`` histogram of the default metrics registry, so
aggregate per-region timing survives the process-pool boundary (span
*trees* are process-local; the merged histograms are not).
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.telemetry import metrics as _metrics
from repro.telemetry.config import _STATE

#: Retention bound on completed root spans per process; beyond it spans are
#: dropped (counted) rather than grown without bound.
MAX_ROOT_SPANS = 512


class _Collector(threading.local):
    """Per-thread span stack plus the process-wide completed-root list."""

    def __init__(self) -> None:
        self.stack: list["Span"] = []


_COLLECTOR = _Collector()
_ROOTS: list[dict[str, Any]] = []
_ROOTS_LOCK = threading.Lock()
_DROPPED = 0


class NullSpan:
    """The shared inert span returned while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False

    def annotate(self, **attributes: Any) -> None:
        """No-op."""


NULL_SPAN = NullSpan()


class Span:
    """One timed region; use via :func:`span`, not directly."""

    __slots__ = (
        "name",
        "attributes",
        "children",
        "wall_seconds",
        "cpu_seconds",
        "start_unix",
        "_wall_start",
        "_cpu_start",
    )

    def __init__(self, name: str, attributes: dict[str, Any]) -> None:
        self.name = name
        self.attributes = attributes
        self.children: list[dict[str, Any]] = []
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self.start_unix = 0.0
        self._wall_start = 0.0
        self._cpu_start = 0.0

    def annotate(self, **attributes: Any) -> None:
        """Attach extra attributes to an open span."""
        self.attributes.update(attributes)

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form of the completed span (children included)."""
        record: dict[str, Any] = {
            "name": self.name,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            # Wall-clock epoch start: lets the OTLP exporter place spans
            # on a real timeline instead of synthesizing one.
            "start_unix": self.start_unix,
        }
        if self.attributes:
            record["attributes"] = dict(self.attributes)
        if self.children:
            record["children"] = list(self.children)
        return record

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        _COLLECTOR.stack.append(self)
        self.start_unix = time.time()
        self._cpu_start = time.process_time()
        self._wall_start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self.wall_seconds = time.perf_counter() - self._wall_start
        self.cpu_seconds = time.process_time() - self._cpu_start
        stack = _COLLECTOR.stack
        if stack and stack[-1] is self:
            stack.pop()
        record = self.to_dict()
        if stack:
            stack[-1].children.append(record)
        else:
            global _DROPPED
            with _ROOTS_LOCK:
                if len(_ROOTS) < MAX_ROOT_SPANS:
                    _ROOTS.append(record)
                else:
                    _DROPPED += 1
        if _STATE.enabled:
            _metrics.histogram("span.seconds", self.wall_seconds, span=self.name)
        return False


def span(name: str, **attributes: Any) -> Span | NullSpan:
    """A context manager timing ``name``; inert while telemetry is off."""
    if not _STATE.enabled:
        return NULL_SPAN
    return Span(name, attributes)


def drain_spans() -> list[dict[str, Any]]:
    """Return and clear the completed root spans (report handoff)."""
    global _DROPPED
    with _ROOTS_LOCK:
        drained, _ROOTS[:] = list(_ROOTS), []
        _DROPPED = 0
    return drained


def dropped_spans() -> int:
    """Root spans dropped since the last :func:`drain_spans`."""
    return _DROPPED


__all__ = [
    "MAX_ROOT_SPANS",
    "NullSpan",
    "NULL_SPAN",
    "Span",
    "span",
    "drain_spans",
    "dropped_spans",
]
