"""Telemetry: spans, mergeable metrics, structured logs, run reports.

A dependency-free instrumentation subsystem for the whole execution stack
(trial kernel → scenario engine → campaign orchestrator → time-series
operation engine).  Three pillars:

* **metrics** (:mod:`repro.telemetry.metrics`) — process-local counters,
  gauges and fixed-boundary histograms whose snapshots merge *exactly*
  across ``ProcessPoolExecutor`` workers;
* **spans** (:mod:`repro.telemetry.spans`) — wall/CPU timing trees with a
  no-op fast path while telemetry is disabled;
* **run reports** (:mod:`repro.telemetry.report`) — the merged
  ``telemetry.json`` persisted next to a campaign store's manifest,
  with cache hit rates, trials/sec, per-shard wall times and an
  environment stamp (:mod:`repro.telemetry.env`).

Telemetry is off by default; enable it with the ``REPRO_TELEMETRY``
environment variable, the CLI's ``--telemetry`` flag, or
:func:`repro.telemetry.set_enabled`.  Collection never changes scientific
outputs: results with telemetry on are bit-identical to results with it
off (asserted in the tier-1 suite).

Quickstart
----------
>>> from repro import telemetry
>>> telemetry.enable()
>>> with telemetry.span("my.region", size=3):
...     telemetry.counter("my.events")
>>> telemetry.snapshot().counters["my.events"]
1
"""

from repro.telemetry.config import (
    ENV_PROGRESS_INTERVAL,
    ENV_SWITCH,
    disable,
    enable,
    enabled,
    enabled_scope,
    progress_interval,
    set_enabled,
)
from repro.telemetry.env import environment_info, format_environment
from repro.telemetry.export import (
    METRICS_PROM_NAME,
    metrics_prom_path,
    otlp_spans_payload,
    parse_openmetrics,
    render_openmetrics,
    validate_openmetrics,
    write_prometheus,
)
from repro.telemetry.log import configure_logging, log_event
from repro.telemetry.metrics import (
    DEFAULT_SECONDS_BUCKETS,
    MetricsRegistry,
    MetricsSnapshot,
    counter,
    gauge,
    histogram,
    merge_snapshot,
    registry,
    reset,
    snapshot,
    snapshot_and_reset,
)
from repro.telemetry.progress import (
    PROGRESS_NAME,
    ProgressWriter,
    ShardProgress,
    progress_path,
    read_progress,
)
from repro.telemetry.report import (
    TELEMETRY_NAME,
    build_report,
    cache_rates,
    format_report,
    load_report,
    read_report,
    telemetry_path,
    write_report,
)
from repro.telemetry.spans import NULL_SPAN, Span, drain_spans, span

__all__ = [
    # switch
    "ENV_SWITCH",
    "enabled",
    "enable",
    "disable",
    "set_enabled",
    "enabled_scope",
    # metrics
    "DEFAULT_SECONDS_BUCKETS",
    "MetricsRegistry",
    "MetricsSnapshot",
    "counter",
    "gauge",
    "histogram",
    "registry",
    "reset",
    "snapshot",
    "snapshot_and_reset",
    "merge_snapshot",
    # spans
    "NULL_SPAN",
    "Span",
    "span",
    "drain_spans",
    # logging
    "configure_logging",
    "log_event",
    # environment + reports
    "environment_info",
    "format_environment",
    "TELEMETRY_NAME",
    "build_report",
    "cache_rates",
    "format_report",
    "read_report",
    "load_report",
    "telemetry_path",
    "write_report",
    # progress stream
    "ENV_PROGRESS_INTERVAL",
    "progress_interval",
    "PROGRESS_NAME",
    "ProgressWriter",
    "ShardProgress",
    "progress_path",
    "read_progress",
    # exporters
    "METRICS_PROM_NAME",
    "metrics_prom_path",
    "render_openmetrics",
    "parse_openmetrics",
    "validate_openmetrics",
    "write_prometheus",
    "otlp_spans_payload",
]
