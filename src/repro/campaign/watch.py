"""Live campaign monitoring (``repro campaign watch``).

Tails a store's ``progress.ndjson`` event stream (see
:mod:`repro.telemetry.progress`) and turns it into a live view: per-shard
throughput, overall completion, an ETA from a sliding-window completion
rate, and stall detection.  Nothing here writes — watching is always safe
while an orchestrator (or several shard workers) are appending.

The analysis is a pure function of the event list
(:func:`analyze_progress` → :class:`WatchView`), which is what the tests
exercise; the CLI loop (:func:`run_watch`) only reads new bytes, re-runs
the analysis, and renders (text or JSON).  ``--serve-metrics`` starts a
plain-stdlib HTTP endpoint exposing the same view as OpenMetrics text
for a Prometheus scraper.

Stall detection
---------------
A shard is *stalled* when it is incomplete and its writer has been silent
for longer than ``stall_factor`` × the stream's median inter-event gap
(floored at the heartbeat interval, so a freshly started run is not
declared stalled before its first cadence is known).  When the silent
writer's pid no longer exists on this machine the shard is reported
``dead`` instead — the worker cannot recover on its own.

When the store has no progress stream (telemetry was off, or the run
predates it), the watcher falls back to the store's own completion state
(manifest + segments), rendering a static view with no rate/stall data.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.exceptions import ConfigurationError
from repro.telemetry.export import (
    OPENMETRICS_CONTENT_TYPE,
    render_openmetrics,
)
from repro.telemetry.metrics import MetricsSnapshot, metric_key
from repro.telemetry.progress import read_progress, stream_size

#: Default seconds between watch refreshes.
DEFAULT_WATCH_INTERVAL = 2.0

#: Default stall threshold as a multiple of the median inter-event gap.
DEFAULT_STALL_FACTOR = 5.0

#: Sliding window (seconds) over which the completion rate / ETA is fit.
RATE_WINDOW_SECONDS = 60.0


@dataclass(frozen=True)
class ShardView:
    """Live state of one shard as seen through the event stream."""

    shard: int
    done: int = 0
    total: int = 0
    trials_done: int = 0
    trials_per_sec: float = 0.0
    cache_hits: int = 0
    wall_seconds: float = 0.0
    last_ts: float = 0.0
    pid: int | None = None
    #: ``running`` | ``done`` | ``stalled`` | ``dead``
    state: str = "running"
    #: Last intra-scenario detail seen (scenario name, trial, or hour).
    detail: str = ""

    @property
    def complete(self) -> bool:
        return self.state == "done"


@dataclass(frozen=True)
class WatchView:
    """One rendered instant of a campaign's live progress."""

    campaign: str = ""
    plan_hash: str = ""
    n_items: int = 0
    #: Items satisfied before the watched run's shards (store + cache).
    baseline: int = 0
    shards: tuple[ShardView, ...] = ()
    #: Whether a ``run_done`` event closed the stream's last run.  A
    #: checkpointed (``--shard-limit``) invocation ends with the campaign
    #: still incomplete, so this is about the *run*, not the campaign.
    run_complete: bool = False
    #: The campaign-complete verdict carried by ``run_done`` (``None``
    #: while the run is still going).
    run_reported_complete: bool | None = None
    #: Final partition from ``run_done`` (executed/from_cache/skipped).
    partition: Mapping[str, int] | None = None
    #: Scenarios per second over the sliding window (``None`` = unknown).
    rate: float | None = None
    eta_seconds: float | None = None
    #: Seconds of stream history behind this view (0 with no events).
    span_seconds: float = 0.0
    n_events: int = 0
    #: ``"progress"`` when built from the event stream, ``"store"`` for
    #: the no-stream fallback.
    source: str = "progress"
    now: float = field(default=0.0, compare=False)

    @property
    def completed(self) -> int:
        if self.run_complete and self.partition is not None:
            return min(self.n_items, self.baseline + self.partition.get("executed", 0))
        return min(
            self.n_items, self.baseline + sum(shard.done for shard in self.shards)
        )

    @property
    def percent(self) -> float:
        if self.n_items <= 0:
            return 100.0 if self.run_complete else 0.0
        return 100.0 * self.completed / self.n_items

    @property
    def complete(self) -> bool:
        if self.run_reported_complete is not None:
            return self.run_reported_complete
        return self.n_items > 0 and self.completed >= self.n_items

    @property
    def stalled_shards(self) -> tuple[ShardView, ...]:
        return tuple(s for s in self.shards if s.state in ("stalled", "dead"))

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (the ``watch --json`` payload)."""
        return {
            "campaign": self.campaign,
            "plan_hash": self.plan_hash,
            "source": self.source,
            "n_items": self.n_items,
            "baseline": self.baseline,
            "completed": self.completed,
            "percent": self.percent,
            "complete": self.complete,
            "run_complete": self.run_complete,
            "partition": dict(self.partition) if self.partition else None,
            "rate_per_sec": self.rate,
            "eta_seconds": self.eta_seconds,
            "n_events": self.n_events,
            "stalled": [s.shard for s in self.stalled_shards],
            "shards": [
                {
                    "shard": s.shard,
                    "done": s.done,
                    "total": s.total,
                    "trials_done": s.trials_done,
                    "trials_per_sec": s.trials_per_sec,
                    "cache_hits": s.cache_hits,
                    "wall_seconds": s.wall_seconds,
                    "state": s.state,
                    "pid": s.pid,
                    "detail": s.detail,
                }
                for s in self.shards
            ],
        }


def _pid_alive(pid: int | None) -> bool:
    if not pid:
        return True  # unknown pid: assume alive, let the gap rule decide
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True
    return True


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        return 0.0
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _shard_detail(event: Mapping[str, Any]) -> str:
    if "hour" in event:
        return f"hour {event['hour']}"
    if "scenario" in event:
        detail = str(event["scenario"])
        if "trial" in event and "n_trials" in event:
            detail += f" trial {event['trial']}/{event['n_trials']}"
        return detail
    return ""


def analyze_progress(
    events: Sequence[Mapping[str, Any]],
    now: float | None = None,
    stall_factor: float = DEFAULT_STALL_FACTOR,
    pid_probe: Callable[[int | None], bool] = _pid_alive,
) -> WatchView:
    """Fold a progress event list into a :class:`WatchView`.

    Pure given its inputs: ``now`` and ``pid_probe`` are injectable so the
    stall logic is deterministic under test.  Only the stream's last run
    (from its final ``run_start``) is analyzed — earlier runs in the same
    file are a resumed campaign's history.
    """
    if now is None:
        now = time.time()

    # Locate the last run_start; everything before it is history.
    start_index = 0
    for index, event in enumerate(events):
        if event.get("kind") == "run_start":
            start_index = index
    run = events[start_index:] if events else []

    campaign = ""
    plan_hash = ""
    n_items = 0
    baseline = 0
    run_complete = False
    run_reported_complete: bool | None = None
    partition: dict[str, int] | None = None
    shard_events: dict[int, dict[str, Any]] = {}
    shard_last: dict[int, float] = {}
    shard_pid: dict[int, int | None] = {}
    shard_done_flag: dict[int, bool] = {}
    shard_detail: dict[int, str] = {}
    completion_samples: list[tuple[float, int]] = []
    timestamps: list[float] = []
    min_interval = 0.0

    for event in run:
        kind = event.get("kind")
        ts = float(event.get("ts", 0.0))
        timestamps.append(ts)
        if kind == "run_start":
            campaign = str(event.get("campaign", ""))
            plan_hash = str(event.get("plan_hash", ""))
            n_items = int(event.get("n_items", 0))
            baseline = int(event.get("completed", 0))
            min_interval = float(event.get("heartbeat_interval", 0.0))
            continue
        if kind == "run_done":
            run_complete = True
            run_reported_complete = (
                bool(event["complete"]) if "complete" in event else None
            )
            partition = {
                key: int(event.get(key, 0))
                for key in ("executed", "from_cache", "skipped")
            }
            continue
        shard = event.get("shard")
        if shard is None:
            continue
        shard = int(shard)
        previous = shard_events.get(shard, {})
        merged = dict(previous)
        merged.update(event)
        shard_events[shard] = merged
        shard_last[shard] = ts
        shard_pid[shard] = event.get("pid", shard_pid.get(shard))
        detail = _shard_detail(event)
        if detail:
            shard_detail[shard] = detail
        if kind == "shard_done":
            shard_done_flag[shard] = True
        total_done = baseline + sum(
            int(state.get("done", 0)) for state in shard_events.values()
        )
        completion_samples.append((ts, total_done))

    # Sliding-window completion rate → ETA.
    rate: float | None = None
    eta: float | None = None
    if len(completion_samples) >= 2:
        horizon = completion_samples[-1][0] - RATE_WINDOW_SECONDS
        window = [s for s in completion_samples if s[0] >= horizon]
        if len(window) < 2:
            window = completion_samples[-2:]
        dt = window[-1][0] - window[0][0]
        dn = window[-1][1] - window[0][1]
        if dt > 0 and dn > 0:
            rate = dn / dt
            remaining = max(0, n_items - completion_samples[-1][1])
            eta = remaining / rate

    # Stall threshold: stall_factor × median inter-event gap, floored at
    # the heartbeat cadence (a quiet-but-healthy run ticks at least that
    # often) and at one second.
    gaps = [b - a for a, b in zip(timestamps, timestamps[1:]) if b > a]
    median_gap = _median(gaps)
    threshold = stall_factor * max(median_gap, min_interval, 1.0)

    shards: list[ShardView] = []
    for shard in sorted(shard_events):
        state = shard_events[shard]
        last_ts = shard_last[shard]
        pid = shard_pid.get(shard)
        if shard_done_flag.get(shard) or run_complete:
            shard_state = "done"
        elif not pid_probe(pid):
            shard_state = "dead"
        elif (now - last_ts) > threshold:
            shard_state = "stalled"
        else:
            shard_state = "running"
        shards.append(
            ShardView(
                shard=shard,
                done=int(state.get("done", 0)),
                total=int(state.get("total", 0)),
                trials_done=int(state.get("trials_done", 0)),
                trials_per_sec=float(state.get("trials_per_sec", 0.0)),
                cache_hits=int(state.get("cache_hits", 0)),
                wall_seconds=float(state.get("wall_seconds", 0.0)),
                last_ts=last_ts,
                pid=pid,
                state=shard_state,
                detail=shard_detail.get(shard, ""),
            )
        )

    span_seconds = (timestamps[-1] - timestamps[0]) if len(timestamps) > 1 else 0.0
    return WatchView(
        campaign=campaign,
        plan_hash=plan_hash,
        n_items=n_items,
        baseline=baseline,
        shards=tuple(shards),
        run_complete=run_complete,
        run_reported_complete=run_reported_complete,
        partition=partition,
        rate=rate,
        eta_seconds=eta,
        span_seconds=span_seconds,
        n_events=len(run),
        source="progress",
        now=now,
    )


def store_fallback_view(store_dir: str | Path, now: float | None = None) -> WatchView:
    """Static completion view from the store itself (no progress stream)."""
    from repro.campaign.orchestrator import CampaignOrchestrator
    from repro.campaign.store import CampaignStore

    status = CampaignOrchestrator(CampaignStore(store_dir, create=False)).status()
    shards = tuple(
        ShardView(
            shard=shard.index,
            done=shard.n_completed,
            total=shard.n_points,
            state="done" if shard.complete else "running",
        )
        for shard in status.shards
    )
    return WatchView(
        campaign=status.name,
        plan_hash=status.plan_hash,
        n_items=status.n_items,
        baseline=0,
        shards=shards,
        run_complete=status.complete,
        run_reported_complete=status.complete,
        source="store",
        now=time.time() if now is None else now,
    )


def load_view(
    store_dir: str | Path,
    now: float | None = None,
    stall_factor: float = DEFAULT_STALL_FACTOR,
) -> WatchView:
    """The current view of a store: event stream, or store fallback."""
    events = read_progress(store_dir)
    if events:
        return analyze_progress(events, now=now, stall_factor=stall_factor)
    return store_fallback_view(store_dir, now=now)


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _format_eta(seconds: float | None) -> str:
    if seconds is None:
        return "--"
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, rest = divmod(seconds, 60.0)
    if minutes < 60:
        return f"{int(minutes)}m{rest:02.0f}s"
    hours, minutes = divmod(minutes, 60.0)
    return f"{int(hours)}h{int(minutes):02d}m"


def _progress_bar(percent: float, width: int = 24) -> str:
    filled = int(round(width * min(100.0, max(0.0, percent)) / 100.0))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def render_view(view: WatchView) -> str:
    """Multi-line text rendering of one watch instant."""
    lines: list[str] = []
    title = view.campaign or "campaign"
    plan = f" (plan {view.plan_hash[:12]}…)" if view.plan_hash else ""
    source = " [store fallback — no progress stream]" if view.source == "store" else ""
    lines.append(f"watching {title!s}{plan}{source}")
    rate = f"{view.rate:.2f}/s" if view.rate is not None else "--"
    lines.append(
        f"  {_progress_bar(view.percent)} {view.completed}/{view.n_items} "
        f"scenarios ({view.percent:.1f}%)  rate {rate}  "
        f"eta {_format_eta(view.eta_seconds)}"
    )
    if view.baseline:
        lines.append(f"  baseline: {view.baseline} already satisfied "
                     "(stored or cache-replayed)")
    for shard in view.shards:
        tps = f"{shard.trials_per_sec:.1f} trials/s" if shard.trials_per_sec else ""
        detail = f"  {shard.detail}" if shard.detail and shard.state == "running" else ""
        flags = {"stalled": "  ** STALLED **", "dead": "  ** WORKER DEAD **"}.get(
            shard.state, ""
        )
        lines.append(
            f"  shard {shard.shard:>3}: {shard.done}/{shard.total} "
            f"[{shard.state}] {tps}{detail}{flags}"
        )
    if view.run_complete and view.partition is not None:
        lines.append(
            f"  run complete: executed {view.partition.get('executed', 0)}, "
            f"from cache {view.partition.get('from_cache', 0)}, "
            f"skipped {view.partition.get('skipped', 0)}"
        )
    elif view.complete:
        lines.append("  all scenarios stored")
    stalled = view.stalled_shards
    if stalled:
        lines.append(
            "  stall check: "
            + ", ".join(f"shard {s.shard} is {s.state}" for s in stalled)
        )
    return "\n".join(lines)


def view_metrics(view: WatchView) -> MetricsSnapshot:
    """The view as gauges, for the ``--serve-metrics`` scrape endpoint."""
    gauges: dict[str, float] = {
        metric_key("watch.items_total", {}): float(view.n_items),
        metric_key("watch.items_completed", {}): float(view.completed),
        metric_key("watch.percent", {}): view.percent,
        metric_key("watch.complete", {}): 1.0 if view.complete else 0.0,
        metric_key("watch.stalled_shards", {}): float(len(view.stalled_shards)),
    }
    if view.rate is not None:
        gauges[metric_key("watch.rate_per_second", {})] = view.rate
    if view.eta_seconds is not None:
        gauges[metric_key("watch.eta_seconds", {})] = view.eta_seconds
    for shard in view.shards:
        labels = {"shard": str(shard.shard)}
        gauges[metric_key("watch.shard.done", labels)] = float(shard.done)
        gauges[metric_key("watch.shard.total", labels)] = float(shard.total)
        gauges[metric_key("watch.shard.trials_per_second", labels)] = (
            shard.trials_per_sec
        )
        gauges[metric_key("watch.shard.stalled", labels)] = (
            1.0 if shard.state in ("stalled", "dead") else 0.0
        )
    return MetricsSnapshot(counters={}, gauges=gauges, histograms={})


# ----------------------------------------------------------------------
# scrape endpoint
# ----------------------------------------------------------------------
class MetricsServer:
    """Plain-stdlib HTTP endpoint serving a live OpenMetrics exposition.

    ``GET /metrics`` renders whatever snapshot ``supplier`` returns at
    scrape time; ``GET /healthz`` answers ``ok``.  Runs on a daemon
    thread; bind with ``port=0`` to pick a free port (tests).
    """

    def __init__(
        self,
        supplier: Callable[[], MetricsSnapshot],
        port: int = 0,
        host: str = "127.0.0.1",
    ) -> None:
        server = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
                if self.path.split("?")[0] in ("/metrics", "/"):
                    try:
                        body = render_openmetrics(server._supplier()).encode("utf-8")
                    except Exception as error:  # surface, don't kill the thread
                        self.send_error(500, f"metrics rendering failed: {error}")
                        return
                    self.send_response(200)
                    self.send_header("Content-Type", OPENMETRICS_CONTENT_TYPE)
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                elif self.path == "/healthz":
                    body = b"ok\n"
                    self.send_response(200)
                    self.send_header("Content-Type", "text/plain")
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                else:
                    self.send_error(404)

            def log_message(self, *args: Any) -> None:  # silence stderr
                pass

        self._supplier = supplier
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-metrics", daemon=True
        )
        self._thread.start()

    @property
    def port(self) -> int:
        """The bound TCP port."""
        return self._httpd.server_address[1]

    def close(self) -> None:
        """Stop serving and release the socket."""
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ----------------------------------------------------------------------
# CLI loop
# ----------------------------------------------------------------------
def run_watch(
    store_dir: str | Path,
    once: bool = False,
    json_output: bool = False,
    interval: float = DEFAULT_WATCH_INTERVAL,
    stall_factor: float = DEFAULT_STALL_FACTOR,
    serve_port: int | None = None,
    out=None,
) -> int:
    """The ``repro campaign watch`` command.

    Re-reads the stream when it grows (cheap ``stat`` poll between
    renders), renders every ``interval`` seconds, and exits 0 once the
    watched run completes (immediately with ``--once``).  Returns 1 from
    ``--once`` when the run is incomplete or any shard looks stalled.
    """
    stream = sys.stdout if out is None else out
    directory = Path(store_dir)
    if not directory.is_dir():
        raise ConfigurationError(f"no campaign store at {directory}")

    server: MetricsServer | None = None
    if serve_port is not None:
        # The scrape endpoint recomputes the view per scrape, so it stays
        # live even between the watcher's own renders.
        server = MetricsServer(
            lambda: view_metrics(load_view(directory, stall_factor=stall_factor)),
            port=serve_port,
        )
        print(
            f"serving OpenMetrics on http://127.0.0.1:{server.port}/metrics",
            file=stream,
        )

    try:
        last_size = -1
        view = load_view(directory, stall_factor=stall_factor)
        while True:
            if json_output:
                print(json.dumps(view.to_dict(), sort_keys=True), file=stream)
            else:
                print(render_view(view), file=stream)
            if once:
                return 0 if view.complete and not view.stalled_shards else 1
            if view.run_complete:
                return 0
            if hasattr(stream, "flush"):
                stream.flush()
            time.sleep(max(0.1, float(interval)))
            size = stream_size(directory)
            if size != last_size or view.source == "store":
                last_size = size
                view = load_view(directory, stall_factor=stall_factor)
            else:
                # No new bytes: re-analyze with a fresh clock so stall
                # states can flip without new events.
                events = read_progress(directory)
                view = (
                    analyze_progress(events, stall_factor=stall_factor)
                    if events
                    else store_fallback_view(directory)
                )
    except KeyboardInterrupt:
        return 0
    finally:
        if server is not None:
            server.close()


__all__ = [
    "DEFAULT_WATCH_INTERVAL",
    "DEFAULT_STALL_FACTOR",
    "RATE_WINDOW_SECONDS",
    "ShardView",
    "WatchView",
    "analyze_progress",
    "store_fallback_view",
    "load_view",
    "render_view",
    "view_metrics",
    "MetricsServer",
    "run_watch",
]
