"""Small helpers shared by the benchmark modules (kept outside conftest so
that they can be imported explicitly without relying on pytest's conftest
module injection)."""

from __future__ import annotations

import json
import os
import subprocess
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.engine import clear_context_caches, run_trial
from repro.grid.matrices import reduced_measurement_matrix
from repro.mtd.design import max_spa_perturbation, spa_of_reactances

#: Headline-metric preference per BENCH payload, first match wins.  A copy
#: of scripts/check_bench_manifest.py's tuple (that script must import
#: without repro/numpy, this module needs both) — a tier-1 test pins the
#: two in sync.
KEY_METRIC_CANDIDATES = (
    "overhead_ratio",
    "speedup",
    "min_speedup",
    "trials_per_second",
    "campaign_seconds",
    "incremental_seconds",
    "day_seconds",
    "sweep_seconds",
    "engine_seconds",
    "total_seconds",
    "table_seconds",
    "opf_seconds",
    "redispatch_seconds",
    "elapsed_seconds",
)


def print_banner(title: str) -> None:
    """Visual separator used by every benchmark's report."""
    print("\n" + "=" * 78)
    print(title)
    print("=" * 78)


def time_call(fn: Callable, *args, **kwargs) -> tuple[Any, float]:
    """Run ``fn(*args, **kwargs)`` and return ``(result, elapsed_seconds)``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def cold_context_seconds(spec) -> float:
    """Seconds to build ``spec``'s scenario context from cleared caches.

    Runs trial 0 after :func:`~repro.engine.clear_context_caches`, so the
    context (network, baseline OPF, attacker side, pinned ensemble) is
    built whatever an earlier benchmark of the same session left cached;
    the trial itself is a few milliseconds of it.  A benchmark that times
    its trials afterwards then times them on a warm context, in any run
    order.
    """
    clear_context_caches()
    return time_call(run_trial, spec, 0)[1]


def emit_bench_json(name: str, payload: dict) -> Path:
    """Write a ``BENCH_<name>.json`` timing record and return its path.

    The record lands in the directory named by the ``REPRO_BENCH_OUT``
    environment variable (default: the ``benchmarks/`` directory itself),
    so every figure benchmark leaves a machine-readable perf trace next to
    its printed tables.  CI's docs job runs the fig6a benchmark in smoke
    mode and asserts the file appears, so BENCH emission cannot silently
    break.
    """
    out_dir = Path(os.environ.get("REPRO_BENCH_OUT", Path(__file__).resolve().parent))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    record = {"name": name, "created_unix": time.time(), **payload}
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"[bench] wrote {path}")
    _append_history(out_dir, record)
    return path


def _git_sha() -> str | None:
    """Short sha of the working tree, or ``None`` outside a git checkout."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parent,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = result.stdout.strip()
    return sha if result.returncode == 0 and sha else None


def _append_history(out_dir: Path, record: dict) -> None:
    """Append the record's headline metric to the perf timeline.

    One fsync'd line per emission into ``history.ndjson`` next to the
    BENCH records; ``scripts/check_bench_manifest.py --compare`` reads it
    back to flag regressions.  Records with no recognised headline metric
    are skipped (nothing to trend).  A record's ``history_seconds``
    mapping, if any, rides along as the line's ``seconds``: the absolute
    timings behind a ratio headline.
    """
    for candidate in KEY_METRIC_CANDIDATES:
        value = record.get(candidate)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            metric, metric_value = candidate, float(value)
            break
    else:
        return
    entry = {
        "name": record["name"],
        "created_unix": record["created_unix"],
        "git_sha": _git_sha(),
        "scale": record.get("scale"),
        "metric": metric,
        "value": metric_value,
    }
    if isinstance(record.get("history_seconds"), dict):
        entry["seconds"] = record["history_seconds"]
    line = (json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n").encode()
    with (out_dir / "history.ndjson").open("ab") as handle:
        handle.write(line)
        handle.flush()
        os.fsync(handle.fileno())


def gamma_grid(upper: float, step: float = 0.05) -> np.ndarray:
    """The γ_th sweep used by the Fig. 6 / Fig. 9 benchmarks."""
    return np.arange(step, upper + 1e-9, step)


def exact_angle_perturbations(network, base_reactances, gammas):
    """Perturbations hitting each target subspace angle (nearly) exactly.

    The Fig. 6 experiments study effectiveness as a function of the angle
    alone, so the perturbation magnitude is what matters, not its cost.  The
    helper walks along the segment from the base reactances towards the
    maximum-angle perturbation and bisects to each requested angle, yielding
    a clean, monotone x-axis.

    Returns a list of ``(achieved_angle, reactance_vector)`` pairs; targets
    beyond the achievable range are skipped.
    """
    base = np.asarray(base_reactances, dtype=float)
    far = max_spa_perturbation(
        network, attacker_reactances=base, require_feasible_dispatch=False, seed=0
    ).perturbed_reactances
    attacker_matrix = reduced_measurement_matrix(network, base)

    def angle_at(t: float) -> float:
        return spa_of_reactances(network, attacker_matrix, base + t * (far - base))

    achievable = angle_at(1.0)
    results = []
    for gamma in gammas:
        if gamma > achievable + 1e-9:
            continue
        t_low, t_high = 0.0, 1.0
        for _ in range(40):
            t_mid = 0.5 * (t_low + t_high)
            if angle_at(t_mid) >= gamma:
                t_high = t_mid
            else:
                t_low = t_mid
        x = base + t_high * (far - base)
        results.append((angle_at(t_high), x))
    return results


__all__ = [
    "print_banner",
    "time_call",
    "cold_context_seconds",
    "emit_bench_json",
    "gamma_grid",
    "exact_angle_perturbations",
]
