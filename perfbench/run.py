"""Paper-workload benchmark: end-to-end trial metrics, or a per-layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload fig8-keyspace --seed 1 --seconds 55 --trace 0

One run

1. spends ``--seconds`` seconds alternating ``SETUP_REPEATS`` cold starts
   with fresh trials of the workload: a cold start clears the per-process
   caches and times the scenario up to its first trial result, and the
   trials in between run back to back on the warm caches;
2. reports ``setup_s``, the fastest cold start, and ``trial_p10_ms``, the
   10th percentile of the trials' latencies;
3. re-runs the first measured trials and the last under an oracle capture,
   requiring bit-identical metrics and agreement with an independent
   re-computation (:mod:`oracle`);
4. prints one JSON object as its last line of output.

Both times are taken from the fast end of their samples because on a
shared host the same work runs up to twice as slowly in phases lasting
from a second to most of a run; the fast end moves least from run to run
(see ``README.md``).  Spreading the cold starts over the whole run, rather
than taking them back to back, lets them meet the host's fast phases.
With ``--trace 1`` the same run records per-layer self times
(:mod:`tracing`) and reports them instead of the end-to-end metrics.  BLAS
runs single threaded so that runs on a shared machine stay comparable.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Cold scenario starts per run, evenly spread over it; ``setup_s`` is
#: the fastest.
SETUP_REPEATS = 20
#: Percentile of the trial latencies reported as ``trial_p10_ms``.
TRIAL_PERCENTILE = 10
#: Least trials per run, so that the percentile has samples on both sides.
MIN_TRIALS = 20
#: Leading measured trials re-run under the oracle (plus the last one).
ORACLE_LEADING = 2


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from repro.engine import clear_context_caches, run_trial

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    failed = 0

    def run_unit(phase: str, spec, index: int) -> tuple[float, dict | None]:
        """Time one trial; check its invariants outside the timed call."""
        nonlocal failed
        start = time.perf_counter()
        try:
            if tracer is not None:
                result = tracer.run_unit(phase, run_trial, spec, index)
            else:
                result = run_trial(spec, index)
        except Exception:
            elapsed = time.perf_counter() - start
            traceback.print_exc()
            failed += 1
            return elapsed, None
        elapsed = time.perf_counter() - start
        try:
            workload.check(spec, result.metrics)
        except Exception:
            traceback.print_exc()
            failed += 1
            return elapsed, None
        return elapsed, dict(result.metrics)

    if tracer is not None:
        tracer.install()

    spec = workload.spec(args.seed)
    setup_times: list[float] = []
    latencies: list[float] = []
    measured = []
    index = 0
    start = time.perf_counter()
    while True:
        now = time.perf_counter() - start
        if len(setup_times) < SETUP_REPEATS and now >= len(setup_times) * args.seconds / SETUP_REPEATS:
            clear_context_caches()
            seconds, _ = run_unit("setup", spec, 0)
            setup_times.append(seconds)
            continue
        if now >= args.seconds and len(setup_times) == SETUP_REPEATS and len(latencies) >= MIN_TRIALS:
            break
        # Trial indices never repeat, so no trial is served from a memo.
        index += 1
        seconds, metrics = run_unit("trial", spec, index)
        latencies.append(seconds)
        if metrics is not None:
            measured.append((index, metrics))

    if tracer is not None:
        tracer.uninstall()
    oracle_failures = 0
    for index, metrics in measured[:ORACLE_LEADING] + measured[-1:]:
        try:
            with workloads.capture(spec) as capture:
                again = run_trial(spec, index).metrics
            if dict(again) != metrics:
                raise AssertionError(f"trial {index} of {spec.name} is not reproducible")
            workload.check_oracle(spec, metrics, capture.evaluations())
        except Exception:
            traceback.print_exc()
            oracle_failures += 1

    n = len(latencies)
    trial_s = sum(latencies)
    throughput = len(measured) / trial_s if trial_s > 0 else 0.0
    if tracer is None:
        cut = statistics.quantiles(latencies, n=100)[TRIAL_PERCENTILE - 1]
        values = {
            "trial_p10_ms": ("ms", 1000.0 * cut),
            "setup_s": ("s", min(setup_times)),
        }
    else:
        values = _layer_metrics(tracer, n)
        values["traced_trials_per_s"] = ("1/s", throughput)

    print(
        f"{args.workload} seed={args.seed}: {n} trials in {trial_s:.2f} s "
        f"(median {1000.0 * statistics.median(latencies):.3f} ms), "
        f"setup {', '.join(f'{s:.3f}' for s in setup_times)} s, "
        f"{failed} failed, {oracle_failures} oracle failures"
    )
    result = {
        "correct": failed == 0 and oracle_failures == 0 and bool(measured),
        "attempted": SETUP_REPEATS + n,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (unit, value) in values.items()},
    }
    print(json.dumps(result))
    return 0


def _layer_metrics(tracer: tracing.Tracer, n: int) -> dict[str, tuple[str, float]]:
    """Per-layer self times (ms per trial, ms per set-up) and entries per trial."""
    values: dict[str, tuple[str, float]] = {}
    for layer in (*tracing.LAYERS, tracing.UNIT_LAYER):
        values[f"{layer}_ms_per_trial"] = ("ms", 1000.0 * tracer.self_s[("trial", layer)] / n)
        values[f"setup_{layer}_ms"] = (
            "ms",
            1000.0 * tracer.self_s[("setup", layer)] / SETUP_REPEATS,
        )
    for layer in tracing.LAYERS:
        values[f"{layer}_calls_per_trial"] = ("count", tracer.calls[("trial", layer)] / n)
    return values


if __name__ == "__main__":
    sys.exit(main())
