#!/usr/bin/env python3
"""Scenario engine walkthrough: a multi-case suite, run parallel and cached.

The script builds a suite spanning four grids — the paper's IEEE 14- and
30-bus cases plus the 57- and 118-bus synthetic networks from the case
registry — and runs it three ways:

1. serially, as a correctness reference;
2. on a process pool, verifying the results are **bit-identical** to the
   serial run (per-trial seed-spawned RNG streams make execution order
   irrelevant);
3. again with an on-disk cache, showing the whole suite replays from disk
   without re-executing a single trial.

Run with ``python examples/scenario_suite.py``.
"""

from __future__ import annotations

import os
import tempfile

from repro import ScenarioEngine, scenario_suite
from repro.analysis.reporting import format_table
from repro.engine.results import merge_metric

#: Demo overrides: a reduced attack budget, but the paper's Monte-Carlo
#: detection procedure (noisy measurement draws per attack) instead of the
#: analytic shortcut — the compute-heavy path the process pool exists for.
QUICK = {
    "attack.n_attacks": 24,
    "detector.method": "monte-carlo",
    "detector.n_noise_trials": 100,
}


#: The four grids this walkthrough covers.  The ``scale`` suite also holds
#: the 300- and 1354-bus points, whose trials take minutes, not seconds.
CASES = ("ieee14", "ieee30", "synthetic57", "synthetic118")


def main() -> None:
    suite = [
        spec.with_updates(QUICK)
        for spec in scenario_suite("scale")
        if spec.grid.case in CASES
    ]
    print("Suite:", ", ".join(spec.name for spec in suite))
    print("Spec hashes:", ", ".join(spec.content_hash()[:10] for spec in suite))

    # ------------------------------------------------------------------
    # 1. Serial reference run.
    # ------------------------------------------------------------------
    serial_engine = ScenarioEngine(n_workers=1)
    serial = serial_engine.run_suite(suite)

    # ------------------------------------------------------------------
    # 2. Parallel run — must be bit-identical.
    # ------------------------------------------------------------------
    parallel_engine = ScenarioEngine(n_workers=4)
    parallel = parallel_engine.run_suite(suite)
    identical = all(a.trials == b.trials for a, b in zip(serial, parallel))
    print(f"\nParallel results identical to serial: {identical}")
    assert identical, "engine determinism contract violated"

    rows = []
    for s, p in zip(serial, parallel):
        eta = p.summarize("eta(0.9)")
        spa = p.summarize("spa")
        rows.append(
            [p.spec.name, p.spec.grid.case, p.n_trials,
             round(eta.mean, 3), round(eta.median, 3),
             round(spa.median, 4), round(spa.percentile(95), 4),
             f"{s.elapsed_seconds:.1f}s", f"{p.elapsed_seconds:.1f}s"]
        )
    print(
        format_table(
            ["scenario", "case", "trials", "mean eta'(0.9)", "median", "median spa",
             "p95 spa", "serial", "parallel"],
            rows,
            title="\nRandom-MTD Monte Carlo across grid sizes (per-trial attack "
                  "ensembles)",
        )
    )
    print(f"({os.cpu_count()} CPU(s) available — the parallel/serial ratio tracks "
          f"the core count; on one core the pool only proves determinism.)")
    pooled = merge_metric(parallel, "spa")
    print(f"Pooled achieved SPA over the whole suite: {pooled.size} trials, "
          f"max {pooled.max():.4f} rad")

    # ------------------------------------------------------------------
    # 3. Cached run — second invocation is free.
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory(prefix="repro-cache-") as tmp:
        cached_engine = ScenarioEngine(cache=tmp, n_workers=4)
        first = cached_engine.run_suite(suite)
        executed_after_first = cached_engine.executed_trials
        second = cached_engine.run_suite(suite)
        print(f"\nCache at {tmp}: {cached_engine.cache.stats()}")
        print(f"Trials executed in first pass: {executed_after_first}, "
              f"in second pass: {cached_engine.executed_trials - executed_after_first}")
        all_cached = all(result.from_cache for result in second)
        replayed = all(a.trials == b.trials for a, b in zip(first, second))
        print(f"Second pass served entirely from cache: {all_cached} "
              f"(results identical: {replayed})")
        assert all_cached and replayed
        assert cached_engine.executed_trials == executed_after_first


if __name__ == "__main__":
    main()
