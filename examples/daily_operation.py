#!/usr/bin/env python3
"""Hourly MTD operation over a full day (paper Section VII-C, Figs. 10-11).

The IEEE 14-bus system is driven with a synthetic NYISO-like winter-day load
profile through the time-series operation engine.  At each hour the operator:

* solves the no-MTD optimal power flow (the cost baseline, carrying the
  previous hour's D-FACTS settings when re-optimising buys nothing; the
  first hour carries over from the previous day's last hour),
* assumes the attacker's knowledge of the measurement matrix is one hour
  stale (the first hour wraps around to the previous day's last hour),
* tunes the subspace-angle threshold — by galloping bisection over the
  γ-grid — to the smallest value whose designed perturbation achieves
  ``η'(0.9) ≥ 0.9``, and
* pays the resulting operational-cost premium.

The script prints the per-hour cost premium alongside the total load
(Fig. 10) and the three subspace angles of Fig. 11.

Run with ``python examples/daily_operation.py``.  The full 24-hour day takes
a minute or two; pass an integer argument to simulate fewer hours, e.g.
``python examples/daily_operation.py 6``.  For a durable, resumable version
of the same run, use the campaign CLI instead::

    python -m repro suites run fig10 --store fig10.campaign
"""

from __future__ import annotations

import os
import sys

import numpy as np

from repro.analysis.reporting import format_table
from repro.timeseries import OperationEngine, ProfileSpec, daily_operation_spec

HOUR_LABELS = [
    "1AM", "2AM", "3AM", "4AM", "5AM", "6AM", "7AM", "8AM", "9AM", "10AM",
    "11AM", "12PM", "1PM", "2PM", "3PM", "4PM", "5PM", "6PM", "7PM", "8PM",
    "9PM", "10PM", "11PM", "12AM",
]


def main() -> None:
    n_hours = 24
    if len(sys.argv) > 1:
        n_hours = max(1, min(24, int(sys.argv[1])))

    spec = daily_operation_spec(
        name="daily-operation-example",
        case="ieee14",
        profile=ProfileSpec(hours=None if n_hours >= 24 else n_hours),
        n_attacks=300,
        seed=0,
    )
    n_workers = max(1, min(4, os.cpu_count() or 1))
    result = OperationEngine(n_workers=n_workers).run(spec, use_cache=False)

    rows = []
    for record in result:
        rows.append(
            [
                HOUR_LABELS[record.hour_of_day],
                round(record.total_load_mw, 1),
                round(record.cost_increase_percent, 2),
                round(record.gamma_threshold, 2),
                round(record.achieved_eta, 2),
                round(record.spa_attacker_vs_baseline, 3),
                round(record.spa_attacker_vs_mtd, 3),
                round(record.spa_baseline_vs_mtd, 3),
            ]
        )
    print(
        format_table(
            ["Hour", "Load (MW)", "Cost +%", "gamma_th", "eta'(0.9)",
             "g(Ht,Ht')", "g(Ht,H't')", "g(Ht',H't')"],
            rows,
            title="Daily MTD operation (Figs. 10 and 11)",
        )
    )

    costs = result.cost_increases_percent()
    loads = result.loads()
    print(f"\nPeak-load hour: {HOUR_LABELS[int(np.argmax(loads)) % 24]} "
          f"({loads.max():.0f} MW), premium {costs[int(np.argmax(loads))]:.2f}%")
    print(f"Most expensive MTD hour: {HOUR_LABELS[result.peak_cost_hour() % 24]} "
          f"({costs.max():.2f}%)")
    print(f"Average daily premium: {costs.mean():.2f}%")
    print(f"Tuning probes spent: {result.total_tuning_probes()} across "
          f"{len(result)} hours ({n_workers} worker(s)).")
    print(
        "\nAs in the paper, the premium is concentrated in the high-load hours\n"
        "(congestion forces a real redispatch), while off-peak the same level of\n"
        "protection is essentially free.  The no-MTD matrices of consecutive\n"
        "hours stay nearly aligned (small g(Ht,Ht')), which is what makes the\n"
        "attacker's one-hour-stale knowledge a good proxy for the current system."
    )


if __name__ == "__main__":
    main()
