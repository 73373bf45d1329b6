#!/usr/bin/env python3
"""Campaign walkthrough: a durable, sharded, resumable parameter sweep.

The script runs the shipped Fig. 7 campaign (`fig7_campaign.json`, the
paper's random-MTD experiment swept over the perturbation magnitude bound)
at a reduced budget, demonstrating the full campaign lifecycle:

1. **plan** — the definition expands into a deterministic, content-hashed,
   sharded work plan;
2. **interrupt** — the first invocation stops after two shards
   (`shard_limit`, standing in for a crash or `kill -9`);
3. **resume** — the second invocation executes *only* the missing shards,
   verified by spec-hash accounting;
4. **query** — grouped `MonteCarloSummary` roll-ups and a CSV export come
   straight from the on-disk store, bit-identical to the in-memory sweep.

Run with ``python examples/campaign_sweep.py`` (takes well under 30 s).
The same lifecycle is available from the command line::

    python -m repro campaign run examples/fig7_campaign.json \
        --store fig7.campaign --trials 2 --attacks 40
    python -m repro campaign resume --store fig7.campaign
    python -m repro campaign query --store fig7.campaign \
        --metric "eta(0.9)" --group-by mtd.max_relative_change
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.analysis.reporting import format_table
from repro.campaign import (
    CampaignDefinition,
    CampaignOrchestrator,
    plan_campaign,
    query_results,
    summarize_groups,
)
from repro.campaign.query import export_csv

#: Reduced Monte-Carlo budgets so the walkthrough stays fast.
QUICK = {"attack.n_attacks": 40, "n_trials": 3}


def main() -> None:
    definition_path = Path(__file__).resolve().parent / "fig7_campaign.json"
    definition = CampaignDefinition.from_json(definition_path.read_text())
    definition = definition.with_overrides(QUICK)

    plan = plan_campaign(definition)
    print(f"campaign {definition.name!r}: {plan.n_points} scenario points, "
          f"{len(plan.shards)} shards of <= {definition.shard_size}, "
          f"plan hash {plan.plan_hash[:12]}…")

    with tempfile.TemporaryDirectory(prefix="repro-campaign-") as tmp:
        store_dir = f"{tmp}/fig7.campaign"
        orchestrator = CampaignOrchestrator(store_dir)

        # ------------------------------------------------------------------
        # 1. Interrupted run: stop after two shards (simulated crash).
        # ------------------------------------------------------------------
        first = orchestrator.run(definition, shard_limit=2)
        status = orchestrator.status()
        print(f"\ninterrupted after {len(first.executed)} scenarios: "
              f"{status.n_completed}/{status.n_items} complete, "
              f"{status.n_missing} missing")

        # ------------------------------------------------------------------
        # 2. Resume: only the missing shards execute.
        # ------------------------------------------------------------------
        second = orchestrator.resume()
        overlap = set(first.executed) & set(second.executed)
        print(f"resume executed {len(second.executed)}, skipped "
              f"{len(second.skipped)} already-stored scenarios "
              f"(re-executed overlap: {len(overlap)})")
        assert not overlap and orchestrator.status().complete

        # ------------------------------------------------------------------
        # 3. Query the store: grouped roll-ups + CSV export.
        # ------------------------------------------------------------------
        results = query_results(orchestrator.store)
        groups = summarize_groups(
            results, metric="eta(0.9)", group_by=["mtd.max_relative_change"]
        )
        print()
        print(format_table(
            ["max rel. change", "scenarios", "trials", "mean eta'(0.9)", "std"],
            [[key[0], g.n_scenarios, g.summary.n_trials,
              round(g.summary.mean, 3), round(g.summary.std, 3)]
             for g in groups for key in [g.key]],
            title="Random-MTD effectiveness vs perturbation magnitude "
                  "(paper Fig. 7, campaign form)",
        ))

        csv_path = export_csv(
            f"{tmp}/fig7.csv", results, metric="eta(0.9)",
            fields=["mtd.max_relative_change"],
        )
        print(f"\nper-scenario summary exported to {csv_path.name} "
              f"({len(results)} rows); store stats: {orchestrator.store.stats()}")


if __name__ == "__main__":
    main()
