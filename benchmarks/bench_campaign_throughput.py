"""Campaign orchestrator throughput — beyond the paper.

Runs a parameter-grid campaign (random-MTD Monte Carlo on the IEEE 14-bus
case) through the full persistent pipeline — plan expansion, sharded
execution, ndjson segment store — and records sustained scenarios/sec, the
cost of the durability layer relative to the in-memory engine, and the
replay speed of a completed campaign (a resumed campaign must execute
nothing and answer from the store).

The point budget follows the benchmark scale (``REPRO_BENCH_SCALE``):
smoke exercises the plumbing, quick/full measure sustained throughput.
"""

from __future__ import annotations

import tempfile

from repro.campaign import CampaignDefinition, CampaignOrchestrator, plan_campaign
from repro.campaign.query import query_results
from repro.engine import AttackSpec, GridSpec, MTDSpec, ScenarioEngine, ScenarioSpec

from _bench_utils import emit_bench_json, print_banner, time_call

#: Grid-point budget per benchmark scale.
POINTS_BY_SCALE = {"smoke": 8, "quick": 64, "full": 128}

#: Interleaved repeats per timed arm.  The overhead ratio is taken over
#: the per-arm minima: a single-shot ratio is at the mercy of scheduler
#: preemption and of cold-start asymmetry (the campaign arm used to run
#: first and alone pay the process-global cache warmup), which made the
#: ``store_overhead`` assert flaky on loaded machines.
REPEATS = 3


def campaign_definition(n_points: int, n_attacks: int) -> CampaignDefinition:
    base = ScenarioSpec(
        name="bench-campaign",
        grid=GridSpec(case="ieee14", baseline="dc-opf"),
        attack=AttackSpec(n_attacks=min(n_attacks, 100), seed=1),
        mtd=MTDSpec(policy="random", max_relative_change=0.1),
        n_trials=2,
        base_seed=31,
        deltas=(0.5, 0.9),
        metric="eta(0.9)",
    )
    ratios = tuple(round(0.04 + 0.002 * k, 3) for k in range(n_points // 4))
    changes = (0.02, 0.05, 0.1, 0.2)
    return CampaignDefinition(
        name="bench-campaign",
        base=base,
        grids=({"attack.ratio": ratios, "mtd.max_relative_change": changes},),
        shard_size=8,
    )


def run_campaign_into(store_dir: str, definition: CampaignDefinition):
    orchestrator = CampaignOrchestrator(store_dir, n_workers=1)
    return orchestrator.run(definition)


def bench_campaign_throughput(benchmark, scale):
    """Time a full campaign run, an in-memory reference, and the replay."""
    n_points = POINTS_BY_SCALE.get(scale.name, POINTS_BY_SCALE["quick"])
    definition = campaign_definition(n_points, scale.n_attacks)
    plan = plan_campaign(definition)

    with tempfile.TemporaryDirectory(prefix="bench-campaign-") as tmp:
        store_dir = f"{tmp}/bench.campaign"
        report, campaign_first = benchmark.pedantic(
            time_call, args=(run_campaign_into, store_dir, definition),
            rounds=1, iterations=1,
        )

        # In-memory reference: the same points through the bare engine.
        # Both arms repeat REPEATS times (a campaign resumes rather than
        # re-executes against an existing store, so every campaign repeat
        # gets a fresh store directory) and the ratio is taken over the
        # per-arm minima, which all benefit equally from warm caches.
        engine = ScenarioEngine()
        campaign_times = [campaign_first]
        engine_times = [time_call(engine.run_suite, plan.points)[1]]
        for repeat in range(1, REPEATS):
            _, campaign_s = time_call(
                run_campaign_into, f"{tmp}/bench-{repeat}.campaign", definition
            )
            campaign_times.append(campaign_s)
            engine_times.append(time_call(engine.run_suite, plan.points)[1])
        campaign_seconds = min(campaign_times)
        engine_seconds = min(engine_times)

        # Replay: a completed campaign resumes without executing anything.
        orchestrator = CampaignOrchestrator(store_dir)
        replay, replay_seconds = time_call(orchestrator.resume)

        # Query throughput: the first query pays the plan expansion (for
        # plan-order sorting); repeated queries must answer from the
        # per-store memo instead of re-expanding and re-hashing the plan.
        # Timing alone cannot prove that at small plan sizes, so the warm
        # loop also counts plan expansions directly.
        _, plan_seconds = time_call(plan_campaign, definition)
        store = orchestrator.store
        _, cold_query_seconds = time_call(query_results, store)
        import repro.campaign.plan as plan_module

        real_plan_campaign = plan_module.plan_campaign
        warm_plan_expansions = 0

        def counting_plan_campaign(definition):
            nonlocal warm_plan_expansions
            warm_plan_expansions += 1
            return real_plan_campaign(definition)

        plan_module.plan_campaign = counting_plan_campaign
        try:
            warm_times = [time_call(query_results, store)[1] for _ in range(5)]
        finally:
            plan_module.plan_campaign = real_plan_campaign
        warm_query_seconds = sum(warm_times) / len(warm_times)

    scenarios_per_sec = plan.n_items / campaign_seconds if campaign_seconds > 0 else 0.0
    store_overhead = campaign_seconds / engine_seconds if engine_seconds > 0 else 1.0

    print_banner(
        f"Campaign throughput — {plan.n_items} scenarios x "
        f"{definition.base.n_trials} trials, IEEE 14-bus, shard size "
        f"{definition.shard_size}"
    )
    print(f"campaign run : {campaign_seconds:.3f}s  "
          f"({scenarios_per_sec:.1f} scenarios/sec, durable, "
          f"best of {REPEATS})")
    print(f"bare engine  : {engine_seconds:.3f}s  "
          f"(store overhead {store_overhead:.2f}x, best of {REPEATS})")
    print(f"replay/resume: {replay_seconds:.3f}s  "
          f"({len(replay.executed)} executed, {len(replay.skipped)} skipped)")
    print(f"query        : cold {cold_query_seconds*1e3:.1f}ms (incl. "
          f"{plan_seconds*1e3:.1f}ms plan expansion), warm "
          f"{warm_query_seconds*1e3:.1f}ms (plan-order memoised)")

    emit_bench_json(
        "campaign",
        {
            "benchmark": "campaign_throughput",
            "scale": scale.name,
            "n_scenarios": plan.n_items,
            "n_trials_per_scenario": definition.base.n_trials,
            "shard_size": definition.shard_size,
            "repeats": REPEATS,
            "campaign_seconds": campaign_seconds,
            "engine_seconds": engine_seconds,
            "replay_seconds": replay_seconds,
            "scenarios_per_sec": scenarios_per_sec,
            "store_overhead": store_overhead,
            "plan_seconds": plan_seconds,
            "cold_query_seconds": cold_query_seconds,
            "warm_query_seconds": warm_query_seconds,
        },
    )

    assert report.complete
    assert len(report.executed) == plan.n_items
    assert replay.executed == () and len(replay.skipped) == plan.n_items
    assert scenarios_per_sec > 0
    # The durability layer must stay cheap next to the trials themselves.
    if scale.name != "smoke":
        assert store_overhead < 5.0, (
            f"campaign store overhead {store_overhead:.2f}x over the bare engine"
        )
    # Repeated queries must not re-pay the O(plan) expansion: with the
    # plan-order memo warm, the 5-query warm loop performs zero plan
    # expansions (counted, not timed — robust at every scale).
    assert warm_plan_expansions == 0, (
        f"{warm_plan_expansions} plan expansion(s) during warm queries: "
        "repeated queries re-expand the campaign plan"
    )
