"""Tests of campaign definitions and deterministic plan expansion/sharding."""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    CampaignDefinition,
    assign_shards,
    campaign_from_suite,
    available_campaigns,
    expand_sweep,
    plan_campaign,
    plan_sweep,
)
from repro.engine import (
    AttackSpec,
    GridSpec,
    MTDSpec,
    ScenarioSpec,
    available_scenarios,
    expand_grid,
    scenario_suite,
)
from repro.exceptions import ConfigurationError


def small_base(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="campaign-base",
        grid=GridSpec(case="ieee14", baseline="dc-opf"),
        attack=AttackSpec(n_attacks=8, seed=1),
        mtd=MTDSpec(policy="random", max_relative_change=0.1),
        n_trials=2,
        base_seed=7,
        deltas=(0.5, 0.9),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def small_definition(**overrides) -> CampaignDefinition:
    defaults = dict(
        name="test-campaign",
        base=small_base(),
        grids=(
            {"attack.ratio": (0.06, 0.08), "mtd.max_relative_change": (0.02, 0.1)},
        ),
        shard_size=3,
    )
    defaults.update(overrides)
    return CampaignDefinition(**defaults)


class TestCampaignDefinition:
    def test_json_round_trip(self):
        definition = small_definition(
            overrides={"n_trials": 1},
            description="round trip",
            tags=("a", "b"),
        )
        rebuilt = CampaignDefinition.from_json(definition.to_json())
        assert rebuilt == definition
        # The serialised form is plain JSON with the nested spec inline.
        payload = json.loads(definition.to_json())
        assert payload["base"]["grid"]["case"] == "ieee14"

    def test_from_dict_rejects_unknown_fields(self):
        data = small_definition().to_dict()
        data["bogus"] = 1
        with pytest.raises(ConfigurationError):
            CampaignDefinition.from_dict(data)

    def test_content_hash_ignores_labels(self):
        definition = small_definition()
        relabelled = CampaignDefinition.from_dict(
            {**definition.to_dict(), "description": "x", "tags": ["y"]}
        )
        assert relabelled.content_hash() == definition.content_hash()

    def test_content_hash_tracks_grids_and_overrides(self):
        definition = small_definition()
        widened = small_definition(
            grids=({"attack.ratio": (0.06, 0.08, 0.1)},)
        )
        assert widened.content_hash() != definition.content_hash()
        assert (
            definition.with_overrides({"n_trials": 1}).content_hash()
            != definition.content_hash()
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CampaignDefinition(name="", base=small_base())
        with pytest.raises(ConfigurationError):
            CampaignDefinition(name="x")  # neither base nor points
        with pytest.raises(ConfigurationError):
            CampaignDefinition(name="x", grids=({"a": (1,)},))  # grids need a base
        with pytest.raises(ConfigurationError):
            small_definition(shard_size=0)
        with pytest.raises(ConfigurationError):
            small_definition(grids=({"attack.ratio": 0.06},))  # not a sequence


class TestPlanExpansion:
    def test_points_match_expand_grid(self):
        """The planner is the single owner of grid semantics: a one-grid
        campaign expands to exactly what expand_grid yields."""
        base = small_base()
        grid = {"attack.ratio": (0.06, 0.08), "mtd.max_relative_change": (0.02, 0.1)}
        plan = plan_campaign(small_definition(base=base, grids=(grid,)))
        assert list(plan.points) == expand_grid(base, grid)

    def test_expand_grid_delegates_to_planner(self):
        base = small_base()
        grid = {"attack.ratio": (0.06, 0.08)}
        assert expand_grid(base, grid) == expand_sweep(base, grid)

    def test_grid_blocks_concatenate_and_points_append(self):
        extra = small_base(name="extra-point", base_seed=99)
        definition = small_definition(
            grids=({"attack.ratio": (0.06, 0.08)}, {"n_trials": (1, 3)}),
            points=(extra,),
        )
        plan = plan_campaign(definition)
        assert plan.n_points == 5
        assert plan.points[-1] == extra
        assert plan.points[0].attack.ratio == 0.06
        assert plan.points[2].n_trials == 1

    def test_overrides_apply_to_every_point(self):
        definition = small_definition(overrides={"n_trials": 1, "attack.n_attacks": 4})
        plan = plan_campaign(definition)
        assert all(p.n_trials == 1 and p.attack.n_attacks == 4 for p in plan.points)

    def test_override_of_swept_path_wins_and_collapses_the_axis(self):
        """Pinning a swept path collapses that axis to the override value
        before expansion, so the points (and their generated names) carry
        the value that actually runs — the same precedence overrides have
        on explicit points."""
        definition = small_definition(
            grids=({"mtd.max_relative_change": (0.02, 0.05, 0.1)},),
            overrides={"mtd.max_relative_change": 0.3},
        )
        plan = plan_campaign(definition)
        assert plan.n_points == plan.n_items == 1
        (point,) = plan.points
        assert point.mtd.max_relative_change == 0.3
        assert "max_relative_change=0.3" in point.name

    def test_base_without_grids_is_one_point(self):
        definition = CampaignDefinition(name="solo", base=small_base())
        plan = plan_campaign(definition)
        assert plan.n_points == plan.n_items == 1

    def test_duplicate_hashes_dedupe_into_one_work_item(self):
        """Two grid blocks that overlap produce one unit of work."""
        grid = {"attack.ratio": (0.06, 0.08)}
        definition = small_definition(grids=(grid, grid))
        plan = plan_campaign(definition)
        assert plan.n_points == 4
        assert plan.n_items == 2
        assert len(set(plan.point_hashes)) == 2

    def test_name_format(self):
        definition = small_definition(
            grids=({"attack.ratio": (0.06, 0.08)},), name_format="r{ratio:g}"
        )
        plan = plan_campaign(definition)
        assert [p.name for p in plan.points] == ["r0.06", "r0.08"]


class TestSharding:
    def test_shards_partition_items_contiguously(self):
        plan = plan_campaign(small_definition())  # 4 items, shard_size=3
        assert [s.n_points for s in plan.shards] == [3, 1]
        flattened = [h for shard in plan.shards for h in shard.spec_hashes]
        assert flattened == list(plan.items)

    def test_same_plan_hash_same_shard_assignment(self):
        """Shard determinism: replanning an identical definition (even one
        rebuilt from JSON) yields the same plan hash and shard layout."""
        definition = small_definition()
        first = plan_campaign(definition)
        second = plan_campaign(CampaignDefinition.from_json(definition.to_json()))
        assert first.plan_hash == second.plan_hash
        assert first.shards == second.shards

    def test_plan_hash_tracks_shard_size(self):
        assert (
            plan_campaign(small_definition(shard_size=2)).plan_hash
            != plan_campaign(small_definition(shard_size=3)).plan_hash
        )

    def test_shard_of(self):
        plan = plan_campaign(small_definition())
        for shard in plan.shards:
            for spec_hash in shard.spec_hashes:
                assert plan.shard_of(spec_hash) == shard.index
        with pytest.raises(KeyError):
            plan.shard_of("no-such-hash")

    def test_assign_shards_empty(self):
        assert assign_shards((), 4) == ()


class TestPlanSweep:
    def test_plan_sweep_matches_expand_grid(self):
        base = small_base()
        grid = {"mtd.max_relative_change": (0.02, 0.05, 0.1)}
        plan = plan_sweep(base, grid, name_format="m{max_relative_change:g}")
        assert list(plan.points) == expand_grid(
            base, grid, name_format="m{max_relative_change:g}"
        )

    def test_empty_grid_is_single_point(self):
        plan = plan_sweep(small_base(), {})
        assert plan.n_points == 1
        assert plan.points[0].name == small_base().name

    def test_empty_axis_is_empty_sweep(self):
        """Historical expand_grid semantics: an empty value axis expands to
        zero points rather than raising (programmatically built grids)."""
        assert expand_grid(small_base(), {"attack.ratio": ()}) == []
        assert plan_sweep(small_base(), {"attack.ratio": ()}).n_points == 0

    def test_labels_do_not_change_plan_hash(self):
        """Relabelling the campaign or its base spec never orphans a store."""
        definition = small_definition()
        relabelled = small_definition(
            base=small_base(description="annotated", tags=("x",)),
            description="notes",
            tags=("y",),
        )
        assert (
            plan_campaign(relabelled).plan_hash == plan_campaign(definition).plan_hash
        )


class TestSuiteCampaigns:
    def test_every_suite_is_a_campaign(self):
        assert available_campaigns() == available_scenarios()
        for name in available_campaigns():
            definition = campaign_from_suite(name)
            assert definition.points == scenario_suite(name)
            plan = plan_campaign(definition)
            assert plan.n_points == len(definition.points)

    def test_suite_overrides_scale_budgets(self):
        definition = campaign_from_suite(
            "tables", overrides={"n_trials": 2, "attack.n_attacks": 8}, shard_size=1
        )
        plan = plan_campaign(definition)
        assert all(p.n_trials == 2 and p.attack.n_attacks == 8 for p in plan.points)
        assert len(plan.shards) == plan.n_items
        # Derived budgets hash differently from the paper budgets.
        assert (
            plan.plan_hash != plan_campaign(campaign_from_suite("tables")).plan_hash
        )
