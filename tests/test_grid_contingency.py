"""Property/golden tests for the N-1 contingency layer.

The fast topology-derivation path (``with_branch_status`` /
``with_branch_outages``) and the rank-1 LODF update must agree — bit-close,
and where the arithmetic is shared, bit-identically — with the slow
reference: a network *fully re-constructed* through the validated
:class:`~repro.grid.network.PowerNetwork` constructor with per-component
``in_service`` flags.  Every registered case is swept with seeded-random
single-branch outages; islanding, radial and unknown-index edge cases are
pinned explicitly; the detection pipeline (evaluator, BDD) is asserted
golden between the two construction routes.
"""

from __future__ import annotations

import zlib
from functools import lru_cache

import numpy as np
import pytest

from repro import (
    Branch,
    Bus,
    ContingencySpec,
    EffectivenessEvaluator,
    Generator,
    IslandingError,
    PowerNetwork,
    bridge_branches,
    load_case,
    measurement_matrix,
    post_outage_ptdf,
    ptdf_matrix,
    ptdf_with_branch_outage,
    screen_branch_outages,
    solve_dc_opf,
    solve_dc_power_flow,
)
from repro.engine import (
    AttackSpec,
    DetectorSpec,
    GridSpec,
    MTDSpec,
    ScenarioSpec,
    expand_grid,
    scenario_suite,
)
from repro.engine.scenarios import _screenable_branches
from repro.engine.trial import apply_contingency, run_trial
from repro.exceptions import ConfigurationError, GridModelError, PowerFlowError
from repro.grid.matrices import (
    branch_susceptance_matrix,
    reduced_susceptance_matrix,
    susceptance_matrix,
)
from repro.powerflow.contingency import ISLANDING_TOL
from repro.timeseries import OperationSpec

#: Every registered case family the derivation path must hold on.
CASES = ("case4gs", "ieee14", "ieee30", "synthetic57", "synthetic118", "synthetic300")


@lru_cache(maxsize=None)
def base_network(case: str) -> PowerNetwork:
    return load_case(case)


def reference_network(network: PowerNetwork, status: np.ndarray) -> PowerNetwork:
    """The slow golden reference: full re-construction with in_service flags."""
    branches = tuple(
        branch.with_status(bool(status[branch.index])) for branch in network.branches
    )
    return PowerNetwork(
        buses=network.buses,
        branches=branches,
        generators=network.generators,
        base_mva=network.base_mva,
        name=network.name,
    )


def brute_force_bridges(network: PowerNetwork) -> tuple[int, ...]:
    """O(L·(N+L)) reference bridge finder: drop each branch, BFS the rest."""
    arrays = network.arrays
    status = arrays.in_service_mask()
    bridges = []
    for k in np.flatnonzero(status):
        adjacency: list[list[int]] = [[] for _ in range(arrays.n_buses)]
        for j in np.flatnonzero(status):
            if j == k:
                continue
            u, v = int(arrays.branch_from[j]), int(arrays.branch_to[j])
            adjacency[u].append(v)
            adjacency[v].append(u)
        seen = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for neighbour in adjacency[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        if len(seen) < arrays.n_buses:
            bridges.append(int(k))
    return tuple(bridges)


@lru_cache(maxsize=None)
def sampled_outages(case: str, n: int = 4) -> tuple[int, ...]:
    """Seeded-random non-bridge single-branch outages for ``case``.

    The seed must be stable across interpreter launches — ``hash(str)``
    is randomized per process and occasionally sampled a pair of
    branches whose *joint* outage islands the network, failing the
    multi-outage assertions."""
    network = base_network(case)
    candidates = sorted(set(range(network.n_branches)) - set(bridge_branches(network)))
    rng = np.random.default_rng(zlib.crc32(case.encode("utf-8")))
    picks = rng.choice(len(candidates), size=min(n, len(candidates)), replace=False)
    return tuple(int(candidates[i]) for i in sorted(picks))


def opf_injections(network: PowerNetwork) -> np.ndarray:
    """Balanced nodal injections of the network's DC-OPF operating point."""
    baseline = solve_dc_opf(network)
    injections = -network.loads_mw()
    for gen, output in zip(network.generators, baseline.dispatch_mw):
        injections[gen.bus] += output
    return injections


def radial_network() -> PowerNetwork:
    """A 3-bus chain: every branch is a bridge."""
    return PowerNetwork(
        buses=(
            Bus(index=0, load_mw=0.0, is_slack=True),
            Bus(index=1, load_mw=40.0),
            Bus(index=2, load_mw=60.0),
        ),
        branches=(
            Branch(index=0, from_bus=0, to_bus=1, reactance=0.2),
            Branch(index=1, from_bus=1, to_bus=2, reactance=0.3),
        ),
        generators=(Generator(index=0, bus=0, p_max_mw=200.0, cost_per_mwh=10.0),),
        name="radial3",
    )


class TestBranchStatusDerivation:
    """Fast status derivation is bit-identical to full re-construction."""

    @pytest.mark.parametrize("case", CASES)
    def test_matrices_match_full_construction(self, case):
        network = base_network(case)
        for k in sampled_outages(case):
            status = np.ones(network.n_branches, dtype=bool)
            status[k] = False
            derived = network.with_branch_status(status)
            reference = reference_network(network, status)
            # Same masked susceptances feed the same builders: bit-identical.
            for build in (
                branch_susceptance_matrix,
                susceptance_matrix,
                reduced_susceptance_matrix,
                measurement_matrix,
                ptdf_matrix,
            ):
                np.testing.assert_array_equal(
                    build(derived), build(reference), err_msg=f"{case} b{k} {build.__name__}"
                )

    @pytest.mark.parametrize("case", CASES)
    def test_outage_composition_and_mask(self, case):
        network = base_network(case)
        k = sampled_outages(case)[0]
        derived = network.with_branch_outages([k])
        assert not derived.branches[k].in_service
        assert derived.arrays.n_active_branches == network.n_branches - 1
        mask = derived.arrays.in_service_mask()
        assert not mask[k] and mask.sum() == network.n_branches - 1
        np.testing.assert_array_equal(derived.branch_status(), mask)
        # Outages compose with outages already present on the base (picking
        # a second branch that does not bridge the already-derived graph).
        derived_bridges = set(bridge_branches(derived))
        others = [
            b for b in sampled_outages(case) if b != k and b not in derived_bridges
        ]
        if others:
            twice = derived.with_branch_outages([others[0]])
            assert twice.arrays.n_active_branches == network.n_branches - 2

    @pytest.mark.parametrize("case", CASES)
    def test_topology_cache_shared(self, case):
        network = base_network(case)
        k = sampled_outages(case)[0]
        derived = network.with_branch_outages([k])
        assert derived.arrays.topology is network.arrays.topology

    def test_all_in_service_status_is_normalized(self):
        network = base_network("ieee14")
        # A no-op status keeps the canonical None mask, so status-free and
        # all-true derivations hash/behave identically.
        derived = network.with_branch_status(np.ones(network.n_branches, dtype=bool))
        assert derived.arrays.branch_status is None
        assert network.arrays.with_branch_status(
            np.ones(network.n_branches, dtype=bool)
        ) is network.arrays

    def test_bad_status_length_rejected(self):
        network = base_network("ieee14")
        with pytest.raises(GridModelError, match="status flags"):
            network.with_branch_status(np.ones(3, dtype=bool))

    def test_unknown_branch_index_rejected(self):
        network = base_network("ieee14")
        with pytest.raises(GridModelError, match="unknown branch index 999"):
            network.with_branch_outages([999])

    def test_islanding_outage_rejected_with_named_branch(self):
        network = base_network("ieee14")
        (bridge,) = [b for b in bridge_branches(network)]
        with pytest.raises(IslandingError, match=rf"\[{bridge}\]") as excinfo:
            network.with_branch_outages([bridge])
        assert excinfo.value.branches == (bridge,)

    def test_radial_network_every_outage_islands(self):
        network = radial_network()
        assert bridge_branches(network) == (0, 1)
        for k in range(network.n_branches):
            with pytest.raises(IslandingError):
                network.with_branch_outages([k])

    @pytest.mark.parametrize("case", CASES)
    def test_bridge_finder_matches_brute_force(self, case):
        network = base_network(case)
        assert bridge_branches(network) == brute_force_bridges(network)

    def test_bridge_finder_is_status_aware(self):
        # Outaging one of the parallel-ish ieee14 lines turns survivors
        # into bridges; the finder must see the *post-outage* graph.
        network = base_network("ieee14")
        k = sampled_outages("ieee14")[0]
        derived = network.with_branch_outages([k])
        assert k not in bridge_branches(derived)
        assert bridge_branches(derived) == brute_force_bridges(derived)

    def test_parallel_branches_are_not_bridges(self):
        network = radial_network()
        doubled = PowerNetwork(
            buses=network.buses,
            branches=network.branches
            + (Branch(index=2, from_bus=1, to_bus=2, reactance=0.3),),
            generators=network.generators,
            name="radial3-doubled",
        )
        # Branch 0 still bridges; the parallel 1/2 pair does not.
        assert bridge_branches(doubled) == (0,)
        derived = doubled.with_branch_outages([1])
        assert bridge_branches(derived) == (0, 2)

    def test_dfacts_masking_follows_status(self):
        network = base_network("ieee14")
        dfacts = network.dfacts_branches
        k = sampled_outages("ieee14")[0]
        target = k if k in dfacts else dfacts[0]
        derived = network.with_branch_outages([target])
        assert target not in derived.dfacts_branches
        lo, hi = derived.arrays.reactance_bounds()
        x = derived.arrays.reactances()
        # An outaged D-FACTS branch is pinned: no perturbation range.
        assert lo[target] == x[target] == hi[target]

    def test_generator_status_pins_dispatch_range(self):
        network = base_network("ieee14")
        derived = network.with_generator_status({1: False})
        assert not derived.generators[1].in_service
        p_min, p_max = derived.arrays.generator_limits_mw()
        assert p_min[1] == 0.0 and p_max[1] == 0.0
        with pytest.raises(GridModelError):
            network.with_generator_status({99: False})


class TestLODF:
    """Rank-1 LODF updates agree with the full-rebuild reference."""

    #: Cases kept small enough that per-outage full rebuilds stay cheap.
    LODF_CASES = ("case4gs", "ieee14", "ieee30", "synthetic57", "synthetic118")

    @pytest.mark.parametrize("case", LODF_CASES)
    def test_rank1_ptdf_matches_rebuild(self, case):
        network = base_network(case)
        phi = ptdf_matrix(network)
        for k in sampled_outages(case):
            fast = ptdf_with_branch_outage(network, k, base_ptdf=phi)
            reference = ptdf_matrix(network.with_branch_outages([k]))
            np.testing.assert_allclose(
                fast, reference, rtol=0, atol=1e-9, err_msg=f"{case} b{k}"
            )
            assert np.all(fast[k, :] == 0.0)

    def test_rank1_rejects_bridge(self):
        network = base_network("ieee14")
        (bridge,) = bridge_branches(network)
        with pytest.raises(IslandingError) as excinfo:
            ptdf_with_branch_outage(network, bridge)
        assert excinfo.value.branches == (bridge,)
        with pytest.raises(PowerFlowError, match="unknown branch"):
            ptdf_with_branch_outage(network, 999)

    def test_post_outage_ptdf_routes(self):
        network = base_network("ieee14")
        phi = ptdf_matrix(network)
        # Empty outage set: the base PTDF (a private copy when given one).
        empty = post_outage_ptdf(network, [], base_ptdf=phi)
        np.testing.assert_array_equal(empty, phi)
        assert empty is not phi
        # Single outage: identical to the rank-1 route.
        k = sampled_outages("ieee14")[0]
        np.testing.assert_array_equal(
            post_outage_ptdf(network, [k], base_ptdf=phi),
            ptdf_with_branch_outage(network, k, base_ptdf=phi),
        )
        # Multi-branch outage: full rebuild, compared against the reference.
        pair = sampled_outages("ieee14")[:2]
        reference = ptdf_matrix(network.with_branch_outages(pair))
        np.testing.assert_array_equal(post_outage_ptdf(network, pair), reference)
        # Duplicate indices collapse to the single-outage route.
        np.testing.assert_array_equal(
            post_outage_ptdf(network, [k, k], base_ptdf=phi),
            ptdf_with_branch_outage(network, k, base_ptdf=phi),
        )
        # Islanding sets raise on either route.
        (bridge,) = bridge_branches(network)
        with pytest.raises(IslandingError):
            post_outage_ptdf(network, [bridge])
        with pytest.raises(IslandingError):
            post_outage_ptdf(network, [bridge, k])

    @pytest.mark.parametrize("case", ("ieee14", "ieee30", "synthetic57"))
    def test_screen_incremental_matches_rebuild(self, case):
        network = base_network(case)
        injections = opf_injections(network)
        outages = sampled_outages(case)
        fast = screen_branch_outages(network, outages, injections)
        slow = screen_branch_outages(network, outages, injections, method="rebuild")
        assert fast.method == "incremental" and slow.method == "rebuild"
        assert fast.branch_indices == slow.branch_indices == outages
        assert fast.flows_mw.shape == (len(outages), network.n_branches)
        np.testing.assert_allclose(fast.flows_mw, slow.flows_mw, atol=1e-8)
        for row, k in enumerate(outages):
            assert fast.flows_mw[row, k] == 0.0

    def test_screen_rejects_bad_inputs(self):
        network = base_network("ieee14")
        injections = np.zeros(network.n_buses)
        with pytest.raises(PowerFlowError, match="injections"):
            screen_branch_outages(network, [1], np.zeros(3))
        with pytest.raises(PowerFlowError, match="unknown screening method"):
            screen_branch_outages(network, [1], injections, method="magic")
        (bridge,) = bridge_branches(network)
        with pytest.raises(IslandingError, match=rf"\[{bridge}\]") as excinfo:
            screen_branch_outages(network, [1, bridge], injections)
        assert excinfo.value.branches == (bridge,)

    def test_screen_empty_and_overloads(self):
        network = base_network("ieee14")
        injections = opf_injections(network)
        empty = screen_branch_outages(network, [], injections)
        assert empty.flows_mw.shape == (0, network.n_branches)
        assert empty.overloads(network.flow_limits_mw()) == []
        result = screen_branch_outages(network, sampled_outages("ieee14"), injections)
        # With limits squeezed to near zero every surviving flow overloads.
        tight = result.overloads(np.full(network.n_branches, 1e-9))
        assert len(tight) > 0
        assert all(result.branch_indices.index(o) is not None for o, _ in tight)

    def test_islanding_tolerance_is_consistent(self):
        # The LODF denominator of a true bridge is numerically ~0, far
        # below the trust threshold; non-bridges sit far above it.
        network = base_network("ieee14")
        phi = ptdf_matrix(network)
        arrays = network.arrays
        denominators = 1.0 - (
            phi[np.arange(network.n_branches), arrays.branch_from]
            - phi[np.arange(network.n_branches), arrays.branch_to]
        )
        bridges = set(bridge_branches(network))
        for k in range(network.n_branches):
            if k in bridges:
                assert abs(denominators[k]) < ISLANDING_TOL
            else:
                assert abs(denominators[k]) > 1e3 * ISLANDING_TOL


class TestDetectionGolden:
    """The detection pipeline is golden across construction routes."""

    def _evaluator(self, network: PowerNetwork) -> EffectivenessEvaluator:
        baseline = solve_dc_opf(network)
        return EffectivenessEvaluator(
            network,
            operating_angles_rad=baseline.angles_rad,
            n_attacks=40,
            attack_ratio=0.08,
            seed=7,
        )

    @pytest.mark.parametrize("case", ("ieee14", "ieee30"))
    def test_detection_metrics_identical_across_routes(self, case):
        network = base_network(case)
        # A screenable outage: non-bridge and post-outage OPF-feasible.
        k = _screenable_branches(case)[0]
        status = np.ones(network.n_branches, dtype=bool)
        status[k] = False
        fast = network.with_branch_status(status)
        slow = reference_network(network, status)

        base_fast = solve_dc_opf(fast)
        base_slow = solve_dc_opf(slow)
        np.testing.assert_array_equal(base_fast.angles_rad, base_slow.angles_rad)
        np.testing.assert_array_equal(base_fast.dispatch_mw, base_slow.dispatch_mw)
        assert repr(base_fast.cost) == repr(base_slow.cost)

        perturbed = fast.reactances()
        perturbed[list(fast.dfacts_branches)] *= 1.04
        result_fast = self._evaluator(fast).evaluate(perturbed)
        result_slow = self._evaluator(slow).evaluate(perturbed)
        np.testing.assert_array_equal(
            result_fast.detection_probabilities, result_slow.detection_probabilities
        )
        assert repr(result_fast.eta(0.9)) == repr(result_slow.eta(0.9))

    def test_power_flow_identical_across_routes(self):
        network = base_network("ieee14")
        k = sampled_outages("ieee14")[0]
        status = np.ones(network.n_branches, dtype=bool)
        status[k] = False
        fast = network.with_branch_status(status)
        slow = reference_network(network, status)
        injections = np.zeros(network.n_buses)
        injections[2] = 50.0
        injections[5] = -50.0
        pf_fast = solve_dc_power_flow(fast, injections)
        pf_slow = solve_dc_power_flow(slow, injections)
        np.testing.assert_array_equal(pf_fast.angles_rad, pf_slow.angles_rad)
        np.testing.assert_array_equal(pf_fast.flows_mw, pf_slow.flows_mw)
        assert pf_fast.flows_mw[k] == 0.0


class TestContingencySpec:
    """Spec-level semantics: normalization, hashing, derivation, sweeps."""

    def base(self, **overrides) -> ScenarioSpec:
        defaults = dict(
            name="spec-base",
            grid=GridSpec(case="ieee14", baseline="dc-opf"),
            attack=AttackSpec(n_attacks=8, seed=3),
            mtd=MTDSpec(policy="random", max_relative_change=0.1),
            n_trials=1,
            base_seed=29,
            deltas=(0.9,),
        )
        defaults.update(overrides)
        return ScenarioSpec(**defaults)

    def test_normalization_and_label(self):
        spec = ContingencySpec(branch_outages=(5, 3, 5), generator_outages=(1,))
        assert spec.branch_outages == (3, 5)
        assert spec.generator_outages == (1,)
        assert spec.outage == "b3+b5+g1"
        assert ContingencySpec().outage == "none"
        assert ContingencySpec().is_noop
        assert not spec.is_noop

    def test_negative_indices_rejected(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            ContingencySpec(branch_outages=(-1,))
        with pytest.raises(ConfigurationError, match="non-negative"):
            ContingencySpec(generator_outages=(-2,))

    def test_round_trip_and_hash_stability(self):
        spec = self.base(contingency=ContingencySpec(branch_outages=(4,)))
        restored = ScenarioSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.content_hash() == spec.content_hash()
        assert restored.contingency.outage == "b4"

    def test_contingency_free_dict_shape_is_unchanged(self):
        # Pre-contingency specs and their hashes must not shift: the key is
        # simply absent, exactly like the optional operation component.
        spec = self.base()
        assert "contingency" not in spec.to_dict()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_noop_contingency_is_distinct_from_none(self):
        none_spec = self.base()
        noop_spec = self.base(contingency=ContingencySpec())
        assert none_spec.content_hash() != noop_spec.content_hash()

    def test_distinct_outages_hash_distinct(self):
        hashes = {
            self.base(contingency=ContingencySpec(branch_outages=(k,))).content_hash()
            for k in (1, 4, 6, 7)
        }
        assert len(hashes) == 4

    def test_with_updates_materializes_contingency(self):
        spec = self.base().with_updates({"contingency.branch_outages": (4,)})
        assert spec.contingency is not None
        assert spec.contingency.outage == "b4"
        # And dotted updates on an existing contingency still work.
        again = spec.with_updates({"contingency.generator_outages": (1,)})
        assert again.contingency.outage == "b4+g1"

    def test_expand_grid_over_outages(self):
        specs = expand_grid(
            self.base(), {"contingency.branch_outages": ((1,), (4,), (6,))}
        )
        assert [s.contingency.outage for s in specs] == ["b1", "b4", "b6"]
        assert len({s.content_hash() for s in specs}) == 3

    def test_operation_and_contingency_conflict(self):
        with pytest.raises(ConfigurationError, match="contingency"):
            self.base(
                mtd=MTDSpec(policy="designed", gamma_threshold=0.25),
                operation=OperationSpec(),
                contingency=ContingencySpec(branch_outages=(4,)),
            )

    def test_apply_contingency(self):
        network = base_network("ieee14")
        assert apply_contingency(network, None) is network
        assert apply_contingency(network, ContingencySpec()) is network
        derived = apply_contingency(
            network, ContingencySpec(branch_outages=(4,), generator_outages=(1,))
        )
        assert not derived.branches[4].in_service
        assert not derived.generators[1].in_service
        with pytest.raises(IslandingError):
            apply_contingency(network, ContingencySpec(branch_outages=(13,)))


class TestTrialIntegration:
    """Contingency trials: metrics, seed-stream bit-identity, suites."""

    def spec(self, **overrides) -> ScenarioSpec:
        defaults = dict(
            name="trial-base",
            grid=GridSpec(case="ieee14", baseline="dc-opf"),
            attack=AttackSpec(n_attacks=12, seed=5),
            mtd=MTDSpec(policy="random", max_relative_change=0.1),
            detector=DetectorSpec(n_noise_trials=200),
            n_trials=2,
            base_seed=23,
            deltas=(0.9,),
        )
        defaults.update(overrides)
        return ScenarioSpec(**defaults)

    def test_contingency_trial_reports_false_alarm_rate(self):
        result = run_trial(self.spec(contingency=ContingencySpec(branch_outages=(4,))), 0)
        rate = result.metrics["bdd_false_alarm_rate"]
        assert 0.0 <= rate <= 1.0
        assert "eta(0.9)" in result.metrics

    def test_noop_contingency_preserves_shared_metrics_bitwise(self):
        plain = run_trial(self.spec(), 0)
        noop = run_trial(self.spec(contingency=ContingencySpec()), 0)
        assert "bdd_false_alarm_rate" not in plain.metrics
        assert "bdd_false_alarm_rate" in noop.metrics
        for key, value in plain.metrics.items():
            assert repr(noop.metrics[key]) == repr(value), key

    def test_contingency_changes_outcome(self):
        plain = run_trial(self.spec(), 0)
        outaged = run_trial(self.spec(contingency=ContingencySpec(branch_outages=(4,))), 0)
        assert plain.metrics["spa"] != outaged.metrics["spa"]

    def test_islanding_contingency_raises_at_trial_level(self):
        with pytest.raises(IslandingError):
            run_trial(self.spec(contingency=ContingencySpec(branch_outages=(13,))), 0)

    @pytest.mark.parametrize(
        "suite,case,n_points", [("n1-screening", "ieee14", 16), ("n1-screening-30", "ieee30", 39)]
    )
    def test_n1_suites_enumerate_screenable_outages(self, suite, case, n_points):
        specs = scenario_suite(suite)
        assert len(specs) == n_points
        base, *outaged = specs
        assert base.contingency is not None and base.contingency.is_noop
        assert base.name == f"n1-{case}-base"
        bridges = set(bridge_branches(base_network(case)))
        for spec in outaged:
            (k,) = spec.contingency.branch_outages
            assert spec.name == f"n1-{case}-b{k}"
            assert k not in bridges
            assert {"n1", "contingency", case} <= set(spec.tags)
        assert len({s.content_hash() for s in specs}) == n_points

    def test_n1_suite_points_are_runnable(self):
        specs = scenario_suite("n1-screening")
        tiny = specs[1].with_updates(
            {"attack.n_attacks": 8, "n_trials": 1, "detector.n_noise_trials": 100}
        )
        result = run_trial(tiny, 0)
        assert "bdd_false_alarm_rate" in result.metrics
