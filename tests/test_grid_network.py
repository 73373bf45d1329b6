"""Tests for repro.grid.network.PowerNetwork."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GridModelError, IslandingError
from repro.grid.cases.registry import load_case
from repro.grid.components import Branch, Bus, Generator
from repro.grid.network import PowerNetwork


def _toy_network() -> PowerNetwork:
    """A 3-bus triangle with one generator at the slack bus."""
    buses = (
        Bus(index=0, load_mw=0.0, is_slack=True),
        Bus(index=1, load_mw=40.0),
        Bus(index=2, load_mw=60.0),
    )
    branches = (
        Branch(index=0, from_bus=0, to_bus=1, reactance=0.1, rate_mw=100.0),
        Branch(index=1, from_bus=1, to_bus=2, reactance=0.2, rate_mw=100.0),
        Branch(index=2, from_bus=0, to_bus=2, reactance=0.3, rate_mw=100.0),
    )
    generators = (Generator(index=0, bus=0, p_max_mw=200.0, cost_per_mwh=10.0),)
    return PowerNetwork.from_components(buses, branches, generators, name="toy3")


class TestValidation:
    def test_valid_network_builds(self):
        net = _toy_network()
        assert net.n_buses == 3
        assert net.n_branches == 3
        assert net.n_generators == 1
        assert net.slack_bus == 0

    def test_missing_slack_rejected(self):
        buses = (Bus(index=0), Bus(index=1))
        branches = (Branch(index=0, from_bus=0, to_bus=1, reactance=0.1),)
        with pytest.raises(GridModelError, match="slack"):
            PowerNetwork.from_components(buses, branches, ())

    def test_two_slacks_rejected(self):
        buses = (Bus(index=0, is_slack=True), Bus(index=1, is_slack=True))
        branches = (Branch(index=0, from_bus=0, to_bus=1, reactance=0.1),)
        with pytest.raises(GridModelError, match="slack"):
            PowerNetwork.from_components(buses, branches, ())

    def test_non_contiguous_bus_indices_rejected(self):
        buses = (Bus(index=0, is_slack=True), Bus(index=2))
        branches = (Branch(index=0, from_bus=0, to_bus=2, reactance=0.1),)
        with pytest.raises(GridModelError, match="contiguous"):
            PowerNetwork.from_components(buses, branches, ())

    def test_branch_to_unknown_bus_rejected(self):
        buses = (Bus(index=0, is_slack=True), Bus(index=1))
        branches = (Branch(index=0, from_bus=0, to_bus=5, reactance=0.1),)
        with pytest.raises(GridModelError, match="unknown bus"):
            PowerNetwork.from_components(buses, branches, ())

    def test_generator_on_unknown_bus_rejected(self):
        buses = (Bus(index=0, is_slack=True), Bus(index=1))
        branches = (Branch(index=0, from_bus=0, to_bus=1, reactance=0.1),)
        generators = (Generator(index=0, bus=9, p_max_mw=10.0),)
        with pytest.raises(GridModelError, match="unknown bus"):
            PowerNetwork.from_components(buses, branches, generators)

    def test_disconnected_network_rejected(self):
        buses = tuple(
            Bus(index=i, is_slack=(i == 0)) for i in range(4)
        )
        branches = (
            Branch(index=0, from_bus=0, to_bus=1, reactance=0.1),
            Branch(index=1, from_bus=2, to_bus=3, reactance=0.1),
        )
        with pytest.raises(GridModelError, match="connected"):
            PowerNetwork.from_components(buses, branches, ())

    def test_invalid_base_mva_rejected(self):
        net = _toy_network()
        with pytest.raises(GridModelError):
            PowerNetwork.from_components(net.buses, net.branches, net.generators, base_mva=0.0)


class TestVectorViews:
    def test_loads_vector(self):
        net = _toy_network()
        np.testing.assert_allclose(net.loads_mw(), [0.0, 40.0, 60.0])
        assert net.total_load_mw() == pytest.approx(100.0)

    def test_reactances_vector(self):
        net = _toy_network()
        np.testing.assert_allclose(net.reactances(), [0.1, 0.2, 0.3])

    def test_flow_limits_vector(self):
        net = _toy_network()
        np.testing.assert_allclose(net.flow_limits_mw(), [100.0, 100.0, 100.0])

    def test_generator_views(self):
        net = _toy_network()
        np.testing.assert_array_equal(net.generator_buses(), [0])
        p_min, p_max = net.generator_limits_mw()
        np.testing.assert_allclose(p_min, [0.0])
        np.testing.assert_allclose(p_max, [200.0])
        np.testing.assert_allclose(net.generator_costs(), [10.0])
        assert net.total_generation_capacity_mw() == pytest.approx(200.0)

    def test_reactance_bounds_without_dfacts(self):
        net = _toy_network()
        x_min, x_max = net.reactance_bounds()
        np.testing.assert_allclose(x_min, net.reactances())
        np.testing.assert_allclose(x_max, net.reactances())

    def test_branch_between(self):
        net = _toy_network()
        assert net.branch_between(1, 2).index == 1
        assert net.branch_between(2, 0).index == 2
        with pytest.raises(GridModelError):
            net.branch_between(0, 0)

    def test_describe_mentions_size(self):
        text = _toy_network().describe()
        assert "buses=3" in text
        assert "branches=3" in text


class TestCopyWithChanges:
    def test_with_reactances(self):
        net = _toy_network()
        new = net.with_reactances([0.2, 0.2, 0.2])
        np.testing.assert_allclose(new.reactances(), [0.2, 0.2, 0.2])
        # original untouched
        np.testing.assert_allclose(net.reactances(), [0.1, 0.2, 0.3])

    def test_with_reactances_wrong_length(self):
        with pytest.raises(GridModelError):
            _toy_network().with_reactances([0.1, 0.2])

    def test_with_reactances_non_positive(self):
        with pytest.raises(GridModelError):
            _toy_network().with_reactances([0.1, -0.2, 0.3])

    def test_with_loads_vector(self):
        net = _toy_network().with_loads([0.0, 10.0, 20.0])
        assert net.total_load_mw() == pytest.approx(30.0)

    def test_with_loads_mapping(self):
        net = _toy_network().with_loads({1: 5.0})
        np.testing.assert_allclose(net.loads_mw(), [0.0, 5.0, 60.0])

    def test_with_loads_unknown_bus(self):
        with pytest.raises(GridModelError):
            _toy_network().with_loads({7: 5.0})

    def test_with_scaled_loads(self):
        net = _toy_network().with_scaled_loads(0.5)
        assert net.total_load_mw() == pytest.approx(50.0)

    def test_with_scaled_loads_negative_rejected(self):
        with pytest.raises(GridModelError):
            _toy_network().with_scaled_loads(-1.0)

    def test_with_dfacts_on(self):
        net = _toy_network().with_dfacts_on([0, 2], 0.8, 1.2)
        assert net.dfacts_branches == (0, 2)
        x_min, x_max = net.reactance_bounds()
        assert x_min[0] == pytest.approx(0.08)
        assert x_max[2] == pytest.approx(0.36)

    def test_with_dfacts_unknown_branch(self):
        with pytest.raises(GridModelError):
            _toy_network().with_dfacts_on([9], 0.8, 1.2)


def _scanned_dfacts(network: PowerNetwork) -> tuple[int, ...]:
    """The D-FACTS set by a scan over the branch objects."""
    return tuple(b.index for b in network.branches if b.has_dfacts and b.in_service)


class TestDfactsBranches:
    """``dfacts_branches`` comes from the arrays view, computed once per network."""

    @pytest.mark.parametrize("case", ["ieee14", "ieee30", "synthetic300"])
    def test_equals_the_branch_scan_across_derivations(self, case):
        network = load_case(case)
        dfacts = network.dfacts_branches
        assert dfacts and dfacts == _scanned_dfacts(network)
        assert network.dfacts_branches is dfacts
        for branch in dfacts:
            try:
                outaged = network.with_branch_outages([branch])
            except IslandingError:
                continue
            break
        assert branch not in outaged.dfacts_branches
        reactances = network.reactances()
        reactances[list(dfacts)] *= 1.05
        for derived in (
            outaged,
            network.with_generator_status({0: False}),
            network.with_reactances(reactances),
            outaged.with_reactances(reactances),
        ):
            assert derived.dfacts_branches == _scanned_dfacts(derived)
            assert all(type(index) is int for index in derived.dfacts_branches)
