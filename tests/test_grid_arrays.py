"""Golden bit-identity suite for the structure-of-arrays network core.

The library's matrix builders, power-flow solvers and estimation stack all
run on :class:`~repro.grid.arrays.NetworkArrays` (via ``network.arrays``).
These tests pin that representation against *reference implementations* of
the legacy object path — the exact per-component loops the builders used
before the refactor — for every registered case, asserting equality
bit-for-bit (``np.array_equal``, no tolerances), plus a full fig7 scenario
pinned, within a documented tolerance, to metric values captured from the
pre-refactor code.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.runner import ScenarioEngine
from repro.engine.scenarios import scenario_suite
from repro.estimation.linear_model import LinearModel
from repro.estimation.measurement import MeasurementSystem
from repro.exceptions import GridModelError
from repro.grid.arrays import NetworkArrays
from repro.grid.cases.registry import load_case
from repro.grid.matrices import (
    branch_flow_matrix,
    generator_incidence_matrix,
    incidence_matrix,
    measurement_matrix,
    measurement_matrix_sparse,
    non_slack_indices,
    reduced_measurement_matrix,
    reduced_susceptance_matrix,
    susceptance_matrix,
)
from repro.grid.network import PowerNetwork
from repro.powerflow.dc import solve_dc_power_flow
from repro.powerflow.ptdf import ptdf_matrix

#: Every distinct registered case (aliases like "case14" are skipped).
ALL_CASES = ("case4gs", "ieee14", "ieee30", "synthetic57", "synthetic118", "synthetic300")


# ----------------------------------------------------------------------
# Reference implementations: the pre-refactor per-object loops, verbatim.
# ----------------------------------------------------------------------
def _reference_incidence(network: PowerNetwork) -> np.ndarray:
    A = np.zeros((network.n_buses, network.n_branches))
    from_bus = np.fromiter(
        (b.from_bus for b in network.branches), dtype=int, count=network.n_branches
    )
    to_bus = np.fromiter(
        (b.to_bus for b in network.branches), dtype=int, count=network.n_branches
    )
    cols = np.arange(network.n_branches)
    A[from_bus, cols] = 1.0
    A[to_bus, cols] = -1.0
    return A


def _reference_reactances(network: PowerNetwork) -> np.ndarray:
    x = np.zeros(network.n_branches)
    for branch in network.branches:
        x[branch.index] = branch.reactance
    return x


def _reference_non_slack(network: PowerNetwork) -> np.ndarray:
    slack = network.slack_bus
    return np.array([i for i in range(network.n_buses) if i != slack], dtype=int)


def _reference_measurement_matrix(
    network: PowerNetwork, reactances: np.ndarray | None = None
) -> np.ndarray:
    A = _reference_incidence(network)
    x = _reference_reactances(network) if reactances is None else reactances
    b = 1.0 / x
    flows = b[:, None] * A.T
    injections = (A * b) @ A.T
    return np.vstack([flows, -flows, injections])


def _reference_reduced_measurement_matrix(
    network: PowerNetwork, reactances: np.ndarray | None = None
) -> np.ndarray:
    H = _reference_measurement_matrix(network, reactances)
    return H[:, _reference_non_slack(network)]


def _reference_generator_incidence(network: PowerNetwork) -> np.ndarray:
    C = np.zeros((network.n_buses, network.n_generators))
    for gen in network.generators:
        C[gen.bus, gen.index] = 1.0
    return C


def _perturbed(network: PowerNetwork, seed: int = 0) -> np.ndarray:
    base = network.reactances()
    rng = np.random.default_rng(seed)
    return base * (1.0 + rng.uniform(-0.2, 0.2, base.shape[0]))


@pytest.fixture(scope="module", params=ALL_CASES)
def case_network(request):
    return load_case(request.param)


class TestNetworkArraysView:
    def test_field_extraction_matches_components(self, case_network):
        arrays = case_network.arrays
        assert isinstance(arrays, NetworkArrays)
        for branch in case_network.branches:
            i = branch.index
            assert arrays.branch_from[i] == branch.from_bus
            assert arrays.branch_to[i] == branch.to_bus
            assert arrays.branch_reactance[i] == branch.reactance
            assert arrays.branch_rate_mw[i] == branch.rate_mw
            assert bool(arrays.branch_has_dfacts[i]) == branch.has_dfacts
        for bus in case_network.buses:
            assert arrays.bus_load_mw[bus.index] == bus.load_mw
        for gen in case_network.generators:
            assert arrays.gen_bus[gen.index] == gen.bus
            assert arrays.gen_p_max_mw[gen.index] == gen.p_max_mw
            assert arrays.gen_cost_per_mwh[gen.index] == gen.cost_per_mwh
        assert arrays.slack_bus == case_network.slack_bus
        assert arrays.base_mva == case_network.base_mva
        assert arrays.n_measurements == case_network.n_measurements
        assert arrays.dfacts_branches == case_network.dfacts_branches

    def test_arrays_cached_on_network(self, case_network):
        assert case_network.arrays is case_network.arrays

    def test_vector_views_match_reference_loops(self, case_network):
        arrays = case_network.arrays
        assert np.array_equal(arrays.reactances(), _reference_reactances(case_network))
        x_min, x_max = case_network.reactance_bounds()
        for branch in case_network.branches:
            assert x_min[branch.index] == branch.reactance_min
            assert x_max[branch.index] == branch.reactance_max
        # the legacy implementation summed the load vector with np.sum
        loads = np.zeros(case_network.n_buses)
        for bus in case_network.buses:
            loads[bus.index] = bus.load_mw
        assert arrays.total_load_mw() == float(np.sum(loads))

    def test_views_are_fresh_mutable_copies(self, case_network):
        loads = case_network.loads_mw()
        loads[0] = -123.0  # must not corrupt the shared arrays
        assert case_network.loads_mw()[0] != -123.0

    def test_backing_arrays_are_frozen(self, case_network):
        arrays = case_network.arrays
        with pytest.raises(ValueError):
            arrays.branch_reactance[0] = 1.0
        with pytest.raises(ValueError):
            arrays.topology.incidence()[0, 0] = 5.0

    def test_with_reactances_shares_topology(self, case_network):
        x = _perturbed(case_network)
        derived = case_network.arrays.with_reactances(x)
        assert derived.topology is case_network.arrays.topology
        assert np.array_equal(derived.branch_reactance, x)
        # every non-reactance field is shared, not copied
        assert derived.bus_load_mw is case_network.arrays.bus_load_mw
        assert derived.gen_cost_per_mwh is case_network.arrays.gen_cost_per_mwh

    def test_with_reactances_validation(self, case_network):
        arrays = case_network.arrays
        with pytest.raises(GridModelError):
            arrays.with_reactances(np.ones(arrays.n_branches + 1))
        bad = arrays.reactances()
        bad[0] = 0.0
        with pytest.raises(GridModelError):
            arrays.with_reactances(bad)


class TestComponentOrderEnforced:
    """The arrays view extracts fields in tuple order, so construction
    rejects component tuples that are not ordered by index (previously the
    index *set* alone was checked)."""

    def test_out_of_order_branches_rejected(self):
        net = load_case("case4gs")
        shuffled = tuple(reversed(net.branches))
        with pytest.raises(GridModelError, match="tuple order"):
            PowerNetwork(
                buses=net.buses,
                branches=shuffled,
                generators=net.generators,
                base_mva=net.base_mva,
            )

    def test_out_of_order_buses_rejected(self):
        net = load_case("case4gs")
        with pytest.raises(GridModelError, match="tuple order"):
            PowerNetwork(
                buses=tuple(reversed(net.buses)),
                branches=net.branches,
                generators=net.generators,
                base_mva=net.base_mva,
            )


class TestFastNetworkDerivation:
    def test_with_reactances_equals_full_construction(self, case_network):
        x = _perturbed(case_network)
        fast = case_network.with_reactances(x)
        validated = PowerNetwork(
            buses=case_network.buses,
            branches=tuple(
                b.with_reactance(x[b.index]) for b in case_network.branches
            ),
            generators=case_network.generators,
            base_mva=case_network.base_mva,
            name=case_network.name,
        )
        assert fast == validated

    def test_fast_path_shares_topology_cache(self, case_network):
        derived = case_network.with_reactances(_perturbed(case_network))
        assert derived.arrays.topology is case_network.arrays.topology

    def test_perturbation_apply_arrays_matches_apply(self, case_network):
        from repro.mtd.perturbation import ReactancePerturbation

        perturbation = ReactancePerturbation.from_perturbed(
            case_network, _perturbed(case_network)
        )
        via_arrays = perturbation.apply_arrays()
        via_network = perturbation.apply()
        assert via_arrays.topology is case_network.arrays.topology
        assert np.array_equal(
            via_arrays.branch_reactance, via_network.arrays.branch_reactance
        )
        assert np.array_equal(
            reduced_measurement_matrix(via_arrays),
            reduced_measurement_matrix(via_network),
        )

    def test_fast_path_keeps_error_contract(self, case_network):
        with pytest.raises(GridModelError):
            case_network.with_reactances(np.ones(case_network.n_branches + 1))
        bad = case_network.reactances()
        bad[-1] = -1.0
        with pytest.raises(GridModelError):
            case_network.with_reactances(bad)


class TestGoldenBitIdentity:
    """Arrays path vs the pre-refactor object path, bit for bit."""

    def test_incidence(self, case_network):
        assert np.array_equal(
            incidence_matrix(case_network), _reference_incidence(case_network)
        )

    def test_non_slack_indices(self, case_network):
        assert np.array_equal(
            non_slack_indices(case_network), _reference_non_slack(case_network)
        )

    def test_generator_incidence(self, case_network):
        assert np.array_equal(
            generator_incidence_matrix(case_network),
            _reference_generator_incidence(case_network),
        )

    def test_measurement_matrix_nominal_and_perturbed(self, case_network):
        assert np.array_equal(
            measurement_matrix(case_network),
            _reference_measurement_matrix(case_network),
        )
        x = _perturbed(case_network)
        assert np.array_equal(
            measurement_matrix(case_network, x),
            _reference_measurement_matrix(case_network, x),
        )
        assert np.array_equal(
            reduced_measurement_matrix(case_network, x),
            _reference_reduced_measurement_matrix(case_network, x),
        )

    def test_susceptance_equals_injection_block(self, case_network):
        B = susceptance_matrix(case_network)
        H = _reference_measurement_matrix(case_network)
        assert np.array_equal(B, H[2 * case_network.n_branches :, :])

    def test_branch_flow_matrix(self, case_network):
        x = _perturbed(case_network)
        A = _reference_incidence(case_network)
        assert np.array_equal(
            branch_flow_matrix(case_network, x), (1.0 / x)[:, None] * A.T
        )

    def test_sparse_measurement_agrees_with_dense(self, case_network):
        x = _perturbed(case_network)
        dense = measurement_matrix(case_network, x)
        sparse = measurement_matrix_sparse(case_network, x).toarray()
        assert np.allclose(dense, sparse, rtol=0, atol=1e-14)

    def test_arrays_derivative_equals_fresh_network(self, case_network):
        """A cache-sharing derivative and an independently built network
        (own topology cache) produce identical matrices and PTDF."""
        x = _perturbed(case_network)
        derivative = case_network.arrays.with_reactances(x)
        fresh = PowerNetwork(
            buses=case_network.buses,
            branches=tuple(
                b.with_reactance(x[b.index]) for b in case_network.branches
            ),
            generators=case_network.generators,
            base_mva=case_network.base_mva,
            name=case_network.name,
        )
        assert np.array_equal(
            reduced_measurement_matrix(derivative),
            reduced_measurement_matrix(fresh),
        )
        assert np.array_equal(ptdf_matrix(derivative), ptdf_matrix(fresh))
        assert np.array_equal(
            reduced_susceptance_matrix(derivative), reduced_susceptance_matrix(fresh)
        )

    def test_linear_model_factorization_identical(self, case_network):
        x = _perturbed(case_network)
        H_arrays = reduced_measurement_matrix(
            case_network.arrays.with_reactances(x)
        )
        H_reference = _reference_reduced_measurement_matrix(case_network, x)
        assert np.array_equal(H_arrays, H_reference)
        weights = np.full(H_arrays.shape[0], 1.0 / 0.0015**2)
        # Pin the dense backend: this golden test is about the QR factors,
        # which the Q-less sparse backend (auto-selected at 100+ buses)
        # deliberately does not materialize.
        model_a = LinearModel(H_arrays, weights, backend="dense")
        model_r = LinearModel(H_reference, weights, backend="dense")
        assert np.array_equal(model_a.q, model_r.q)
        assert np.array_equal(model_a.r, model_r.r)

    def test_dc_power_flow_accepts_arrays(self, case_network):
        via_network = solve_dc_power_flow(case_network)
        via_arrays = solve_dc_power_flow(case_network.arrays)
        assert np.array_equal(via_network.angles_rad, via_arrays.angles_rad)
        assert np.array_equal(via_network.flows_mw, via_arrays.flows_mw)

    def test_measurement_system_accepts_arrays(self, case_network):
        x = _perturbed(case_network)
        via_network = MeasurementSystem(case_network, reactances=x)
        via_arrays = MeasurementSystem(case_network.arrays, reactances=x)
        assert np.array_equal(via_network.matrix(), via_arrays.matrix())


class TestFig7GoldenScenario:
    """One full fig7 scenario pinned to pre-refactor metric values.

    The constants below are ``repr`` outputs captured from the legacy
    object path (commit b442993) at a reduced attack budget.  The metrics
    sit downstream of the SLSQP reactance-OPF baseline and of threaded BLAS,
    neither of which the repo's arithmetic controls, so they drift by ~1e-12
    relative with the BLAS thread count: the continuous metrics are compared
    with ``rtol=1e-9``, the undetectable fraction (a count ratio) exactly.
    """

    GOLDEN = {
        0: ("0.00051157147600565", "0.004521452689759643", "0.015625"),
        1: ("0.0005203523603755759", "0.00448614251339122", "0.0"),
        2: ("0.0005317281850339608", "0.006461054846164671", "0.0"),
        3: ("0.0005291489382271085", "0.005603480055208585", "0.0"),
        4: ("0.0005138418650021347", "0.005006401842881717", "0.015625"),
    }

    def test_fig7_matches_legacy_path(self):
        spec = scenario_suite("fig7")[0].with_updates({"attack.n_attacks": 64})
        result = ScenarioEngine().run(spec)
        assert len(result.trials) == len(self.GOLDEN)
        for trial in result.trials:
            mdp, spa, undetectable = self.GOLDEN[trial.trial_index]
            assert trial.metrics["mean_detection_probability"] == pytest.approx(
                float(mdp), rel=1e-9
            )
            assert trial.metrics["spa"] == pytest.approx(float(spa), rel=1e-9)
            assert repr(trial.metrics["undetectable_fraction"]) == undetectable
