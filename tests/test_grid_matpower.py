"""MATPOWER ``.m`` import: parser, parity with hand-coded cases, registry
and scenario-spec integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro import case14, case30
from repro.engine.runner import ScenarioEngine
from repro.engine.scenarios import scenario_suite
from repro.engine.spec import GridSpec, ScenarioSpec
from repro.exceptions import CaseNotFoundError, GridModelError
from repro.grid.cases.registry import load_case
from repro.grid.matpower import (
    BUNDLED_CASE_DIR,
    bundled_matpower_cases,
    load_matpower_case,
    network_from_matpower,
    parse_matpower,
    resolve_case_file,
)

#: A deliberately awkward case: non-contiguous bus IDs, an out-of-service
#: branch and generator, an unlimited line (RATE_A = 0), quadratic cost
#: coefficients, and MATLAB comments.
SMALL_CASE = """
function mpc = tiny3
% three-bus toy case
mpc.version = '2';
mpc.baseMVA = 50;
mpc.bus = [
    10  3  0.0   0 0 0 1 1 0 0 1 1.06 0.94;  % slack
    20  1  40.0  0 0 0 1 1 0 0 1 1.06 0.94;
    35  2  10.0  0 0 0 1 1 0 0 1 1.06 0.94;
];
mpc.gen = [
    10  0 0 0 0 1 100 1  90  0;
    35  0 0 0 0 1 100 1  30  5;
    20  0 0 0 0 1 100 0 999  0;  % out of service
];
mpc.branch = [
    10 20 0.01 0.10 0  25 0 0 0 0 1 -360 360;
    20 35 0.01 0.20 0   0 0 0 0 0 1 -360 360;
    10 35 0.01 0.30 0  10 0 0 0 0 0 -360 360;  % out of service
];
mpc.gencost = [
    2 0 0 3 0.02 12.5 0;
    2 0 0 2 30 0 0;
    2 0 0 2 99 0 0;
];
mpc.dfacts = [2];
mpc.dfacts_range = 0.4;
"""


class TestParser:
    def test_blocks_and_scalars(self):
        case = parse_matpower(SMALL_CASE)
        assert case.name == "tiny3"
        assert case.base_mva == 50.0
        assert case.bus.shape == (3, 13)
        assert case.branch.shape == (3, 13)
        assert case.gen.shape == (3, 10)
        assert case.dfacts == (2,)
        assert case.dfacts_range == 0.4

    def test_missing_bus_block_rejected(self):
        with pytest.raises(GridModelError, match="mpc.bus"):
            parse_matpower("function mpc = x\nmpc.branch = [1 2 0 0.1 0];")

    def test_ragged_matrix_rejected(self):
        with pytest.raises(GridModelError, match="columns"):
            parse_matpower("mpc.bus = [1 3 0; 2 1];\nmpc.branch = [1 2 0 0.1 0];")

    def test_unparseable_row_rejected(self):
        with pytest.raises(GridModelError, match="cannot parse"):
            parse_matpower("mpc.bus = [1 3 zero];\nmpc.branch = [1 2 0 0.1 0];")


class TestNetworkConstruction:
    def test_small_case_semantics(self):
        network = network_from_matpower(SMALL_CASE)
        assert network.name == "tiny3"
        assert network.base_mva == 50.0
        assert network.n_buses == 3
        # non-contiguous IDs map to file positions; bus names keep the IDs
        assert [b.name for b in network.buses] == ["Bus 10", "Bus 20", "Bus 35"]
        assert network.slack_bus == 0
        assert network.loads_mw().tolist() == [0.0, 40.0, 10.0]
        # out-of-service branch dropped, RATE_A = 0 means unlimited
        assert network.n_branches == 2
        assert network.branches[0].rate_mw == 25.0
        assert network.branches[1].rate_mw == float("inf")
        # out-of-service generator dropped; linear cost term extracted from
        # the quadratic row; PMIN honoured
        assert network.n_generators == 2
        assert network.generators[0].cost_per_mwh == 12.5
        assert network.generators[1].cost_per_mwh == 30.0
        assert network.generators[1].p_min_mw == 5.0
        # mpc.dfacts / mpc.dfacts_range honoured (1-indexed, in-service order)
        assert network.dfacts_branches == (1,)
        assert network.branches[1].dfacts_min_factor == pytest.approx(0.6)

    def test_kwargs_override_file_dfacts(self):
        network = network_from_matpower(
            SMALL_CASE, dfacts_branches=(1,), dfacts_range=0.2, name="renamed"
        )
        assert network.name == "renamed"
        assert network.dfacts_branches == (0,)
        assert network.branches[0].dfacts_max_factor == pytest.approx(1.2)

    def test_duplicate_bus_id_rejected(self):
        text = SMALL_CASE.replace("20  1  40.0", "10  1  40.0")
        with pytest.raises(GridModelError, match="duplicate bus ID 10"):
            network_from_matpower(text)

    def test_reference_bus_required(self):
        text = SMALL_CASE.replace("10  3  0.0", "10  1  0.0")
        with pytest.raises(GridModelError, match="exactly one reference bus"):
            network_from_matpower(text)

    def test_unknown_branch_endpoint_rejected(self):
        text = SMALL_CASE.replace("10 20 0.01 0.10", "10 99 0.01 0.10")
        with pytest.raises(GridModelError, match="unknown bus"):
            network_from_matpower(text)

    def test_piecewise_cost_model_rejected(self):
        text = SMALL_CASE.replace("2 0 0 3 0.02 12.5 0", "1 0 0 3 0.02 12.5 0")
        with pytest.raises(GridModelError, match="MODEL = 2"):
            network_from_matpower(text)

    def test_out_of_range_dfacts_rejected(self):
        with pytest.raises(GridModelError, match="outside 1..2"):
            network_from_matpower(SMALL_CASE, dfacts_branches=(7,))


class TestBundledCaseParity:
    """The satellite acceptance: bundled .m files == hand-coded factories."""

    @pytest.mark.parametrize(
        "file_name, factory, pretty",
        [("case14.m", case14, "ieee14"), ("case30.m", case30, "ieee30")],
    )
    def test_round_trip_equality(self, file_name, factory, pretty):
        imported = load_matpower_case(BUNDLED_CASE_DIR / file_name, name=pretty)
        hand_coded = factory()
        assert imported == hand_coded

    def test_bundled_listing(self):
        assert "case14.m" in bundled_matpower_cases()
        assert "case30.m" in bundled_matpower_cases()

    def test_matrices_match_hand_coded(self):
        from repro.grid.matrices import reduced_measurement_matrix

        imported = load_case("case14.m")
        assert np.array_equal(
            reduced_measurement_matrix(imported),
            reduced_measurement_matrix(case14()),
        )


class TestRegistryIntegration:
    def test_load_case_resolves_bundled_file(self):
        network = load_case("case30.m")
        assert network.n_buses == 30
        assert len(network.dfacts_branches) == 10

    def test_load_case_resolves_filesystem_path(self, tmp_path):
        path = tmp_path / "custom.m"
        path.write_text(SMALL_CASE)
        network = load_case(str(path))
        assert network.name == "tiny3"
        assert network.n_buses == 3

    def test_missing_file_is_case_not_found(self):
        with pytest.raises(CaseNotFoundError, match="bundled cases"):
            load_case("no_such_case.m")

    def test_resolve_prefers_existing_path(self, tmp_path):
        path = tmp_path / "case14.m"
        path.write_text(SMALL_CASE)
        assert resolve_case_file(str(path)) == path

    def test_missing_explicit_path_never_falls_back_to_bundled(self, tmp_path):
        # a path with a directory component that doesn't exist must error,
        # not silently load the bundled file of the same basename
        missing = tmp_path / "mods" / "case30.m"
        with pytest.raises(CaseNotFoundError, match="does not exist"):
            resolve_case_file(str(missing))
        with pytest.raises(CaseNotFoundError):
            load_case(str(missing))

    def test_load_case_kwargs_forwarded(self):
        network = load_case("case14.m", dfacts_branches=(1, 2), dfacts_range=0.1)
        assert network.dfacts_branches == (0, 1)


class TestScenarioSpecIntegration:
    def test_grid_spec_accepts_file_reference(self):
        spec = ScenarioSpec(name="mp", grid=GridSpec(case="case14.m"), n_trials=1)
        assert spec.content_hash()  # hashable and serialisable
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert rebuilt.grid.case == "case14.m"

    def test_fig7_suite_runs_on_matpower_case30(self):
        """Acceptance: the fig7 suite, unmodified except for the case name,
        runs against the MATPOWER-loaded case30."""
        spec = scenario_suite("fig7")[0].with_updates(
            {"grid.case": "case30.m", "attack.n_attacks": 8}, n_trials=2
        )
        result = ScenarioEngine().run(spec)
        assert len(result.trials) == 2
        for trial in result.trials:
            assert trial.metrics["spa"] > 0.0
            assert 0.0 <= trial.metrics["mean_detection_probability"] <= 1.0
