"""Tests of the telemetry subsystem: mergeable metrics, spans, reports.

The load-bearing contracts:

* snapshot merging is associative/commutative and deterministic, so
  cross-process totals are independent of shard assignment and completion
  order;
* histogram bucket counts merged across pool workers equal the counts of
  the same work run serially (fixed boundaries, no re-bucketing);
* telemetry collection never changes scientific outputs — trials with
  telemetry on are bit-identical to trials with it off, and stored records
  never contain a telemetry section;
* the orchestrator persists a well-formed ``telemetry.json`` next to the
  store manifest, rendered by the CLI verbs.
"""

from __future__ import annotations

import io
import json

import pytest

from repro import telemetry
from repro.campaign import CampaignDefinition, run_campaign
from repro.campaign.cli import main as cli_main
from repro.campaign.store import CampaignStore
from repro.engine import (
    AttackSpec,
    GridSpec,
    MTDSpec,
    ScenarioEngine,
    ScenarioSpec,
    run_trial,
)
from repro.engine.trial import clear_context_caches
from repro.grid.cases import case14
from repro.opf.reactance_opf import solve_reactance_opf
from repro.telemetry.metrics import MetricsRegistry, MetricsSnapshot, metric_key
from repro.telemetry.spans import drain_spans


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Every test starts disabled with an empty registry and span buffer."""
    telemetry.disable()
    telemetry.reset()
    drain_spans()
    yield
    telemetry.disable()
    telemetry.reset()
    drain_spans()


def small_spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="telemetry-small",
        grid=GridSpec(case="ieee14", baseline="dc-opf"),
        attack=AttackSpec(n_attacks=16, seed=1),
        mtd=MTDSpec(policy="random", max_relative_change=0.2),
        n_trials=4,
        base_seed=23,
        deltas=(0.5, 0.9),
        metric="eta(0.9)",
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


# ----------------------------------------------------------------------
# switch
# ----------------------------------------------------------------------
class TestSwitch:
    def test_disabled_by_default_and_helpers_noop(self):
        assert not telemetry.enabled()
        telemetry.counter("x")
        telemetry.histogram("y", 0.5)
        assert telemetry.snapshot().counters == {}

    def test_set_enabled_returns_previous(self):
        assert telemetry.set_enabled(True) is False
        assert telemetry.set_enabled(False) is True

    def test_enabled_scope_restores(self):
        with telemetry.enabled_scope():
            assert telemetry.enabled()
            telemetry.counter("scoped")
        assert not telemetry.enabled()
        assert telemetry.snapshot().counters["scoped"] == 1

    def test_env_switch(self, monkeypatch):
        from repro.telemetry.config import _State

        monkeypatch.setenv(telemetry.ENV_SWITCH, "1")
        assert _State().enabled
        monkeypatch.setenv(telemetry.ENV_SWITCH, "off")
        assert not _State().enabled


# ----------------------------------------------------------------------
# metrics and merging
# ----------------------------------------------------------------------
class TestMetrics:
    def test_metric_key_folds_labels_sorted(self):
        assert metric_key("a.b") == "a.b"
        assert metric_key("a.b", {"z": 1, "a": "x"}) == "a.b{a=x,z=1}"

    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        reg.counter("hits")
        reg.counter("hits", 4)
        reg.gauge("occupancy", 7.0)
        snap = reg.snapshot()
        assert snap.counters["hits"] == 5
        assert snap.gauges["occupancy"] == 7.0

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        reg.declare_histogram("h", (1.0, 2.0))
        for value in (0.5, 1.5, 1.7, 5.0):
            reg.histogram("h", value)
        payload = reg.snapshot().histograms["h"]
        assert payload["bucket_counts"] == [1, 2, 1]
        assert payload["count"] == 4
        assert payload["min"] == 0.5 and payload["max"] == 5.0

    def test_merge_is_associative_and_commutative(self):
        def snap(i):
            reg = MetricsRegistry()
            reg.counter("c", i + 1)
            reg.gauge("g", float(i))
            # Powers of two sum exactly in every order, so even the
            # histogram running sum is order-independent here.
            reg.histogram("h", 0.25 * 2**i, boundaries=(0.3, 0.6))
            return reg.snapshot()

        a, b, c = snap(0), snap(1), snap(2)
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        swapped = c.merge(a).merge(b)
        assert left.to_dict() == right.to_dict() == swapped.to_dict()
        assert left.counters["c"] == 6
        assert left.gauges["g"] == 2.0
        assert left.histograms["h"]["count"] == 3

    def test_merged_histograms_equal_serial(self):
        """Split observations across registries; merged buckets == serial."""
        values = [0.01 * i for i in range(40)]
        serial = MetricsRegistry()
        for v in values:
            serial.histogram("h", v)
        parts = [MetricsRegistry() for _ in range(3)]
        for i, v in enumerate(values):
            parts[i % 3].histogram("h", v)
        merged = MetricsSnapshot.merge_all(p.snapshot() for p in parts)
        got = dict(merged.histograms["h"])
        want = dict(serial.snapshot().histograms["h"])
        # Bucket/count/min/max are exact; only the running sum is subject
        # to float addition order.
        assert got.pop("sum") == pytest.approx(want.pop("sum"))
        assert got == want

    def test_merge_rejects_boundary_mismatch(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", 0.1, boundaries=(1.0,))
        b.histogram("h", 0.1, boundaries=(2.0,))
        with pytest.raises(ValueError, match="boundaries"):
            a.snapshot().merge(b.snapshot())

    def test_subtract_gives_delta(self):
        reg = MetricsRegistry()
        reg.counter("c", 2)
        reg.histogram("h", 0.1)
        before = reg.snapshot()
        reg.counter("c", 3)
        reg.histogram("h", 0.2)
        delta = reg.snapshot().subtract(before)
        assert delta.counters == {"c": 3}
        assert delta.histograms["h"]["count"] == 1

    def test_serialization_is_sorted_and_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("z.last")
        reg.counter("a.first")
        payload = reg.snapshot().to_dict()
        assert list(payload["counters"]) == ["a.first", "z.last"]
        rebuilt = MetricsSnapshot.from_dict(json.loads(json.dumps(payload)))
        assert rebuilt.to_dict() == payload

    def test_registry_merge_snapshot_accepts_serialized(self):
        reg = MetricsRegistry()
        reg.counter("c")
        other = MetricsRegistry()
        other.counter("c", 2)
        other.histogram("h", 0.3)
        reg.merge_snapshot(other.snapshot().to_dict())
        snap = reg.snapshot()
        assert snap.counters["c"] == 3
        assert snap.histograms["h"]["count"] == 1


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_disabled_returns_shared_null_span(self):
        from repro.telemetry.spans import NULL_SPAN

        assert telemetry.span("anything") is NULL_SPAN
        with telemetry.span("anything", key=1):
            pass
        assert drain_spans() == []

    def test_nesting_builds_tree(self):
        telemetry.enable()
        with telemetry.span("outer", shard=3):
            with telemetry.span("inner"):
                pass
            with telemetry.span("inner"):
                pass
        (root,) = drain_spans()
        assert root["name"] == "outer"
        assert root["attributes"] == {"shard": 3}
        assert [c["name"] for c in root["children"]] == ["inner", "inner"]
        assert root["wall_seconds"] >= 0.0

    def test_span_records_duration_histogram(self):
        telemetry.enable()
        with telemetry.span("timed"):
            pass
        keys = telemetry.snapshot().histograms
        assert "span.seconds{span=timed}" in keys


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------
class TestReports:
    def make_snapshot(self) -> MetricsSnapshot:
        reg = MetricsRegistry()
        reg.counter("cache.topology.hits", 6)
        reg.counter("cache.topology.misses", 2)
        reg.counter("cache.result_cache.misses", 1)
        reg.counter("engine.trials", 8)
        return reg.snapshot()

    def test_cache_rates(self):
        rates = telemetry.cache_rates(self.make_snapshot())
        assert rates["topology"]["hits"] == 6
        assert rates["topology"]["hit_rate"] == pytest.approx(0.75)
        assert rates["result_cache"]["hit_rate"] == 0.0

    def test_build_write_read_round_trip(self, tmp_path):
        report = telemetry.build_report(
            self.make_snapshot(),
            elapsed_seconds=2.0,
            executed=3,
            trials_executed=8,
            shard_wall_seconds={1: 0.5, 0: 0.25},
        )
        assert report["throughput"]["trials_per_second"] == pytest.approx(4.0)
        assert report["environment"]["python"]
        path = telemetry.write_report(tmp_path, report)
        assert path == telemetry.telemetry_path(tmp_path)
        assert telemetry.read_report(tmp_path) == json.loads(path.read_text())

    def test_read_report_absent_or_corrupt(self, tmp_path):
        assert telemetry.read_report(tmp_path) is None
        telemetry.telemetry_path(tmp_path).write_text("{not json")
        assert telemetry.read_report(tmp_path) is None

    def test_format_report_renders_sections(self):
        report = telemetry.build_report(
            self.make_snapshot(), elapsed_seconds=1.0, executed=3, trials_executed=8
        )
        text = telemetry.format_report(report)
        assert "cache topology" in text
        assert "trials/sec" in text
        assert "engine.trials = 8" in text


# ----------------------------------------------------------------------
# structured logging
# ----------------------------------------------------------------------
class TestLogging:
    def test_json_lines_parse(self):
        stream = io.StringIO()
        telemetry.configure_logging("info", json_output=True, stream=stream)
        telemetry.log_event("unit.test", shard=3, wall_seconds=1.5)
        payload = json.loads(stream.getvalue().strip())
        assert payload["event"] == "unit.test"
        assert payload["shard"] == 3
        assert payload["level"] == "info"

    def test_reconfigure_does_not_double_log(self):
        first, second = io.StringIO(), io.StringIO()
        telemetry.configure_logging("info", json_output=True, stream=first)
        telemetry.configure_logging("info", json_output=True, stream=second)
        telemetry.log_event("once")
        assert first.getvalue() == ""
        assert len(second.getvalue().strip().splitlines()) == 1

    def test_level_filtering(self):
        stream = io.StringIO()
        telemetry.configure_logging("error", stream=stream)
        telemetry.log_event("suppressed")
        assert stream.getvalue() == ""


# ----------------------------------------------------------------------
# environment stamp
# ----------------------------------------------------------------------
class TestEnvironment:
    BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def test_environment_info_keys(self):
        info = telemetry.environment_info()
        for key in ("python", "numpy", "scipy", "cpu_count", "repro",
                    "sparse_bus_threshold", "numpy_blas", "scipy_blas",
                    *self.BLAS_THREAD_VARIABLES):
            assert key in info
        assert info["repro"] is not None
        for module in ("numpy", "scipy"):
            # "<name> <version>" of the BLAS build each library reports.
            assert info[f"{module}_blas"] is None or len(info[f"{module}_blas"].split()) >= 2
        json.dumps(info)  # JSON-safe

    def test_blas_thread_variables_round_trip(self, monkeypatch):
        for variable in self.BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(variable, raising=False)
        info = telemetry.environment_info()
        assert all(info[variable] is None for variable in self.BLAS_THREAD_VARIABLES)
        for count, variable in enumerate(self.BLAS_THREAD_VARIABLES, start=1):
            monkeypatch.setenv(variable, str(count))
        info = telemetry.environment_info()
        assert [info[v] for v in self.BLAS_THREAD_VARIABLES] == ["1", "2", "3"]
        json.dumps(info)

    def test_format_environment(self):
        assert "python" in telemetry.format_environment()


# ----------------------------------------------------------------------
# engine integration: bit-identity and cross-process merging
# ----------------------------------------------------------------------
class TestEngineIntegration:
    def test_trials_bit_identical_with_telemetry_on(self):
        spec = small_spec()
        off = [run_trial(spec, i) for i in range(spec.n_trials)]
        telemetry.enable()
        on = [run_trial(spec, i) for i in range(spec.n_trials)]
        assert [t.metrics for t in on] == [t.metrics for t in off]

    def test_scenario_result_excludes_telemetry_from_payload(self):
        spec = small_spec(n_trials=2)
        telemetry.enable()
        result = ScenarioEngine().run(spec, use_cache=False)
        assert result.telemetry is not None
        assert result.telemetry["counters"]["engine.trials"] == 2
        assert "telemetry" not in result.to_dict()

    def test_telemetry_off_leaves_result_field_none(self):
        result = ScenarioEngine().run(small_spec(n_trials=2), use_cache=False)
        assert result.telemetry is None

    def test_pool_counters_equal_serial_counters(self):
        """Cross-process merge: pooled totals == serial totals, exactly."""
        spec = small_spec()
        telemetry.enable()
        serial = ScenarioEngine().run(spec, use_cache=False)
        pooled = ScenarioEngine(n_workers=2).run(spec, use_cache=False)
        assert [t.metrics for t in pooled.trials] == [t.metrics for t in serial.trials]
        assert (
            pooled.telemetry["counters"]["engine.trials"]
            == serial.telemetry["counters"]["engine.trials"]
            == spec.n_trials
        )
        # Histogram bucket counts cross the pool boundary exactly.
        key = "span.seconds{span=engine.trial}"
        assert (
            pooled.telemetry["histograms"][key]["count"]
            == serial.telemetry["histograms"][key]["count"]
            == spec.n_trials
        )

    def test_worker_cache_counters_cross_pool_boundary(self):
        """The acceptance check: worker-side cache hits reach the parent."""
        spec = small_spec(mtd=MTDSpec(policy="none"), n_trials=4)
        # Each worker builds its scenario context, the attacker's measurement
        # matrix included, from the network's cached topology artifacts;
        # forked workers must not inherit a context earlier tests left warm.
        clear_context_caches()
        telemetry.enable()
        result = ScenarioEngine(n_workers=2).run(spec, use_cache=False)
        counters = result.telemetry["counters"]
        assert counters.get("cache.topology.hits", 0) >= 1


# ----------------------------------------------------------------------
# OPF multistart health
# ----------------------------------------------------------------------
class TestOPFMultistartHealth:
    def test_counts_starts_iterations_and_caps(self):
        telemetry.enable()
        result = solve_reactance_opf(case14(), n_random_starts=2, seed=0)
        snap = telemetry.snapshot()
        # Nominal, three box corners and two random interior starts.
        assert snap.counters["opf.multistart.starts"] == 6
        assert snap.counters["opf.multistart.feasible"] == 6
        assert 0 <= snap.counters["opf.multistart.iteration_capped"] <= 6
        iterations = snap.histograms["opf.multistart.iterations"]
        assert iterations["count"] == 6
        assert 0 < iterations["max"] <= 300
        assert result.status.endswith("(6/6 feasible)")

    def test_flat_optimum_reports_near_ties(self):
        """At 205 MW every ieee14 start reaches the same cost at different
        D-FACTS reactances: the flat optimum the health counters expose."""
        network = case14()
        loads = network.loads_mw() * (205.0 / network.total_load_mw())
        telemetry.enable()
        solve_reactance_opf(network, loads_mw=loads, n_random_starts=1, seed=0)
        counters = telemetry.snapshot().counters
        assert counters["opf.multistart.starts"] == 5
        assert counters["opf.multistart.feasible"] == 5
        assert counters["opf.multistart.iteration_capped"] == 0
        assert counters["opf.multistart.near_ties"] >= 1


# ----------------------------------------------------------------------
# campaign integration: telemetry.json + CLI
# ----------------------------------------------------------------------
def tiny_definition(**overrides) -> CampaignDefinition:
    defaults = dict(
        name="telemetry-campaign",
        base=small_spec(n_trials=2),
        grids=({"mtd.max_relative_change": (0.1, 0.2)},),
        shard_size=1,
    )
    defaults.update(overrides)
    return CampaignDefinition(**defaults)


class TestCampaignIntegration:
    def test_run_writes_wellformed_telemetry_json(self, tmp_path):
        telemetry.enable()
        report = run_campaign(tiny_definition(), tmp_path / "store")
        payload = telemetry.read_report(tmp_path / "store")
        assert payload is not None
        assert payload == report.telemetry
        assert payload["partition"] == {"executed": 2, "from_cache": 0, "skipped": 0}
        assert payload["throughput"]["trials_executed"] == 4
        assert payload["shards"]["wall_seconds"].keys() == {"0", "1"}
        assert payload["metrics"]["counters"]["engine.trials"] == 4
        assert payload["environment"]["python"]
        assert payload["plan_hash"] == report.plan_hash

    def test_no_telemetry_json_when_disabled(self, tmp_path):
        report = run_campaign(tiny_definition(), tmp_path / "store")
        assert report.telemetry is None
        assert telemetry.read_report(tmp_path / "store") is None

    def test_stored_records_identical_with_telemetry_on_off(self, tmp_path):
        # Sweeping the baseline puts the reactance-OPF multistart (and its
        # health counters) on the compared path; clearing the per-process
        # grid contexts makes both runs solve it.
        definition = tiny_definition(
            grids=(
                {
                    "mtd.max_relative_change": (0.1, 0.2),
                    "grid.baseline": ("dc-opf", "reactance-opf"),
                },
            )
        )
        clear_context_caches()
        telemetry.enable()
        on = run_campaign(definition, tmp_path / "on", n_workers=2)
        telemetry.disable()
        clear_context_caches()
        run_campaign(definition, tmp_path / "off")
        counters = on.telemetry["metrics"]["counters"]
        assert counters["opf.multistart.starts"] >= 6
        assert counters["opf.multistart.feasible"] >= 1

        def normalized(directory):
            records = {}
            for record in CampaignStore(directory).records():
                # Wall-clock fields vary between any two runs, telemetry
                # or not; everything else must match bit-for-bit.
                record.pop("created_unix", None)
                record.pop("elapsed_seconds", None)
                records[record["spec_hash"]] = record
            return records

        assert normalized(tmp_path / "on") == normalized(tmp_path / "off")

    def test_manifest_carries_environment_stamp(self, tmp_path):
        run_campaign(tiny_definition(), tmp_path / "store")
        manifest = CampaignStore(tmp_path / "store").read_manifest()
        assert manifest["environment"]["python"]

    def test_resume_accounting_unchanged_with_telemetry(self, tmp_path):
        telemetry.enable()
        first = run_campaign(
            tiny_definition(), tmp_path / "store", shard_limit=1
        )
        assert len(first.executed) == 1
        second = run_campaign(tiny_definition(), tmp_path / "store")
        assert len(second.skipped) == 1
        assert len(second.executed) == 1
        payload = telemetry.read_report(tmp_path / "store")
        assert payload["partition"]["skipped"] == 1


class TestCLI:
    def run_cli(self, *argv, capsys=None):
        return cli_main(list(argv))

    def test_telemetry_env_verb(self, capsys):
        assert cli_main(["telemetry", "env"]) == 0
        out = capsys.readouterr().out
        assert "python" in out and "cpu_count" in out

    def test_telemetry_show_missing_report(self, tmp_path, capsys):
        assert cli_main(["telemetry", "show", str(tmp_path)]) == 1
        assert "no telemetry report" in capsys.readouterr().err

    def test_campaign_run_with_telemetry_flag(self, tmp_path, capsys, monkeypatch):
        # The flag enables the process-global switch; restore it afterwards.
        monkeypatch.setattr(
            "repro.telemetry.config._STATE.enabled", False, raising=False
        )
        definition_path = tmp_path / "def.json"
        definition_path.write_text(tiny_definition().to_json())
        store = tmp_path / "store"
        code = cli_main(
            ["campaign", "run", str(definition_path), "--store", str(store),
             "--telemetry"]
        )
        assert code == 0
        assert "telemetry report" in capsys.readouterr().out
        payload = telemetry.read_report(store)
        assert payload["partition"]["executed"] == 2

        assert cli_main(["telemetry", "show", str(store)]) == 0
        out = capsys.readouterr().out
        assert "trials/sec" in out or "throughput" in out

        assert cli_main(
            ["campaign", "status", "--store", str(store), "--telemetry"]
        ) == 0
        out = capsys.readouterr().out
        assert "throughput" in out

    def test_logging_flags_accepted_before_and_after_subcommand(self, capsys):
        from repro.campaign.cli import build_parser

        # Root-position (historical) placement.
        args = build_parser().parse_args(["--log-json", "telemetry", "env"])
        assert args.log_json is True and args.log_level is None
        # Trailing placement, as a user naturally types it.
        args = build_parser().parse_args(
            ["telemetry", "env", "--log-level", "debug", "--log-json"]
        )
        assert args.log_json is True and args.log_level == "debug"
        # A subparser that never saw the flag must not clobber a
        # root-parsed value with its own default.
        args = build_parser().parse_args(["--log-level", "warning", "telemetry", "env"])
        assert args.log_level == "warning" and args.log_json is False
        for sub in (["campaign", "status", "--store", "s"],
                    ["campaign", "resume", "--store", "s"],
                    ["suites", "run", "fig7", "--store", "s"],
                    ["cases", "list"]):
            args = build_parser().parse_args(sub + ["--log-json"])
            assert args.log_json is True
