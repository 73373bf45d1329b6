"""The ``python -m repro`` command line.

One-command reproducible campaigns::

    python -m repro suites list
    python -m repro suites run tables --store tables.campaign --trials 2
    python -m repro campaign run fig7_campaign.json --store fig7.campaign
    python -m repro campaign status --store fig7.campaign
    python -m repro campaign resume --store fig7.campaign
    python -m repro campaign query --store fig7.campaign \
        --metric "eta(0.9)" --group-by mtd.max_relative_change --csv out.csv

``campaign run`` takes a JSON campaign definition
(:meth:`~repro.campaign.definition.CampaignDefinition.to_json`); budget
knobs (``--trials``, ``--attacks``, arbitrary ``--set path=value``) layer
overrides on top of it.  ``resume`` reloads the definition from the store's
manifest, so an interrupted campaign continues with exactly the plan it
started with — only missing shards execute, verified by spec hash.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Sequence

from repro.analysis.lint.cli import add_lint_parser
from repro.analysis.reporting import format_table
from repro.campaign.definition import CampaignDefinition
from repro.campaign.orchestrator import CampaignOrchestrator, CampaignReport
from repro.campaign.query import export_csv, query_results, summarize_groups
from repro.campaign.store import CampaignStore
from repro.campaign.suites import available_campaigns, campaign_from_suite
from repro.exceptions import ReproError, TelemetryError
from repro.telemetry import (
    configure_logging,
    enable as enable_telemetry,
    format_environment,
    format_report,
    load_report,
    log_event,
    telemetry_path,
)
from repro.telemetry.export import (
    metrics_prom_path,
    render_openmetrics,
    render_otlp_json,
)


def _parse_value(text: str) -> Any:
    """Parse a CLI value: JSON when possible, bare string otherwise."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_assignments(pairs: Sequence[str], option: str) -> dict[str, Any]:
    """Parse repeated ``path=value`` options into an override mapping."""
    parsed: dict[str, Any] = {}
    for pair in pairs:
        path, sep, value = pair.partition("=")
        if not sep or not path:
            raise ReproError(f"{option} expects path=value, got {pair!r}")
        parsed[path] = _parse_value(value)
    return parsed


def _budget_overrides(args: argparse.Namespace) -> dict[str, Any]:
    overrides = _parse_assignments(args.set or (), "--set")
    if args.trials is not None:
        overrides.setdefault("n_trials", args.trials)
    if args.attacks is not None:
        overrides.setdefault("attack.n_attacks", args.attacks)
    return overrides


def _orchestrator(args: argparse.Namespace, create: bool = True) -> CampaignOrchestrator:
    return CampaignOrchestrator(
        CampaignStore(args.store, create=create),
        n_workers=args.workers,
        cache=args.cache,
    )


def _print_report(report: CampaignReport, store: str) -> None:
    print(
        f"campaign plan {report.plan_hash[:12]}…: {report.n_points} points, "
        f"{report.n_items} distinct scenarios"
    )
    print(
        f"  executed {len(report.executed)}, replayed {len(report.from_cache)} "
        f"from cache, skipped {len(report.skipped)} already stored "
        f"({len(report.shards_run)} shard(s), {report.elapsed_seconds:.2f}s)"
    )
    state = "complete" if report.complete else "incomplete — run resume to continue"
    print(f"  store {store}: {state}")
    if report.telemetry is not None:
        print(f"  telemetry report: {telemetry_path(store)}")
        print(f"  metrics exposition: {metrics_prom_path(store)}")
    log_event(
        "campaign.run.finished",
        store=str(store),
        plan_hash=report.plan_hash,
        executed=len(report.executed),
        from_cache=len(report.from_cache),
        skipped=len(report.skipped),
        elapsed_seconds=report.elapsed_seconds,
        complete=report.complete,
    )


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------
def _cmd_campaign_run(args: argparse.Namespace) -> int:
    definition = CampaignDefinition.from_json(Path(args.definition).read_text())
    overrides = _budget_overrides(args)
    if overrides:
        definition = definition.with_overrides(overrides)
    if args.shard_size is not None:
        definition = dataclasses.replace(definition, shard_size=args.shard_size)
    report = _orchestrator(args).run(definition, shard_limit=args.shard_limit)
    _print_report(report, args.store)
    return 0 if report.complete or args.shard_limit is not None else 1


def _cmd_campaign_resume(args: argparse.Namespace) -> int:
    report = _orchestrator(args, create=False).resume(shard_limit=args.shard_limit)
    _print_report(report, args.store)
    return 0 if report.complete or args.shard_limit is not None else 1


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    status = CampaignOrchestrator(CampaignStore(args.store, create=False)).status()
    print(
        f"campaign {status.name!r} (plan {status.plan_hash[:12]}…): "
        f"{status.n_completed}/{status.n_items} scenarios complete, "
        f"{status.n_missing} missing"
    )
    rows = [
        [shard.index, shard.n_points, shard.n_completed,
         "done" if shard.complete else "missing"]
        for shard in status.shards
    ]
    print(format_table(["shard", "points", "completed", "state"], rows))
    if getattr(args, "telemetry", False):
        try:
            report = load_report(args.store)
        except TelemetryError as error:
            print(str(error))
        else:
            print()
            print(format_report(report))
    return 0 if status.complete else 1


def _cmd_campaign_query(args: argparse.Namespace) -> int:
    store = CampaignStore(args.store, create=False)
    where = _parse_assignments(args.where or (), "--where")
    results = query_results(store, where=where or None, tags=args.tag or None)
    if not results:
        print("no stored scenarios match the query")
        return 1
    group_by = [p for p in (args.group_by or "").split(",") if p]
    groups = summarize_groups(results, metric=args.metric, group_by=group_by)
    key_columns = group_by if group_by else ["scenario"]
    rows = [
        list(group.key)
        + [group.n_scenarios, group.summary.n_trials,
           f"{group.summary.mean:.6g}", f"{group.summary.std:.6g}",
           f"{group.summary.confidence_halfwidth:.6g}",
           f"{group.summary.median:.6g}"]
        for group in groups
    ]
    metric_label = args.metric or "spec metric"
    print(
        format_table(
            key_columns + ["scenarios", "trials", "mean", "std", "ci95", "median"],
            rows,
            title=f"{len(results)} scenario(s); metric: {metric_label}",
        )
    )
    if args.csv:
        fields = [p for p in (args.fields or args.group_by or "").split(",") if p]
        path = export_csv(args.csv, results, metric=args.metric, fields=fields)
        print(f"wrote {path}")
    return 0


def _cmd_cases_list(args: argparse.Namespace) -> int:
    from repro.grid.cases.registry import available_cases
    from repro.grid.matpower import bundled_matpower_cases

    print("registered cases (usable as GridSpec.case / --set grid.case=...):")
    for name in available_cases():
        print(f"  {name}")
    bundled = bundled_matpower_cases()
    if bundled:
        print("bundled MATPOWER case files (file-referenced, e.g. grid.case=case30.m):")
        for name in bundled:
            print(f"  {name}")
    print('any other MATPOWER file loads by path: grid.case="path/to/case.m"')
    return 0


def _cmd_cases_info(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.grid.cases.registry import load_case

    network = load_case(args.name)
    arrays = network.arrays
    rates = arrays.branch_rate_mw
    finite = rates[np.isfinite(rates)]
    print(f"case {args.name!r} (network name: {network.name or 'unnamed'!r})")
    rows = [
        ["buses", network.n_buses],
        ["branches", network.n_branches],
        ["generators", network.n_generators],
        ["measurements (2L+N)", network.n_measurements],
        ["slack bus", network.slack_bus],
        ["base MVA", f"{network.base_mva:g}"],
        ["total load (MW)", f"{network.total_load_mw():.1f}"],
        ["generation capacity (MW)", f"{network.total_generation_capacity_mw():.1f}"],
        ["D-FACTS branches", len(network.dfacts_branches)],
    ]
    print(format_table(["property", "value"], rows))
    if finite.size:
        print(
            f"line ratings: {finite.size}/{rates.size} limited, "
            f"min {finite.min():g} MW, median {float(np.median(finite)):g} MW, "
            f"max {finite.max():g} MW"
        )
    else:
        print(f"line ratings: all {rates.size} branches unlimited")
    if network.dfacts_branches:
        print(f"D-FACTS on branches (0-based): {list(network.dfacts_branches)}")
    return 0


def _cmd_suites_list(args: argparse.Namespace) -> int:
    print("registered campaigns (scenario suites):")
    for name in available_campaigns():
        definition = campaign_from_suite(name)
        print(f"  {name:<12} {len(definition.points)} scenario point(s)")
    return 0


def _cmd_suites_run(args: argparse.Namespace) -> int:
    definition = campaign_from_suite(
        args.name, overrides=_budget_overrides(args), shard_size=args.shard_size
    )
    report = _orchestrator(args).run(definition, shard_limit=args.shard_limit)
    _print_report(report, args.store)
    return 0 if report.complete or args.shard_limit is not None else 1


def _cmd_campaign_watch(args: argparse.Namespace) -> int:
    from repro.campaign.watch import run_watch

    return run_watch(
        args.store,
        once=args.once,
        json_output=args.json,
        interval=args.interval,
        stall_factor=args.stall_factor,
        serve_port=args.serve_metrics,
    )


def _cmd_telemetry_show(args: argparse.Namespace) -> int:
    try:
        report = load_report(args.store)
    except TelemetryError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    fmt = getattr(args, "format", "text")
    if fmt == "prom":
        sys.stdout.write(render_openmetrics(report.get("metrics", {})))
    elif fmt == "otlp":
        print(render_otlp_json(report))
    else:
        print(format_report(report))
    return 0


def _cmd_telemetry_env(args: argparse.Namespace) -> int:
    print(format_environment())
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def _add_execution_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", required=True, help="campaign store directory")
    parser.add_argument("--workers", type=int, default=1,
                        help="shard-level worker processes (default: 1)")
    parser.add_argument("--cache", default=None,
                        help="ResultCache directory to interop with")
    parser.add_argument("--shard-limit", type=int, default=None,
                        help="run at most this many incomplete shards (checkpointing)")
    parser.add_argument("--telemetry", action="store_true",
                        help="collect metrics/spans and write telemetry.json "
                             "next to the store manifest (results unchanged)")


def _add_budget_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trials", type=int, default=None,
                        help="override n_trials of every scenario point")
    parser.add_argument("--attacks", type=int, default=None,
                        help="override attack.n_attacks of every scenario point")
    parser.add_argument("--set", action="append", metavar="PATH=VALUE",
                        help="extra dotted-path override, any depth "
                             "(repeatable), e.g. operation.profile.hours=6")
    parser.add_argument("--shard-size", type=int, default=None,
                        help="scenario points per shard")


def _logging_parent() -> argparse.ArgumentParser:
    """Logging flags, usable before *or* after the subcommand.

    The root parser owns the real defaults; this parent (attached to every
    leaf subparser) uses ``SUPPRESS`` defaults so a subparser that never saw
    the flag doesn't clobber a value the root parse already set.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--log-level", default=argparse.SUPPRESS,
                        choices=("debug", "info", "warning", "error"),
                        help="emit structured run logs at this level")
    parent.add_argument("--log-json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="structured logs as JSON lines (implies "
                             "--log-level info unless set)")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Campaign orchestration for the DSN'18 MTD reproduction.",
    )
    from repro import __version__

    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    parser.add_argument("--log-level", default=None,
                        choices=("debug", "info", "warning", "error"),
                        help="emit structured run logs at this level")
    parser.add_argument("--log-json", action="store_true",
                        help="structured logs as JSON lines (implies --log-level info "
                             "unless set)")
    logging_parent = _logging_parent()
    commands = parser.add_subparsers(dest="command", required=True)

    campaign = commands.add_parser("campaign", help="run/inspect persistent campaigns")
    actions = campaign.add_subparsers(dest="action", required=True)

    run = actions.add_parser("run", parents=[logging_parent],
                             help="run a campaign definition (JSON file)")
    run.add_argument("definition", help="path to a CampaignDefinition JSON file")
    _add_execution_options(run)
    _add_budget_options(run)
    run.set_defaults(handler=_cmd_campaign_run)

    resume = actions.add_parser("resume", parents=[logging_parent],
                                help="continue the store's campaign")
    _add_execution_options(resume)
    resume.set_defaults(handler=_cmd_campaign_resume)

    status = actions.add_parser("status", parents=[logging_parent],
                                help="completion state of a store")
    status.add_argument("--store", required=True, help="campaign store directory")
    status.add_argument("--telemetry", action="store_true",
                        help="also render the store's telemetry.json run report")
    status.set_defaults(handler=_cmd_campaign_status)

    watch = actions.add_parser(
        "watch", parents=[logging_parent],
        help="tail a running campaign's live progress stream",
    )
    watch.add_argument("--store", required=True, help="campaign store directory")
    watch.add_argument("--once", action="store_true",
                       help="render one snapshot and exit (0 = complete, no stalls)")
    watch.add_argument("--json", action="store_true",
                       help="machine-readable snapshots (one JSON object per render)")
    watch.add_argument("--interval", type=float, default=2.0,
                       help="seconds between renders (default: 2)")
    watch.add_argument("--stall-factor", type=float, default=5.0,
                       help="flag a shard as stalled after this multiple of the "
                            "median inter-event gap without a heartbeat (default: 5)")
    watch.add_argument("--serve-metrics", type=int, default=None, metavar="PORT",
                       help="also serve the live view as OpenMetrics on "
                            "http://127.0.0.1:PORT/metrics (0 picks a free port)")
    watch.set_defaults(handler=_cmd_campaign_watch)

    query = actions.add_parser("query", parents=[logging_parent],
                               help="filter/aggregate stored results")
    query.add_argument("--store", required=True, help="campaign store directory")
    query.add_argument("--where", action="append", metavar="PATH=VALUE",
                       help="dotted spec-field equality filter (repeatable)")
    query.add_argument("--tag", action="append", help="require a scenario tag (repeatable)")
    query.add_argument("--metric", default=None,
                       help="metric to summarise (default: each spec's headline metric)")
    query.add_argument("--group-by", default=None, metavar="PATH[,PATH...]",
                       help="pool trials by dotted spec field(s)")
    query.add_argument("--csv", default=None, help="also export per-scenario rows to CSV")
    query.add_argument("--fields", default=None, metavar="PATH[,PATH...]",
                       help="extra spec fields for the CSV export")
    query.set_defaults(handler=_cmd_campaign_query)

    cases = commands.add_parser("cases", help="inspect available grid cases")
    case_actions = cases.add_subparsers(dest="action", required=True)

    cases_list = case_actions.add_parser(
        "list", parents=[logging_parent],
        help="list registered cases and bundled MATPOWER files",
    )
    cases_list.set_defaults(handler=_cmd_cases_list)

    cases_info = case_actions.add_parser(
        "info", parents=[logging_parent],
        help="bus/branch/generator counts, slack, ratings of one case",
    )
    cases_info.add_argument(
        "name", help="registry name (e.g. ieee14) or MATPOWER file (e.g. case30.m)"
    )
    cases_info.set_defaults(handler=_cmd_cases_info)

    suites = commands.add_parser("suites", help="canonical suites as campaigns")
    suite_actions = suites.add_subparsers(dest="action", required=True)

    suites_list = suite_actions.add_parser(
        "list", parents=[logging_parent], help="list registered campaigns"
    )
    suites_list.set_defaults(handler=_cmd_suites_list)

    suites_run = suite_actions.add_parser(
        "run", parents=[logging_parent], help="run a suite as a campaign"
    )
    suites_run.add_argument("name", help="suite name (see: repro suites list)")
    _add_execution_options(suites_run)
    _add_budget_options(suites_run)
    suites_run.set_defaults(handler=_cmd_suites_run)

    telemetry = commands.add_parser(
        "telemetry", help="inspect run reports and the execution environment"
    )
    telemetry_actions = telemetry.add_subparsers(dest="action", required=True)

    telemetry_show = telemetry_actions.add_parser(
        "show", parents=[logging_parent],
        help="render a store's telemetry.json run report",
    )
    telemetry_show.add_argument("store", help="campaign store directory")
    telemetry_show.add_argument(
        "--format", choices=("text", "prom", "otlp"), default="text",
        help="rendering: human text, Prometheus/OpenMetrics exposition, "
             "or OTLP/JSON spans (default: text)",
    )
    telemetry_show.set_defaults(handler=_cmd_telemetry_show)

    telemetry_env = telemetry_actions.add_parser(
        "env", parents=[logging_parent],
        help="interpreter/library versions, machine shape, config",
    )
    telemetry_env.set_defaults(handler=_cmd_telemetry_env)

    add_lint_parser(commands, [logging_parent])

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.log_level is not None or args.log_json:
        configure_logging(args.log_level or "info", json_output=args.log_json)
    if getattr(args, "telemetry", False) and args.handler is not _cmd_campaign_status:
        enable_telemetry()
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


__all__ = ["build_parser", "main"]
