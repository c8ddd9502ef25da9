"""Command-line interface: ``repro`` / ``python -m repro``.

Subcommands:

``repro figure {1..6}``
    Regenerate a paper figure's data series and print it.
``repro table1``
    Print Table 1 with closed-form vs. numeric verification.
``repro simulate``
    Run a single simulation with a chosen protocol and print metrics.
``repro trace``
    Work with traces.  ``trace poisson|conference|vehicular`` generates
    a synthetic contact trace; ``trace summary|filter|convert|cdf``
    analyzes a JSONL telemetry trace recorded by
    ``repro simulate --trace-out`` (``cdf`` compares per-item empirical
    delay CDFs against the Lemma 1 exponential).
``repro allocate``
    Print the optimal allocation for a homogeneous scenario.
``repro cache``
    Inspect (``info``) or prune (``clear``) the content-addressed
    simulation run cache (see ``REPRO_SIM_CACHE`` and docs/performance.md).
``repro analyze``
    Run the repo's static analysis: the per-file rules (seeded
    determinism, sim invariants, fork safety, ...) and the
    whole-program determinism-boundary and trace-schema-drift checks
    (see docs/static_analysis.md).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import List, Optional

from . import __version__
from .allocation import greedy_homogeneous, solve_relaxed
from .contacts import (
    detect_trace_format,
    load_contact_trace,
    save_csv,
    save_jsonl,
    summarize,
)
from .contacts.synthetic import (
    ConferenceTraceConfig,
    VehicularTraceConfig,
    conference_trace,
    vehicular_trace,
)
from .contacts import homogeneous_poisson_trace
from .demand import DemandModel, generate_requests
from .errors import ReproError
from .analysis.cli import add_analyze_arguments, cmd_analyze
from .obs import Tracer
from .obs.analysis import (
    TraceFileError,
    delay_cdf_comparison,
    filter_events,
    iter_events,
    summarize_events,
    write_events_csv,
    write_events_jsonl,
)
from .experiments import (
    current_profile,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    render_table,
    verify_table1,
)
from .experiments.scenarios import (
    MU,
    N_ITEMS,
    N_NODES,
    RHO,
    TOTAL_DEMAND,
    homogeneous_scenario,
    standard_protocols,
)
from .sim import simulate
from .simcache import (
    UncacheableRunError,
    resolve_run_cache,
    run_key,
)
from .utility import (
    DelayUtility,
    ExponentialUtility,
    StepUtility,
    power_family,
)

__all__ = ["main"]


def _build_utility(args: argparse.Namespace) -> DelayUtility:
    if args.utility == "step":
        return StepUtility(args.param)
    if args.utility == "exp":
        return ExponentialUtility(args.param)
    if args.utility == "power":
        return power_family(args.param)
    raise ReproError(f"unknown utility family {args.utility!r}")


def _add_utility_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--utility",
        choices=("step", "exp", "power"),
        default="step",
        help="delay-utility family (default: step)",
    )
    parser.add_argument(
        "--param",
        type=float,
        default=10.0,
        help="family parameter: tau, nu, or alpha (default: 10)",
    )


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help=(
            "reuse previously computed simulation runs from this cache "
            "root (default: the REPRO_SIM_CACHE environment variable)"
        ),
    )
    group.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the simulation run cache even if REPRO_SIM_CACHE is set",
    )


def _cache_setting(args: argparse.Namespace):
    """Map the --cache/--no-cache flags to a ``run_cache`` argument."""
    if args.no_cache:
        return False
    if args.cache:
        return args.cache
    return None  # defer to REPRO_SIM_CACHE


def _cmd_figure(args: argparse.Namespace) -> int:
    profile = current_profile()
    sweep_kwargs = {
        "executor": args.workers,
        "progress": args.progress or None,
        "profile_dir": args.profile,
        "run_cache": _cache_setting(args),
    }
    builders = {
        1: lambda: figure1(),
        2: lambda: figure2(),
        3: lambda: figure3(profile, **sweep_kwargs),
        4: lambda: figure4(profile, **sweep_kwargs),
        5: lambda: figure5(profile, **sweep_kwargs),
        6: lambda: figure6(profile, **sweep_kwargs),
    }
    result = builders[args.number]()
    print(result.render())
    return 0


def _cmd_table1(_args: argparse.Namespace) -> int:
    verification = verify_table1()
    print(verification.render())
    print(f"\nmax relative error: {verification.max_relative_error:.2e}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    utility = _build_utility(args)
    scenario = homogeneous_scenario(
        utility,
        n_nodes=args.nodes,
        n_items=args.items,
        rho=args.rho,
        mu=args.mu,
        duration=args.duration,
        total_demand=args.demand,
    )
    factories = standard_protocols(scenario, include=(args.protocol,))
    trace = scenario.trace_factory(args.seed)
    requests = generate_requests(
        scenario.demand, trace.n_nodes, trace.duration, seed=args.seed + 1
    )
    protocol = factories[args.protocol](trace, requests)
    tracer = (
        Tracer.to_jsonl(args.trace_out, meta={"protocol": args.protocol})
        if args.trace_out
        else None
    )
    # Content-addressed reuse: a cache hit skips the simulation.  Traced
    # runs always execute (the JSONL side effect is the point), and a
    # cached result without a manifest cannot satisfy --manifest-out.
    cache = resolve_run_cache(_cache_setting(args)) if tracer is None else None
    cache_key: Optional[str] = None
    result = None
    if cache is not None:
        try:
            cache_key = run_key(
                scenario.config,
                protocol,
                args.seed + 2,
                trace,
                requests,
                None,
            )
        except UncacheableRunError:
            cache_key = None
        if cache_key is not None:
            result = cache.get(cache_key)
            if (
                result is not None
                and args.manifest_out
                and result.manifest is None
            ):
                result = None
    from_cache = result is not None
    if result is None:
        try:
            result = simulate(
                trace,
                requests,
                scenario.config,
                protocol,
                seed=args.seed + 2,
                tracer=tracer,
                manifest=bool(args.manifest_out),
            )
        finally:
            if tracer is not None:
                tracer.close()
        if cache is not None and cache_key is not None:
            cache.put(cache_key, result)
    rows = [[key, value] for key, value in result.summary().items()]
    title = f"{args.protocol} run" + (" (cached)" if from_cache else "")
    print(render_table(["metric", "value"], rows, title=title))
    if tracer is not None:
        print(f"wrote {tracer.seq} trace events to {args.trace_out}")
    if args.manifest_out:
        with open(args.manifest_out, "w", encoding="utf-8") as handle:
            json.dump(result.manifest, handle, indent=2)
            handle.write("\n")
        print(f"wrote run manifest to {args.manifest_out}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = resolve_run_cache(args.dir if args.dir else True)
    assert cache is not None  # True always resolves to a cache
    if args.cache_command == "info":
        info = cache.info()
        rows = [
            ["root", info["root"]],
            ["entries", str(info["n_entries"])],
            ["size", f"{info['total_bytes'] / 1024:.1f} KiB"],
        ]
        print(render_table(["field", "value"], rows, title="simulation run cache"))
    else:  # clear
        removed = cache.clear()
        print(f"removed {removed} cached run(s) from {cache.root}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.kind == "poisson":
        trace = homogeneous_poisson_trace(
            args.nodes, args.mu, args.duration, seed=args.seed
        )
    elif args.kind == "conference":
        trace = conference_trace(
            ConferenceTraceConfig(n_nodes=args.nodes), seed=args.seed
        )
    else:
        trace = vehicular_trace(
            VehicularTraceConfig(n_nodes=args.nodes), seed=args.seed
        )
    print(summarize(trace))
    if args.output:
        # Extension picks the format: .jsonl -> JSONL, anything else
        # -> CSV.
        if args.output.endswith(".jsonl"):
            save_jsonl(trace, args.output)
        else:
            save_csv(trace, args.output)
        print(f"saved {len(trace)} contacts to {args.output}")
    return 0


def _cmd_trace_summary(args: argparse.Namespace) -> int:
    # Contact traces (CSV/JSONL/interval) get contact statistics;
    # anything else is summarized as a JSONL telemetry event log.
    detected = detect_trace_format(args.file)
    if detected is not None:
        stats = summarize(load_contact_trace(args.file, fmt=detected))
        if args.json:
            print(json.dumps(dataclasses.asdict(stats), indent=2))
        else:
            print(stats)
        return 0
    summary = summarize_events(iter_events(args.file, validate=args.validate))
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    rows = [[kind, count] for kind, count in summary["kind_counts"].items()]
    title = f"{args.file}: {summary['n_events']} events"
    if summary["protocol"]:
        title += f" ({summary['protocol']}, t_last={summary['t_last']:g})"
    print(render_table(["event kind", "count"], rows, title=title))
    delay = summary["delay"]
    if delay is not None:
        print()
        print(
            render_table(
                ["statistic", "value"],
                [
                    ["fulfilled", delay["count"]],
                    ["mean delay", f"{delay['mean']:.4g}"],
                    ["p50", f"{delay['p50']:.4g}"],
                    ["p90", f"{delay['p90']:.4g}"],
                    ["p99", f"{delay['p99']:.4g}"],
                    ["max", f"{delay['max']:.4g}"],
                ],
                title="fulfillment delays",
            )
        )
    return 0


def _cmd_trace_filter(args: argparse.Namespace) -> int:
    events = filter_events(
        iter_events(args.file),
        kinds=args.kind or None,
        item=args.item,
        node=args.node,
        t_min=args.t_min,
        t_max=args.t_max,
    )
    if args.output:
        n = write_events_jsonl(events, args.output)
        print(f"wrote {n} events to {args.output}")
    else:
        write_events_jsonl(events, sys.stdout)
    return 0


def _cmd_trace_convert(args: argparse.Namespace) -> int:
    # Contact traces (CSV/JSONL/interval) are detected by content and
    # round-trip between each other; anything else is treated as a
    # JSONL telemetry trace.
    detected = detect_trace_format(args.file)
    if detected is not None:
        trace = load_contact_trace(args.file, fmt=detected)
        if args.format == "csv":
            save_csv(trace, args.output)
        else:
            save_jsonl(trace, args.output)
        print(
            f"converted {len(trace)} contacts to {args.output} "
            f"({detected} -> {args.format})"
        )
        return 0
    events = iter_events(args.file)
    if args.format == "csv":
        n = write_events_csv(events, args.output)
    else:
        n = write_events_jsonl(events, args.output)
    print(f"wrote {n} events to {args.output} ({args.format})")
    return 0


def _cmd_trace_cdf(args: argparse.Namespace) -> int:
    try:
        comparison = delay_cdf_comparison(
            iter_events(args.file),
            mu=args.mu,
            items=args.item or None,
            min_samples=args.min_samples,
        )
    except ValueError as exc:
        raise ReproError(str(exc)) from exc
    rows = [
        [
            item,
            detail["x"],
            detail["n_samples"],
            f"{detail['mean_delay']:.4g}",
            f"{detail['predicted_mean_delay']:.4g}",
            f"{detail['ks_statistic']:.4f}",
        ]
        for item, detail in comparison["items"].items()
    ]
    print(
        render_table(
            ["item", "x_i", "samples", "mean delay", "Lemma 1 mean", "KS"],
            rows,
            title=(
                f"empirical delay CDF vs Lemma 1 Exp(mu*x_i), "
                f"mu={args.mu:g}"
            ),
        )
    )
    if comparison["n_items_compared"]:
        print(
            f"\n{comparison['n_items_compared']} items compared: "
            f"max KS {comparison['max_ks']:.4f}, "
            f"mean KS {comparison['mean_ks']:.4f}"
        )
    else:
        print("\nno item had enough fulfilled requests to compare")
    if comparison["skipped"]:
        print(f"skipped {len(comparison['skipped'])} items (too few samples)")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(comparison, handle, indent=2)
            handle.write("\n")
        print(f"wrote full comparison to {args.output}")
    return 0


def _cmd_allocate(args: argparse.Namespace) -> int:
    utility = _build_utility(args)
    demand = DemandModel.pareto(
        args.items, omega=args.omega, total_rate=args.demand
    )
    greedy = greedy_homogeneous(
        demand, utility, args.mu, args.nodes, args.rho
    )
    relaxed = solve_relaxed(
        demand, utility, args.mu, args.nodes, budget=args.rho * args.nodes
    )
    rows = [
        [i, f"{demand.rates[i]:.4f}", int(greedy.counts[i]), f"{relaxed.counts[i]:.2f}"]
        for i in range(min(args.items, args.top))
    ]
    print(
        render_table(
            ["item", "demand", "greedy x_i", "relaxed x_i"],
            rows,
            title=f"optimal allocation ({utility.name}), welfare={greedy.welfare:.4f}",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'The Age of Impatience' (CoNEXT 2009): "
            "optimal replication for opportunistic P2P caching."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="regenerate a paper figure")
    fig.add_argument("number", type=int, choices=range(1, 7))
    fig.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "process-pool width for simulation sweeps (default: "
            "REPRO_SWEEP_EXECUTOR or serial); results are bit-identical"
        ),
    )
    fig.add_argument(
        "--progress",
        action="store_true",
        help="log live per-run sweep progress to stderr",
    )
    fig.add_argument(
        "--profile",
        metavar="DIR",
        default=None,
        help="dump per-worker cProfile stats (.pstats) into DIR",
    )
    _add_cache_arguments(fig)
    fig.set_defaults(func=_cmd_figure)

    tbl = sub.add_parser("table1", help="print and verify Table 1")
    tbl.set_defaults(func=_cmd_table1)

    sim = sub.add_parser("simulate", help="run one simulation")
    _add_utility_arguments(sim)
    sim.add_argument(
        "--protocol",
        default="QCR",
        choices=("OPT", "QCR", "QCRWOM", "SQRT", "PROP", "UNI", "DOM", "PASSIVE"),
    )
    sim.add_argument("--nodes", type=int, default=N_NODES)
    sim.add_argument("--items", type=int, default=N_ITEMS)
    sim.add_argument("--rho", type=int, default=RHO)
    sim.add_argument("--mu", type=float, default=MU)
    sim.add_argument("--duration", type=float, default=2000.0)
    sim.add_argument("--demand", type=float, default=TOTAL_DEMAND)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="record request-lifecycle telemetry as JSON lines to PATH",
    )
    sim.add_argument(
        "--manifest-out",
        metavar="PATH",
        default=None,
        help="write the run provenance manifest as JSON to PATH",
    )
    _add_cache_arguments(sim)
    sim.set_defaults(func=_cmd_simulate)

    trc = sub.add_parser(
        "trace",
        help="generate contact traces / analyze telemetry traces",
    )
    trc_sub = trc.add_subparsers(dest="trace_command", required=True)
    for kind in ("poisson", "conference", "vehicular"):
        gen = trc_sub.add_parser(
            kind, help=f"generate a synthetic {kind} contact trace"
        )
        gen.add_argument("--nodes", type=int, default=N_NODES)
        gen.add_argument("--mu", type=float, default=MU)
        gen.add_argument("--duration", type=float, default=2000.0)
        gen.add_argument("--seed", type=int, default=0)
        gen.add_argument(
            "--output",
            help="save the trace here (.jsonl: JSONL, else CSV)",
        )
        gen.set_defaults(func=_cmd_trace, kind=kind)

    trc_summary = trc_sub.add_parser(
        "summary", help="summarize a JSONL telemetry trace"
    )
    trc_summary.add_argument("file", help="JSONL trace file")
    trc_summary.add_argument(
        "--validate",
        action="store_true",
        help="check every event against the schema while reading",
    )
    trc_summary.add_argument(
        "--json", action="store_true", help="print the summary as JSON"
    )
    trc_summary.set_defaults(func=_cmd_trace_summary)

    trc_filter = trc_sub.add_parser(
        "filter", help="select events from a JSONL telemetry trace"
    )
    trc_filter.add_argument("file", help="JSONL trace file")
    trc_filter.add_argument(
        "--kind",
        action="append",
        help="keep only this event kind (repeatable)",
    )
    trc_filter.add_argument("--item", type=int, default=None)
    trc_filter.add_argument("--node", type=int, default=None)
    trc_filter.add_argument("--t-min", type=float, default=None)
    trc_filter.add_argument("--t-max", type=float, default=None)
    trc_filter.add_argument(
        "--output", help="write JSONL here (default: stdout)"
    )
    trc_filter.set_defaults(func=_cmd_trace_filter)

    trc_convert = trc_sub.add_parser(
        "convert",
        help=(
            "convert a contact trace between csv/jsonl, or a "
            "JSONL telemetry trace to CSV/JSONL"
        ),
    )
    trc_convert.add_argument(
        "file", help="contact trace (any format) or JSONL telemetry trace"
    )
    trc_convert.add_argument("output", help="destination path")
    trc_convert.add_argument(
        "--format",
        choices=("csv", "jsonl"),
        default="csv",
    )
    trc_convert.set_defaults(func=_cmd_trace_convert)

    trc_cdf = trc_sub.add_parser(
        "cdf",
        help=(
            "compare per-item empirical delay CDFs against the "
            "Lemma 1 exponential Exp(mu * x_i)"
        ),
    )
    trc_cdf.add_argument("file", help="JSONL trace file")
    trc_cdf.add_argument(
        "--mu",
        type=float,
        required=True,
        help="pairwise meeting rate of the mobility model",
    )
    trc_cdf.add_argument(
        "--item",
        type=int,
        action="append",
        help="restrict to this item (repeatable; default: all)",
    )
    trc_cdf.add_argument(
        "--min-samples",
        type=int,
        default=5,
        help="skip items with fewer fulfilled requests (default: 5)",
    )
    trc_cdf.add_argument(
        "--output", help="write the full comparison as JSON to this path"
    )
    trc_cdf.set_defaults(func=_cmd_trace_cdf)

    cache_cmd = sub.add_parser(
        "cache", help="inspect or clear the simulation run cache"
    )
    cache_sub = cache_cmd.add_subparsers(dest="cache_command", required=True)
    for cache_action, cache_help in (
        ("info", "print the cache root, entry count, and total size"),
        ("clear", "delete every cached simulation run"),
    ):
        cache_action_parser = cache_sub.add_parser(
            cache_action, help=cache_help
        )
        cache_action_parser.add_argument(
            "--dir",
            default=None,
            help=(
                "cache root (default: REPRO_SIM_CACHE or "
                "~/.cache/repro/simcache)"
            ),
        )
        cache_action_parser.set_defaults(func=_cmd_cache)

    analyze = sub.add_parser(
        "analyze",
        help=(
            "run the repo's static analysis (per-file rules and "
            "whole-program determinism, schema drift)"
        ),
    )
    add_analyze_arguments(analyze)
    analyze.set_defaults(func=cmd_analyze)

    alloc = sub.add_parser("allocate", help="print the optimal allocation")
    _add_utility_arguments(alloc)
    alloc.add_argument("--nodes", type=int, default=N_NODES)
    alloc.add_argument("--items", type=int, default=N_ITEMS)
    alloc.add_argument("--rho", type=int, default=RHO)
    alloc.add_argument("--mu", type=float, default=MU)
    alloc.add_argument("--omega", type=float, default=1.0)
    alloc.add_argument("--demand", type=float, default=TOTAL_DEMAND)
    alloc.add_argument("--top", type=int, default=15)
    alloc.set_defaults(func=_cmd_allocate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, TraceFileError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
