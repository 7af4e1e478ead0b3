"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``info``
    Library version, available scales, schemes and artifacts.
``replay``
    Replay one trace under one scheme (optionally under attack) and
    print the failure/overhead summary.
``figure N`` / ``table N``
    Regenerate one paper artifact and print it.
``trace generate`` / ``trace stats``
    Produce a synthetic trace file / summarise an existing one.
``churn`` / ``latency`` / ``dnssec`` / ``maxdamage`` / ``attack-grid`` /
``multiseed`` / ``degradation``
    Extension experiments.  These subcommands (and their flags) are
    generated from the ``repro.experiments.EXPERIMENTS`` registry: each
    spec-dataclass field becomes one ``--flag``.
``events``
    Replay a trace observed and print the event counts plus the tail
    of the event stream.
``serve``
    Answer real DNS queries (UDP + TCP + a Prometheus endpoint) from
    the simulated hierarchy via an asyncio front end over the same
    caching-server core the replays use; ``--selftest`` drives it with
    a closed-loop client and prints qps/p50/p99.
``check``
    Run the determinism/static-analysis gate (custom AST lint rules
    REP001...; ``--strict`` adds mypy/ruff when installed).
``validate``
    Differential cache validation: the regression corpus, seeded
    op-sequence fuzzing, and a replay with the cache shadowed by the
    naive oracle (DESIGN.md §12).

Scheme syntax (for ``--scheme``): ``vanilla``, ``refresh``,
``serve-stale``, ``combination``, ``<policy>:<credit>`` (e.g.
``a-lfu:5``) for refresh+renewal, ``long-ttl:<days>`` for
refresh+long-TTL, ``swr[:<grace-seconds>]`` for stale-while-revalidate,
or ``decoupled[:<ttl-days>]`` for long TTLs with the churn-invalidation
update channel.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import field
from typing import Any, Callable, Sequence

from repro import __version__
from repro.analysis import export as csv_export
from repro.core.config import RetryPolicy
from repro.core.schemes import parse_scheme, scheme_syntax
from repro.experiments import EXPERIMENTS, figures
from repro.experiments.harness import AttackSpec, run_replay
from repro.experiments.registry import (
    CommandDef,
    add_scale_argument,
    add_spec_arguments,
    resolve_scale,
    spec_from_args,
)
from repro.experiments.scenarios import Scale, make_scenario
from repro.obs import ObservationSpec
from repro.simulation.faults import FaultSpec
from repro.workload.generator import TraceGenerator, WorkloadConfig
from repro.workload.stats import compute_statistics
from repro.workload.trace import read_trace, write_trace

HOUR = 3600.0

_FIGURES: dict[int, Callable] = {
    3: figures.figure3,
    4: figures.figure4,
    5: figures.figure5,
    6: figures.figure6,
    7: figures.figure7,
    8: figures.figure8,
    9: figures.figure9,
    10: figures.figure10,
    11: figures.figure11,
    12: figures.figure12,
}

_TABLES: dict[int, Callable] = {
    1: figures.table1,
    2: figures.table2,
}


# Re-exported for compatibility: the parser lives in repro.core.schemes
# so registry modules can use it without importing the CLI.
__all__ = ["build_parser", "main", "parse_scheme"]


def _cmd_info(args: argparse.Namespace) -> int:
    print(f"repro {__version__} — DNS resilience reproduction (DSN 2007)")
    print(f"scales: {', '.join(scale.value for scale in Scale)}")
    print(f"schemes: {scheme_syntax()}")
    print(f"figures: {', '.join(str(n) for n in sorted(_FIGURES))}")
    print(f"tables: {', '.join(str(n) for n in sorted(_TABLES))}")
    print("experiments: " + ", ".join(
        f"{name} ({definition.help})"
        for name, definition in sorted(EXPERIMENTS.items())
    ))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    config = parse_scheme(args.scheme)
    if args.retries > 0:
        config = config.with_retries(RetryPolicy(max_tries=args.retries))
    if args.fetch_budget < 0 or args.nxns_cap < 0:
        raise ValueError("--fetch-budget and --nxns-cap must be >= 0")
    if args.fetch_budget > 0 or args.nxns_cap > 0:
        config = config.with_defenses(
            fetch_budget=args.fetch_budget if args.fetch_budget > 0 else None,
            nxns_cap=args.nxns_cap if args.nxns_cap > 0 else None,
        )
    scenario = make_scenario(resolve_scale(args.scale), seed=args.seed)
    if args.trace_file:
        trace = read_trace(args.trace_file)
    else:
        trace = scenario.trace(args.trace)
    attack = None
    if args.attack_hours > 0:
        attack = AttackSpec(start=scenario.attack_start,
                            duration=args.attack_hours * HOUR,
                            intensity=args.intensity)
    faults = FaultSpec(background_loss=args.loss) if args.loss > 0 else None
    observe = None
    if args.events or args.metrics:
        observe = ObservationSpec(events_path=args.events,
                                  metrics_path=args.metrics)
    result = run_replay(scenario.built, trace, config, attack=attack,
                        seed=args.seed, observe=observe, faults=faults,
                        validation=args.validate)
    metrics = result.metrics
    print(f"trace {trace.name}: {metrics.sr_queries:,} stub queries, "
          f"{metrics.total_outgoing:,} outgoing messages")
    print(f"scheme: {config.describe()}")
    print(f"cache hit rate: {metrics.cache_hit_rate:.1%}")
    print(f"mean wait per lookup: {metrics.mean_latency * 1000:.1f} ms")
    if attack is not None:
        print(f"attack ({args.attack_hours:g} h on root+TLDs):")
        print(f"  SR failures: {metrics.sr_attack_failure_rate:.2%}")
        print(f"  CS failures: {metrics.cs_attack_failure_rate:.2%}")
    else:
        print(f"overall SR failures: {metrics.sr_failure_rate:.2%}")
    if observe is not None:
        print(f"observability: {result.event_count:,} events emitted")
        if args.events:
            print(f"  event log written to {args.events}")
        if args.metrics:
            print(f"  metrics dump written to {args.metrics}")
    return 0


@dataclasses.dataclass(frozen=True)
class EventsSpec:
    """Flags for ``repro events`` (observed replay)."""

    scheme: str = field(default="vanilla", metadata={
        "help": "e.g. vanilla, refresh, a-lfu:5, long-ttl:7, swr, decoupled:7"})
    trace: str = field(default="TRC1", metadata={
        "help": "built-in trace name (TRC1..TRC6)"})
    attack_hours: float = field(default=6.0, metadata={
        "help": "root+TLD attack duration; 0 disables"})
    last: int = field(default=20, metadata={
        "help": "event ring size / tail length"})
    out: str | None = field(default=None, metadata={
        "help": "also stream every event to this JSONL file"})
    seed: int = field(default=7, metadata={"help": "scenario seed"})
    scale: Scale | None = field(default=None, metadata={
        "help": "experiment scale (default: $REPRO_SCALE or tiny)"})


def _cmd_events(spec: EventsSpec) -> int:
    """Replay with an event ring on and show the event stream."""
    config = parse_scheme(spec.scheme)
    scenario = make_scenario(resolve_scale(spec.scale), seed=spec.seed)
    trace = scenario.trace(spec.trace)
    attack = None
    if spec.attack_hours > 0:
        attack = AttackSpec(start=scenario.attack_start,
                            duration=spec.attack_hours * HOUR)
    observe = ObservationSpec(events_path=spec.out, ring_size=spec.last)
    result = run_replay(scenario.built, trace, config, attack=attack,
                        seed=spec.seed, observe=observe)
    bus, recent = result.bus, result.recent
    if bus is None:  # pragma: no cover - run_replay was given a spec
        print("error: the replay ran unobserved", file=sys.stderr)
        return 1
    print(f"trace {trace.name}: {result.event_count:,} events "
          f"({result.event_count - len(recent):,} beyond the "
          f"{spec.last}-event ring)")
    counts = bus.counts()
    for kind in sorted(counts, key=lambda k: k.value):
        print(f"  {kind.value:<16} {counts[kind]:,}")
    print(f"last {len(recent)} events:")
    for event in recent:
        print(f"  {event.to_json()}")
    if spec.out:
        print(f"event log written to {spec.out}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    try:
        func = _FIGURES[args.number]
    except KeyError:
        print(f"no figure {args.number}; choose from "
              f"{sorted(_FIGURES)}", file=sys.stderr)
        return 2
    scenario = make_scenario(resolve_scale(args.scale), seed=args.seed)
    kwargs: dict[str, Any] = {}
    if args.traces is not None and args.number != 12:
        kwargs["trace_limit"] = args.traces
    result = func(scenario, **kwargs)
    print(result.render())
    if args.csv:
        _export_figure_csv(args.number, result, args.csv)
        print(f"[csv written to {args.csv}]")
    return 0


def _export_figure_csv(number: int, result: Any, path: str) -> None:
    if number == 3:
        headers, rows = csv_export.cdf_rows(
            result.cdf_days, figures.GAP_DAY_POINTS
        )
    elif number == 12:
        headers, rows = csv_export.memory_series_rows(result.rows)
    else:
        headers, rows = csv_export.failure_grid_rows(result)
    csv_export.write_csv(path, headers, rows)


def _cmd_table(args: argparse.Namespace) -> int:
    try:
        func = _TABLES[args.number]
    except KeyError:
        print(f"no table {args.number}; choose from {sorted(_TABLES)}",
              file=sys.stderr)
        return 2
    scenario = make_scenario(resolve_scale(args.scale), seed=args.seed)
    print(func(scenario).render())
    return 0


def _cmd_trace_generate(args: argparse.Namespace) -> int:
    scenario = make_scenario(resolve_scale(args.scale), seed=args.seed)
    config = WorkloadConfig(
        duration_days=args.days,
        queries_per_day=args.queries_per_day,
        num_clients=args.clients,
    )
    generator = TraceGenerator(scenario.built.catalog, config, seed=args.seed)
    trace = generator.generate(args.name, stream=args.stream)
    write_trace(trace, args.out)
    print(f"wrote {len(trace):,} queries ({args.days:g} days) to {args.out}")
    return 0


def _cmd_trace_stats(args: argparse.Namespace) -> int:
    trace = read_trace(args.file)
    stats = compute_statistics(trace)
    print(f"trace {stats.name}: {stats.duration_days:g} days")
    print(f"  clients:        {stats.clients:,}")
    print(f"  requests in:    {stats.requests_in:,}")
    print(f"  distinct names: {stats.distinct_names:,}")
    print(f"  distinct zones: {stats.distinct_zones:,} (approximate)")
    return 0


def _commands() -> "tuple[CommandDef, ...]":
    """Non-experiment subcommands, registered like experiments are.

    Imported lazily so ``repro events`` does not pay for the serve
    package (and vice versa) until the subcommand actually runs.
    """
    from repro.serve.cli import SERVE_COMMAND

    return (
        CommandDef(
            name="events",
            help="replay observed and print the event counts and stream tail",
            spec_type=EventsSpec,
            runner=_cmd_events,
        ),
        SERVE_COMMAND,
    )


def _command_handler(
    definition: CommandDef,
) -> Callable[[argparse.Namespace], int]:
    """One CLI handler per registry entry: args -> spec -> run.

    A command returns its exit status; an experiment returns a table,
    which is printed.
    """

    def handler(args: argparse.Namespace) -> int:
        result = definition.run(spec_from_args(definition.spec_type, args))
        if isinstance(result, int):
            return result
        print(result.render())
        return 0

    return handler


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__.split("\n")[0],
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    info = subparsers.add_parser("info", help="library capabilities")
    info.set_defaults(func=_cmd_info)

    replay = subparsers.add_parser("replay", help="replay a trace")
    replay.add_argument("--scheme", default="vanilla",
                        help=f"one of: {scheme_syntax()}")
    replay.add_argument("--trace", default="TRC1",
                        help="built-in trace name (TRC1..TRC6)")
    replay.add_argument("--trace-file", default=None,
                        help="replay a trace file instead of a built-in")
    replay.add_argument("--attack-hours", type=float, default=6.0,
                        help="root+TLD attack duration; 0 disables")
    replay.add_argument("--intensity", type=float, default=1.0,
                        help="attack drop probability (1.0 = blackout)")
    replay.add_argument("--loss", type=float, default=0.0,
                        help="background packet-loss probability")
    replay.add_argument("--retries", type=int, default=0,
                        help="retransmits per server (0 = no retry policy)")
    replay.add_argument("--fetch-budget", type=int, default=0,
                        help="per-query upstream fetch budget (0 = unlimited)")
    replay.add_argument("--nxns-cap", type=int, default=0,
                        help="per-zone NS sub-resolution cap (0 = off)")
    replay.add_argument("--events", default=None, metavar="PATH",
                        help="stream structured events to a JSONL file")
    replay.add_argument("--metrics", default=None, metavar="PATH",
                        help="write a Prometheus-style metrics dump")
    replay.add_argument("--validate", action="store_true",
                        help="shadow the cache with the naive oracle and "
                             "check invariants (slow; results unchanged)")
    replay.add_argument("--seed", type=int, default=7)
    add_scale_argument(replay)
    replay.set_defaults(func=_cmd_replay)

    figure = subparsers.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("number", type=int)
    figure.add_argument("--traces", type=int, default=None,
                        help="limit the number of traces (speed)")
    figure.add_argument("--seed", type=int, default=7)
    figure.add_argument("--csv", default=None,
                        help="also write the figure's data as CSV")
    add_scale_argument(figure)
    figure.set_defaults(func=_cmd_figure)

    table = subparsers.add_parser("table", help="regenerate a paper table")
    table.add_argument("number", type=int)
    table.add_argument("--seed", type=int, default=7)
    add_scale_argument(table)
    table.set_defaults(func=_cmd_table)

    trace = subparsers.add_parser("trace", help="trace utilities")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    generate = trace_sub.add_parser("generate", help="write a synthetic trace")
    generate.add_argument("--out", required=True)
    generate.add_argument("--name", default="TRC-CLI")
    generate.add_argument("--days", type=float, default=7.0)
    generate.add_argument("--queries-per-day", type=float, default=2000.0)
    generate.add_argument("--clients", type=int, default=50)
    generate.add_argument("--stream", type=int, default=99)
    generate.add_argument("--seed", type=int, default=7)
    add_scale_argument(generate)
    generate.set_defaults(func=_cmd_trace_generate)
    stats = trace_sub.add_parser("stats", help="summarise a trace file")
    stats.add_argument("file")
    stats.set_defaults(func=_cmd_trace_stats)

    for command in (*EXPERIMENTS.values(), *_commands()):
        sub = subparsers.add_parser(command.name, help=command.help)
        add_spec_arguments(sub, command.spec_type)
        sub.set_defaults(func=_command_handler(command))

    from repro.devtools.cli import add_check_parser
    from repro.validation.cli import add_validate_parser

    add_check_parser(subparsers)
    add_validate_parser(subparsers)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
