"""Command-line interface: run any experiment without writing code.

Usage::

    python -m repro list
    python -m repro run e4 --scale 0.35 --streams 5
    python -m repro run-all --jobs 4 --out results.json
    python -m repro sweep a3 --param scale --values 0.1,0.2,0.4
    python -m repro trace e2 --out trace.jsonl
    python -m repro chaos e2 --faults leader-abort --seed 7
    python -m repro chaos --scale 0.1
    python -m repro serve-sim steady --scale 0.1
    python -m repro serve-sim soak --faults disk-degrade --assert-bounded
    python -m repro cluster-sim steady --scale 0.1
    python -m repro cluster-sim scale --replicas 4

``run`` executes one experiment (see ``list`` for ids) and prints the
same rows/series the paper's corresponding table or figure reports.
``run-all`` fans the whole battery out over a process pool with
deterministic per-experiment seeds and an on-disk result cache;
``sweep`` does the same for one experiment across a parameter grid.
``trace`` runs one experiment with the structured-event tracer
attached, prints an event summary, and can stream the full trace to a
JSONL file for offline analysis.
``chaos`` runs one experiment under a deterministic fault plan (scan
kills, disk degradation, transient I/O errors, pool pressure) with the
sharing-invariant checker armed; without ``--faults`` it runs the three
builtin plans as a smoke battery.  Exit 4 means an invariant violation.
``serve-sim`` runs a named service scenario — open/closed arrival
streams pushed through weighted-fair admission queues under the AIMD
MPL controller — through the same cached, deterministic runner as
``run-all``; ``--assert-bounded`` (exit 5 on failure) checks the run
drained and stayed within its concurrency/queue bounds, and
``--faults`` layers a chaos plan on top.
``cluster-sim`` runs a named cluster scenario — a templated
simulated-user load routed over a sharded replica fleet by a
consistent-hash ring, each replica its own admission-controlled
service — through the same cached, deterministic runner.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Tuple

from repro.experiments.harness import ExperimentSettings
from repro.experiments.registry import UnknownExperimentError, all_experiments, get
from repro.metrics.report import format_table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Increasing Buffer-Locality for "
                    "Multiple Relational Table Scans through Grouping and "
                    "Throttling' (ICDE 2007)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    run = subparsers.add_parser("run", help="run one experiment")
    _add_experiment_args(run)

    run_all = subparsers.add_parser(
        "run-all",
        help="run the whole battery in parallel, with result caching",
    )
    _add_settings_args(run_all)
    _add_runner_args(run_all)
    run_all.add_argument(
        "--only", metavar="IDS", default=None,
        help="comma-separated experiment ids (default: every experiment)",
    )

    sweep = subparsers.add_parser(
        "sweep", help="run one experiment across a parameter grid"
    )
    sweep.add_argument("experiment", help="experiment id (see 'list')")
    _add_settings_args(sweep)
    _add_runner_args(sweep)
    sweep.add_argument("--param", required=True,
                       help="ExperimentSettings field to sweep "
                            "(e.g. scale, n_streams, policy)")
    sweep.add_argument("--values", required=True, metavar="V1,V2,...",
                       help="comma-separated grid values")

    trace = subparsers.add_parser(
        "trace", help="run one experiment with event tracing attached"
    )
    _add_experiment_args(trace)
    trace.add_argument("--out", metavar="FILE", default=None,
                       help="also write the full trace as JSONL to FILE")
    trace.add_argument("--ring", type=int, default=200_000,
                       help="in-memory ring-buffer capacity (events kept "
                            "for the summary)")

    chaos = subparsers.add_parser(
        "chaos",
        help="run an experiment under fault injection with the sharing "
             "invariant checker armed (without --faults: the three "
             "builtin plans)",
    )
    chaos.add_argument("experiment", nargs="?", default="e2",
                       help="experiment id (default: e2)")
    _add_settings_args(chaos)

    serve = subparsers.add_parser(
        "serve-sim",
        help="run admission-controlled service scenarios (open/closed "
             "arrival streams with workload classes and backpressure)",
    )
    serve.add_argument("scenario", nargs="?", default="steady",
                       help="scenario name or comma-separated list "
                            "(default: steady; see --list)")
    serve.add_argument("--list", action="store_true", dest="list_scenarios",
                       help="list scenarios and exit")
    _add_settings_args(serve)
    _add_runner_args(serve)
    serve.add_argument("--horizon", type=float, default=None,
                       help="arrival-window override in simulated seconds "
                            "(default: per-scenario, scale-derived)")
    serve.add_argument("--assert-bounded", action="store_true",
                       help="exit 5 unless every run drained, stayed within "
                            "its MPL bound, and kept patience-bounded "
                            "queues under their ceilings")

    cluster = subparsers.add_parser(
        "cluster-sim",
        help="run sharded multi-replica cluster scenarios (consistent-hash "
             "routing over a templated simulated-user load)",
    )
    cluster.add_argument("scenario", nargs="?", default="steady",
                         help="scenario name or comma-separated list "
                              "(default: steady; see --list)")
    cluster.add_argument("--list", action="store_true",
                         dest="list_scenarios",
                         help="list cluster scenarios and exit")
    _add_settings_args(cluster)
    _add_runner_args(cluster)
    cluster.add_argument("--replicas", type=int, default=None,
                         help="replica-fleet size override (scale sweeps "
                              "doubling steps up to this)")
    cluster.add_argument("--users", type=int, default=None,
                         help="simulated user-population override "
                              "(default: one million)")
    cluster.add_argument("--horizon", type=float, default=None,
                         help="arrival-window override in simulated seconds "
                              "(default: per-scenario, scale-derived)")
    return parser


def _add_settings_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.25,
                        help="database scale factor (1.0 = headline size)")
    parser.add_argument("--streams", type=int, default=5,
                        help="number of concurrent query streams")
    parser.add_argument("--seed", type=int, default=42, help="workload seed")
    parser.add_argument("--policy", default="priority-lru",
                        help="bufferpool victim policy")
    parser.add_argument("--sharing-policy", default="grouping-throttling",
                        help="scan-sharing strategy: grouping-throttling, "
                             "cooperative, or pbm")
    parser.add_argument("--device-count", type=int, default=1,
                        help="striped spindles backing the tablespace "
                             "(1 = single disk)")
    parser.add_argument("--stripe-extents", type=int, default=None,
                        help="stripe unit in prefetch extents (default: 4; "
                             "the st-* experiments default to 1)")
    parser.add_argument("--push", action="store_true",
                        help="enable the leader-driven push prefetch "
                             "pipeline (default: classic pull)")
    parser.add_argument("--agg-strategy", default="hash",
                        choices=("hash", "sort"),
                        help="spill strategy for memory-budgeted "
                             "aggregation (ag-*/mj-* experiments)")
    parser.add_argument("--faults", metavar="SPEC", default=None,
                        help="fault spec or builtin plan name (e.g. "
                             "'leader-abort' or 'disk-delay:factor=4')")
    parser.add_argument("--sharing", metavar="KEY=VAL,...", default=None,
                        help="SharingConfig overrides for the shared mode "
                             "(e.g. 'distance_threshold_extents=4')")


def _add_experiment_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("experiment", help="experiment id (see 'list')")
    _add_settings_args(parser)


def _add_runner_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (1 = run inline)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not update the result cache")
    parser.add_argument("--cache-dir", default=None,
                        help="result-cache directory "
                             "(default: $REPRO_CACHE_DIR or .repro-cache)")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write the consolidated results.json artifact")


class UsageError(Exception):
    """A bad argument value: ``main`` prints it as one line and exits 2."""


def _parse_sharing_overrides(spec: str) -> Tuple[Tuple[str, object], ...]:
    """Parse ``key=value,...`` into typed SharingConfig overrides."""
    import dataclasses

    from repro.core.config import SharingConfig
    from repro.experiments.runner import parse_field_value

    known = {f.name for f in dataclasses.fields(SharingConfig)}
    overrides = {}
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        name, sep, raw = token.partition("=")
        name = name.strip()
        if not sep:
            raise UsageError(
                f"malformed --sharing token {token!r} (expected key=value)"
            )
        if name not in known:
            raise UsageError(
                f"unknown SharingConfig field {name!r} "
                f"(known: {', '.join(sorted(known))})"
            )
        try:
            overrides[name] = parse_field_value(SharingConfig, name, raw.strip())
        except ValueError as exc:
            raise UsageError(f"--sharing field {exc}") from None
    return tuple(sorted(overrides.items()))


def _settings_from_args(args: argparse.Namespace) -> ExperimentSettings:
    """The settings the shared flags describe; a bad value raises
    :class:`UsageError` before any simulation starts."""
    from repro.buffer.replacement import KNOWN_POLICY_NAMES

    if args.scale <= 0:
        raise UsageError(f"--scale must be positive, got {args.scale}")
    if args.streams < 1:
        raise UsageError(f"--streams must be >= 1, got {args.streams}")
    if args.policy.lower() not in KNOWN_POLICY_NAMES:
        raise UsageError(
            f"unknown --policy {args.policy!r} "
            f"(known: {', '.join(KNOWN_POLICY_NAMES)})"
        )
    sharing_overrides = None
    if getattr(args, "sharing", None):
        sharing_overrides = _parse_sharing_overrides(args.sharing)
    fault_spec = getattr(args, "faults", None)
    if fault_spec is not None:
        from repro.faults.plan import FaultSpecError, parse_fault_spec

        try:
            parse_fault_spec(fault_spec)  # fail fast with a clean error
        except FaultSpecError as exc:
            raise UsageError(f"bad --faults spec: {exc}") from None
    sharing_policy = getattr(args, "sharing_policy", "grouping-throttling")
    from repro.core.policy import SHARING_POLICY_NAMES

    if sharing_policy not in SHARING_POLICY_NAMES:
        raise UsageError(
            f"unknown --sharing-policy {sharing_policy!r} "
            f"(known: {', '.join(SHARING_POLICY_NAMES)})"
        )
    device_count = getattr(args, "device_count", 1)
    if device_count < 1:
        raise UsageError(f"--device-count must be >= 1, got {device_count}")
    stripe_extents = getattr(args, "stripe_extents", None)
    if stripe_extents is not None and stripe_extents < 1:
        raise UsageError(
            f"--stripe-extents must be >= 1, got {stripe_extents}"
        )
    return ExperimentSettings(
        scale=args.scale, n_streams=args.streams, seed=args.seed,
        policy=args.policy, sharing_policy=sharing_policy,
        device_count=device_count,
        stripe_extents=stripe_extents,
        push_prefetch=bool(getattr(args, "push", False)),
        agg_strategy=getattr(args, "agg_strategy", "hash"),
        sharing_overrides=sharing_overrides,
        fault_spec=fault_spec,
    )


def _cmd_list() -> str:
    rows = [[spec.name, spec.description] for spec in all_experiments()]
    return format_table(["id", "experiment"], rows)


def _cmd_run(args: argparse.Namespace) -> str:
    settings = _settings_from_args(args)
    spec = get(args.experiment)
    header = (
        f"{spec.name.upper()} — {spec.description} "
        f"(scale {args.scale}, {args.streams} streams)"
    )
    return header + "\n" + spec.run(settings).render()


def _suite_report(suite, header: str) -> str:
    rows = [
        [task.label, task.cache, f"{task.elapsed_seconds:.2f}", task.digest[:12]]
        for task in suite.tasks
    ]
    table = format_table(["experiment", "cache", "seconds", "digest"], rows)
    footer = (
        f"{len(suite.tasks)} experiments, {suite.cache_hits} cache hits, "
        f"{suite.wall_seconds:.2f}s wall ({suite.jobs} jobs); "
        f"suite digest {suite.suite_digest()[:12]}"
    )
    return header + "\n" + table + "\n" + footer


def _cmd_run_all(args: argparse.Namespace) -> str:
    from repro.experiments.runner import run_suite
    from repro.metrics.export import write_suite_json

    settings = _settings_from_args(args)
    only = None
    if args.only:
        only = [name.strip() for name in args.only.split(",") if name.strip()]
        for name in only:
            get(name)  # fail fast with one clean error line
    suite = run_suite(
        settings, experiments=only, jobs=args.jobs,
        use_cache=not args.no_cache, cache_dir=args.cache_dir,
    )
    text = _suite_report(
        suite,
        f"RUN-ALL — scale {args.scale}, {args.streams} streams, "
        f"seed {args.seed}",
    )
    if args.out:
        write_suite_json(suite, args.out)
        text += f"\nresults written to {args.out}"
    return text


def _cmd_sweep(args: argparse.Namespace) -> str:
    from repro.experiments.runner import run_sweep
    from repro.metrics.export import write_suite_json

    settings = _settings_from_args(args)
    spec = get(args.experiment)
    values = [token.strip() for token in args.values.split(",") if token.strip()]
    if not values:
        raise UsageError("--values must name at least one grid point")
    try:
        suite = run_sweep(
            spec.name, args.param, values, settings, jobs=args.jobs,
            use_cache=not args.no_cache, cache_dir=args.cache_dir,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    parts = [_suite_report(
        suite,
        f"SWEEP {spec.name.upper()} — {args.param} over "
        f"{', '.join(values)} (scale {args.scale}, {args.streams} streams)",
    )]
    for task in suite.tasks:
        parts.append(f"\n--- {task.label} ---\n{task.render}")
    if args.param == "sharing_policy":
        table = _sharing_policy_sweep_table(suite)
        if table:
            parts.append("\n=== sharing-policy comparison ===\n" + table)
    if args.out:
        write_suite_json(suite, args.out)
        parts.append(f"\nresults written to {args.out}")
    return "\n".join(parts)


def _sharing_policy_sweep_table(suite) -> str:
    """One aggregated comparison table for a ``sharing_policy`` sweep.

    Works for any experiment whose metrics look like one policy run
    (``pl-mix``) — grid points missing the expected keys degrade to
    ``-`` cells rather than breaking the sweep output.
    """
    from repro.metrics.report import format_policy_table

    rows = []
    for task in suite.tasks:
        metrics = task.metrics
        if not isinstance(metrics, dict) or "makespan" not in metrics:
            continue
        row = dict(metrics)
        row.setdefault("policy", task.sweep_point.partition("=")[2])
        rows.append(row)
    if not rows:
        return ""
    return format_policy_table(rows)


def _cmd_trace(args: argparse.Namespace) -> str:
    from repro.trace import JsonlSink, RingBufferSink, render_summary, tracing

    settings = _settings_from_args(args)
    spec = get(args.experiment)
    if args.ring < 1:
        raise UsageError(f"--ring must be >= 1, got {args.ring}")
    ring = RingBufferSink(capacity=args.ring)
    sinks = [ring]
    if args.out:
        try:
            sinks.append(JsonlSink(args.out))
        except OSError as exc:
            raise UsageError(f"cannot open --out {args.out!r}: {exc}") from None
    with tracing(*sinks):
        body = spec.run(settings).render()
    header = (
        f"{spec.name.upper()} — {spec.description} "
        f"(scale {args.scale}, {args.streams} streams, traced)"
    )
    text = header + "\n" + body + "\n\n"
    text += render_summary(ring.events(), total_seen=ring.total_seen)
    if args.out:
        text += f"\ntrace written to {args.out}"
    return text


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run one experiment under one or more fault plans.

    Returns an exit code directly: 0 when every plan completed with the
    invariant checker silent, 4 when any plan tripped a violation.
    """
    from collections import Counter

    from repro.experiments.runner import metrics_digest
    from repro.faults.invariants import InvariantViolation
    from repro.trace import tracing
    from repro.trace.sinks import TraceSink

    spec = get(args.experiment)
    settings = _settings_from_args(args)
    if not args.faults:
        plan_names = ["leader-abort", "disk-degrade", "pool-pressure"]
    else:
        plan_names = [args.faults]

    class KindCounter(TraceSink):
        """Counts (category, kind) pairs without retaining events."""

        def __init__(self) -> None:
            self.counts: Counter = Counter()

        def write(self, event) -> None:
            self.counts[(event.category, event.kind)] += 1

    violations = 0
    for plan in plan_names:
        print(
            f"CHAOS {spec.name.upper()} — plan {plan} "
            f"(scale {args.scale}, {args.streams} streams, seed {args.seed})"
        )
        counter = KindCounter()
        try:
            with tracing(counter):
                result = spec.run(settings.with_(fault_spec=plan))
        except InvariantViolation as exc:
            violations += 1
            print(f"  INVARIANT VIOLATION: {exc}", file=sys.stderr)
            continue
        digest = metrics_digest(result.metrics())
        injected = ", ".join(
            f"{kind}={count}"
            for (category, kind), count in sorted(counter.counts.items())
            if category == "fault" and kind != "invariant"
        ) or "none"
        checks = counter.counts.get(("fault", "invariant"), 0)
        print(f"  metrics digest {digest[:12]}")
        print(f"  faults injected: {injected}")
        print(f"  invariants OK ({checks} checks)")
    return 4 if violations else 0


def _cmd_scenarios(
    args: argparse.Namespace, scenarios: Dict[str, str], prefix: str
) -> int:
    """Run one or more named scenarios through the parallel runner.

    ``serve-sim`` and ``cluster-sim`` are this one command over different
    scenario tables (``prefix`` + scenario name is the experiment id).
    Returns an exit code directly: 0 on success, 4 on an invariant
    violation (chaos runs), 5 when ``--assert-bounded`` found unbounded
    behaviour; an unknown scenario or bad argument raises
    :class:`UsageError`.
    """
    from repro.experiments.runner import ExperimentTask, run_tasks
    from repro.faults.invariants import InvariantViolation
    from repro.metrics.export import write_suite_json

    if args.list_scenarios:
        print(format_table(["scenario", "description"], sorted(scenarios.items())))
        return 0
    names = [n.strip() for n in args.scenario.split(",") if n.strip()]
    if not names:
        raise UsageError("no scenario named")
    for name in names:
        if name not in scenarios:
            raise UsageError(
                f"unknown scenario {name!r} "
                f"(known: {', '.join(sorted(scenarios))})"
            )
    settings = _settings_from_args(args)
    # Overrides a command does not declare (serve-sim: all but --horizon)
    # are simply absent from its namespace.
    for flag, field, need in (
        ("replicas", "cluster_replicas", ">= 1"),
        ("users", "cluster_users", ">= 1"),
        ("horizon", "service_horizon", "positive"),
    ):
        value = getattr(args, flag, None)
        if value is None:
            continue
        if value <= 0:
            raise UsageError(f"--{flag} must be {need}, got {value}")
        settings = settings.with_(**{field: value})
    tasks = [
        ExperimentTask(experiment=f"{prefix}{name}", settings=settings)
        for name in names
    ]
    try:
        suite = run_tasks(
            tasks, jobs=args.jobs,
            use_cache=not args.no_cache, cache_dir=args.cache_dir,
        )
    except InvariantViolation as exc:
        print(f"INVARIANT VIOLATION: {exc}", file=sys.stderr)
        return 4
    print(_suite_report(
        suite,
        f"{args.command.upper()} — {', '.join(names)} "
        f"(scale {settings.scale}, seed {settings.seed})",
    ))
    for task in suite.tasks:
        print(f"\n--- {task.label} ---\n{task.render}")
    if args.out:
        write_suite_json(suite, args.out)
        print(f"results written to {args.out}")
    if getattr(args, "assert_bounded", False):
        from repro.service.metrics import bounded_problems

        problems = []
        for task in suite.tasks:
            problems.extend(bounded_problems(task.label, task.metrics))
        if problems:
            print("\nUNBOUNDED SERVICE BEHAVIOUR:", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 5
        print("\nboundedness assertions passed")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    commands = {
        "list": lambda: _cmd_list(),
        "run": lambda: _cmd_run(args),
        "run-all": lambda: _cmd_run_all(args),
        "sweep": lambda: _cmd_sweep(args),
        "trace": lambda: _cmd_trace(args),
    }
    try:
        if args.command == "chaos":
            return _cmd_chaos(args)
        if args.command == "serve-sim":
            from repro.service.scenarios import SCENARIOS

            return _cmd_scenarios(args, SCENARIOS, "sv-")
        if args.command == "cluster-sim":
            from repro.cluster.scenarios import CLUSTER_SCENARIOS

            return _cmd_scenarios(args, CLUSTER_SCENARIOS, "sv-cluster-")
        print(commands[args.command]())
    except (UnknownExperimentError, UsageError) as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
