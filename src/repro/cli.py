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
``trace`` is ``run`` with the structured-event tracer attached: it
prints an event summary and can stream the full trace to a JSONL file
for offline analysis.
``run-all`` fans the whole battery out over a process pool with
deterministic per-experiment seeds and an on-disk result cache;
``sweep`` does the same for one experiment across a parameter grid.
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

Two seed conventions.  ``run``, ``trace`` and ``chaos`` simulate at
``--seed`` as given.  ``run-all``, ``sweep``, ``serve-sim`` and
``cluster-sim`` go through the runner, which simulates each task at
``derive_seed(experiment, sweep point, --seed)``
(:func:`repro.experiments.runner.derive_seed`).  So ``repro run e4
--seed 42`` and ``repro run-all --only e4 --seed 42`` print different
numbers, each reproducible on its own.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import fields
from typing import Callable, Dict, List, Optional

from repro.cluster.scenarios import CLUSTER_SCENARIOS
from repro.experiments.harness import ExperimentSettings
from repro.experiments.registry import UnknownExperimentError, all_experiments, get
from repro.experiments.runner import (
    ExperimentTask, SuiteResult, metrics_digest, run_tasks, suite_tasks,
    sweep_tasks,
)
from repro.faults.invariants import InvariantViolation
from repro.fields import FieldError, field_type
from repro.metrics.export import write_suite_json
from repro.metrics.report import format_policy_table, format_table
from repro.service.scenarios import SCENARIOS
from repro.trace import JsonlSink, RingBufferSink, render_summary, tracing
from repro.trace.sinks import TraceSink

#: Every flag that sets an ExperimentSettings field: (field, flag, help),
#: where the flag may name its metavar after a space.  The field gives
#: the flag its type, default, choices and ``store_true``; the flag's
#: name with dashes as underscores is its argparse dest.
SETTING_FLAGS = (
    ("scale", "--scale", "database scale factor (1.0 = headline size)"),
    ("n_streams", "--streams", "number of concurrent query streams"),
    ("seed", "--seed", "workload seed"),
    ("sharing_policy", "--sharing-policy",
     "scan-sharing strategy: grouping-throttling, cooperative, or pbm"),
    ("device_count", "--device-count",
     "striped spindles backing the tablespace (1 = single disk)"),
    ("stripe_extents", "--stripe-extents",
     "stripe unit in prefetch extents (default: 4; the st-* experiments "
     "default to 1)"),
    ("push_prefetch", "--push",
     "enable the leader-driven push prefetch pipeline (default: classic "
     "pull)"),
    ("agg_strategy", "--agg-strategy",
     "spill strategy for memory-budgeted aggregation (ag-*/mj-* "
     "experiments)"),
    ("fault_spec", "--faults SPEC",
     "fault spec or builtin plan name (e.g. 'leader-abort' or "
     "'disk-delay:factor=4')"),
    ("sharing_overrides", "--sharing KEY=VAL,...",
     "SharingConfig overrides for the shared mode (e.g. "
     "'distance_threshold_extents=4')"),
    ("cluster_replicas", "--replicas",
     "replica-fleet size override (scale sweeps doubling steps up to this)"),
    ("cluster_users", "--users",
     "simulated user-population override (default: one million)"),
    ("service_horizon", "--horizon",
     "arrival-window override in simulated seconds (default: per-scenario, "
     "scale-derived)"),
)

#: The flag of each field in :data:`SETTING_FLAGS`.
_FLAGS = {name: spec.split()[0] for name, spec, _help in SETTING_FLAGS}


def _named(*prefixes: str) -> tuple:
    """The settings whose names start with one of ``prefixes``."""
    return tuple(name for name in _FLAGS if name.startswith(prefixes))


#: The settings every experiment command takes: all but the scenario
#: overrides, which serve-sim and cluster-sim take by name prefix.
_SHARED = tuple(name for name in _FLAGS
                if name not in _named("service_", "cluster_"))

#: Each scenario command's scenario table and experiment-id prefix.
_SCENARIO_TABLES = {
    "serve-sim": (SCENARIOS, "sv-"),
    "cluster-sim": (CLUSTER_SCENARIOS, "sv-cluster-"),
}


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
    _add_experiment_args(sweep)
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
    _add_scenario_args(serve, "list scenarios and exit", _named("service_"))
    serve.add_argument("--assert-bounded", action="store_true",
                       help="exit 5 unless every run drained, stayed within "
                            "its MPL bound, and kept patience-bounded "
                            "queues under their ceilings")

    cluster = subparsers.add_parser(
        "cluster-sim",
        help="run sharded multi-replica cluster scenarios (consistent-hash "
             "routing over a templated simulated-user load)",
    )
    _add_scenario_args(cluster, "list cluster scenarios and exit",
                       _named("cluster_", "service_"))
    return parser


def _add_settings_args(parser: argparse.ArgumentParser,
                       names: tuple = _SHARED) -> None:
    """Declare the flags of the settings ``names``, in table order."""
    declared = {field.name: field for field in fields(ExperimentSettings)}
    for name, spec, help_text in SETTING_FLAGS:
        if name not in names:
            continue
        flag, _, metavar = spec.partition(" ")
        kind = field_type(ExperimentSettings, name)
        # Text and structured fields take the raw string, which
        # ExperimentSettings parses and checks.
        options = {"action": "store_true"} if kind is bool else {
            "type": kind if kind in (int, float) else None,
            "choices": declared[name].metadata.get("choices"),
            "metavar": metavar or None,
        }
        parser.add_argument(flag, default=declared[name].default,
                            help=help_text, **options)


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


def _add_scenario_args(parser: argparse.ArgumentParser, list_help: str,
                       overrides: tuple) -> None:
    parser.add_argument("scenario", nargs="?", default="steady",
                        help="scenario name or comma-separated list "
                             "(default: steady; see --list)")
    parser.add_argument("--list", action="store_true", dest="list_scenarios",
                        help=list_help)
    _add_settings_args(parser)
    _add_runner_args(parser)
    _add_settings_args(parser, overrides)


class UsageError(Exception):
    """A bad argument value: ``main`` prints it as one line and exits 2."""


def _settings_from_args(args: argparse.Namespace) -> ExperimentSettings:
    """The settings the command's flags describe; a bad value raises
    :class:`UsageError` naming its flag, before any simulation starts."""
    values = {}
    for name, flag in _FLAGS.items():
        dest = flag[2:].replace("-", "_")
        if dest in args:  # the scenario overrides: some commands only
            values[name] = getattr(args, dest)
    try:
        return ExperimentSettings(**values)
    except FieldError as exc:
        raise UsageError(exc.naming(_FLAGS[exc.field])) from None


def _cmd_list(args: argparse.Namespace) -> int:
    rows = [[spec.name, spec.description] for spec in all_experiments()]
    print(format_table(["id", "experiment"], rows))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    """``run`` and ``trace``: one experiment at ``--seed`` as given.

    ``trace`` attaches a ring buffer, whose events it summarises, and
    with ``--out`` a JSONL sink.
    """
    settings = _settings_from_args(args)
    spec = get(args.experiment)
    traced = args.command == "trace"
    sinks = []
    if traced:
        if args.ring < 1:
            raise UsageError(f"--ring must be >= 1, got {args.ring}")
        sinks.append(RingBufferSink(capacity=args.ring))
        if args.out:
            try:
                sinks.append(JsonlSink(args.out))
            except OSError as exc:
                raise UsageError(
                    f"cannot open --out {args.out!r}: {exc}") from None
    with tracing(*sinks) if traced else nullcontext():
        body = spec.run(settings).render()
    print(f"{spec.name.upper()} — {spec.description} "
          f"(scale {settings.scale}, {settings.n_streams} streams"
          f"{', traced' if traced else ''})")
    print(body)
    if traced:
        ring = sinks[0]
        print()
        print(render_summary(ring.events(), total_seen=ring.total_seen))
        if args.out:
            print(f"trace written to {args.out}")
    return 0


def _run_and_report(args: argparse.Namespace, tasks: List[ExperimentTask],
                    header: str) -> SuiteResult:
    """``run-all``, ``sweep``, ``serve-sim`` and ``cluster-sim``: run the
    tasks, print the suite report and each task's render, then write
    ``--out``."""
    suite = run_tasks(tasks, jobs=args.jobs, use_cache=not args.no_cache,
                      cache_dir=args.cache_dir)
    rows = [[task.label, task.cache, f"{task.elapsed_seconds:.2f}",
             task.digest[:12]] for task in suite.tasks]
    print(header)
    print(format_table(["experiment", "cache", "seconds", "digest"], rows))
    print(f"{len(suite.tasks)} experiments, {suite.cache_hits} cache hits, "
          f"{suite.wall_seconds:.2f}s wall ({suite.jobs} jobs); "
          f"suite digest {suite.suite_digest()[:12]}")
    for task in suite.tasks:
        print(f"\n--- {task.label} ---\n{task.render}")
    if args.out:
        write_suite_json(suite, args.out)
        print(f"results written to {args.out}")
    return suite


def _cmd_run_all(args: argparse.Namespace) -> int:
    settings = _settings_from_args(args)
    only = [name.strip() for name in (args.only or "").split(",")
            if name.strip()]
    _run_and_report(
        args, suite_tasks(settings, only),
        f"RUN-ALL — scale {settings.scale}, {settings.n_streams} streams, "
        f"seed {settings.seed}",
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    settings = _settings_from_args(args)
    spec = get(args.experiment)
    values = [token.strip() for token in args.values.split(",") if token.strip()]
    if not values:
        raise UsageError("--values must name at least one grid point")
    try:
        tasks = sweep_tasks(spec.name, args.param, values, settings)
    except FieldError as exc:
        raise UsageError(str(exc)) from None
    suite = _run_and_report(
        args, tasks,
        f"SWEEP {spec.name.upper()} — {args.param} over "
        f"{', '.join(values)} (scale {settings.scale}, "
        f"{settings.n_streams} streams)",
    )
    table = (_sharing_policy_sweep_table(suite)
             if args.param == "sharing_policy" else "")
    if table:
        print("\n=== sharing-policy comparison ===\n" + table)
    return 0


def _sharing_policy_sweep_table(suite: SuiteResult) -> str:
    """One aggregated comparison table for a ``sharing_policy`` sweep.

    Works for any experiment whose metrics look like one policy run
    (``pl-mix``) — grid points missing the expected keys degrade to
    ``-`` cells rather than breaking the sweep output.
    """
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


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run one experiment under one or more fault plans.

    Exit 0 when every plan completed with the invariant checker silent,
    4 when any plan tripped a violation.
    """
    spec = get(args.experiment)
    settings = _settings_from_args(args)
    plan_names = ([args.faults] if args.faults
                  else ["leader-abort", "disk-degrade", "pool-pressure"])

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
            f"(scale {settings.scale}, {settings.n_streams} streams, "
            f"seed {settings.seed})"
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


def _cmd_scenarios(args: argparse.Namespace) -> int:
    """``serve-sim`` and ``cluster-sim``: named scenarios through the
    runner.  Exit 5 when ``--assert-bounded`` found unbounded behaviour."""
    scenarios, prefix = _SCENARIO_TABLES[args.command]
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
    suite = _run_and_report(
        args,
        [ExperimentTask(experiment=f"{prefix}{name}", settings=settings)
         for name in names],
        f"{args.command.upper()} — {', '.join(names)} "
        f"(scale {settings.scale}, seed {settings.seed})",
    )
    if not getattr(args, "assert_bounded", False):
        return 0
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


#: Every command's function: it prints its output and returns the exit code.
COMMANDS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "list": _cmd_list, "run": _cmd_run, "trace": _cmd_run,
    "run-all": _cmd_run_all, "sweep": _cmd_sweep, "chaos": _cmd_chaos,
    "serve-sim": _cmd_scenarios, "cluster-sim": _cmd_scenarios,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code: 2 for a bad argument,
    4 for an invariant violation, else the command's own."""
    args = build_parser().parse_args(argv)
    try:
        if "jobs" in args and args.jobs < 1:
            raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
        return COMMANDS[args.command](args)
    except (UnknownExperimentError, UsageError) as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"INVARIANT VIOLATION: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
