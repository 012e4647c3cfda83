"""``python3 -m bench measure|run|compare`` (see ``bench/README.md``)."""

import time

_STARTED = time.perf_counter()  # before the imports, so setup_s counts them

import argparse
import json
import subprocess
import sys
from typing import List, Optional

from bench import harness
from bench.compare import compare


def _measure(args: argparse.Namespace) -> int:
    result = harness.measure(args.workload, args.seed, args.seconds,
                             bool(args.trace), size=args.size,
                             started=_STARTED)
    if args.record:
        with open(args.record, "w") as handle:
            json.dump(result, handle)
    print(harness.render(result))
    print(harness.contract_line(result))
    return 0 if result["correct"] else 1


def _setup(args: argparse.Namespace) -> int:
    """One set-up in this fresh process; prints how long it took."""
    print(harness.set_up(args.workload, args.seed, args.size,
                         harness.Spans(), _STARTED)[2])
    return 0


def _run(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in a fresh child process."""
    started = time.perf_counter()
    contract = harness.load_contract()
    harness.OUT_DIR.mkdir(exist_ok=True)
    out = args.out or str(harness.OUT_DIR / f"run-seed{args.seed}.json")
    scratch = harness.OUT_DIR / "child.json"
    report = {"seed": args.seed, "seconds": args.seconds, "size": args.size,
              "workloads": {}}
    status = 0
    for workload in (w["name"] for w in contract["workloads"]):
        merged = None
        for trace in (0, 1):
            child = subprocess.run(
                [sys.executable, "-m", "bench", "measure",
                 "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace),
                 "--size", str(args.size), "--record", str(scratch)],
                cwd=harness.ROOT, stdout=subprocess.PIPE, text=True,
                timeout=900,
            )
            # The last line is the contract's JSON object; the report
            # keeps the fuller record instead.
            print(child.stdout.rsplit("\n", 2)[0], flush=True)
            if child.returncode != 0:
                status = 1
            if not scratch.exists():
                print(f"{workload}: the child wrote no record", flush=True)
                status = 1
                continue
            with open(scratch) as handle:
                record = json.load(handle)
            scratch.unlink()
            if merged is None:
                merged = record
            else:
                merged["per_layer"] = record["metrics"]
                merged["correct"] = merged["correct"] and record["correct"]
                merged["problems"] += record["problems"]
        if merged is not None:
            merged["end_to_end"] = merged.pop("metrics")
            report["workloads"][workload] = merged
    report["environment"] = next(
        (w["environment"] for w in report["workloads"].values()), None)
    report["total_seconds"] = time.perf_counter() - started
    with open(out, "w") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    print(f"bench run: {report['total_seconds']:.1f} s in total, report in "
          f"{out}, {'ok' if status == 0 else 'CHECKS FAILED'}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    commands = parser.add_subparsers(dest="command", required=True)

    one = commands.add_parser(
        "measure", help="one workload, one run (the BENCHMARK.json command)")
    one.add_argument("--workload", required=True)
    one.add_argument("--seed", type=int, default=11)
    one.add_argument("--seconds", type=float, default=10.0)
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)
    one.add_argument("--size", type=float, default=1.0,
                     help="share of the frozen workload size (smoke runs)")
    one.add_argument("--record", help="also write the full record here")
    one.set_defaults(handler=_measure)

    ready = commands.add_parser(
        "setup", help="set-up only, timed (measure starts these for a median)")
    ready.add_argument("--workload", required=True)
    ready.add_argument("--seed", type=int, default=11)
    ready.add_argument("--size", type=float, default=1.0)
    ready.set_defaults(handler=_setup)

    every = commands.add_parser(
        "run", help="all workloads, end-to-end and per-layer, into a report")
    every.add_argument("--seed", type=int, default=11)
    every.add_argument("--seconds", type=float, default=10.0)
    every.add_argument("--size", type=float, default=1.0,
                       help="share of the frozen workload size (smoke runs)")
    every.add_argument("--out", help="report file (default bench/out/)")
    every.set_defaults(handler=_run)

    both = commands.add_parser(
        "compare", help="two reports of `run`, metric by metric")
    both.add_argument("a")
    both.add_argument("b")
    both.set_defaults(handler=lambda args: compare(args.a, args.b))

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
