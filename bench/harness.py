"""Measure one workload: set-up, timed Base+SS iterations, checks, metrics.

One call to :func:`measure` is one run of the benchmark contract
(``--workload --seed --seconds --trace``).  End-to-end metrics come from
iterations with nothing attached; with ``trace`` on, iterations run
under ``cProfile`` and the per-layer metrics are reported instead.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Set-ups per run, this process's and those of fresh children;
#: ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: The warm-up is the same workload at this share of its size.
WARMUP_SHARE = 0.1
#: Timed iterations a run makes at least, however short ``--seconds`` is.
MIN_ITERATIONS = 3
#: Share of a traced run spent on unprofiled reference iterations.
REFERENCE_SHARE = 0.3

_CALIBRATION_LOOPS = 200_000


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a metric it must produce."""


def load_contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def add_source_path() -> None:
    """Make ``repro`` importable from a bare checkout (no PYTHONPATH)."""
    source = str(ROOT / "src")
    if source not in sys.path:
        sys.path.insert(0, source)


# ----------------------------------------------------------------------
# Spans and statistics
# ----------------------------------------------------------------------


class Spans:
    """In-memory spans around the harness's own calls into ``repro``."""

    def __init__(self) -> None:
        self.rows: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        row = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._open[-1] if self._open else None}
        self._open.append(len(self.rows))
        self.rows.append(row)
        try:
            yield
        finally:
            row["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> List[float]:
        return [row["end"] - row["start"] for row in self.rows
                if row["name"] == name and row["end"] is not None]


def stat(values: List[float], unit: str) -> Dict[str, Any]:
    """Median, quartiles and sample count of one metric."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "unit": unit,
            "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: List[float], q: float) -> float:
    """Linearly interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_latency(latencies: List[float], tail: str, full_size: bool) -> float:
    """The workload's frozen tail percentile (``max``, ``p90``, ``p95``).

    At full size the percentile must have at least ten samples beyond
    it, the rule it was chosen by; a smaller sample is an error.
    """
    if tail == "max":
        return max(latencies)
    q = float(tail[1:])
    if full_size and len(latencies) * (1.0 - q / 100.0) < 10:
        raise BenchmarkError(
            f"{tail} of {len(latencies)} latencies has fewer than ten "
            f"samples beyond it")
    return percentile(latencies, q)


def values_close(a: Any, b: Any) -> bool:
    """Whether two answers agree (NaN-aware, floats to rel 1e-9: a scan
    that wraps sums the same pages in another order)."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            values_close(a[key], b[key]) for key in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(map(values_close, a, b))
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=1e-9)
    return bool(a == b)


# ----------------------------------------------------------------------
# Checks and simulated metrics of one iteration
# ----------------------------------------------------------------------


def check(base: Any, shared: Any, base_counters: Dict[str, Any],
          shared_counters: Dict[str, Any]) -> Tuple[int, int, int, List[str]]:
    """``(attempted, failed, abandoned, problems)`` of one iteration.

    ``failed`` counts queries that never finished without abandoning or
    whose answer differs between the passes; ``abandoned`` counts the
    simulated users who gave up queueing (a modelled outcome, not a
    fault).  Any entry in ``problems`` makes the run incorrect.
    """
    problems: List[str] = []
    base_by_key = {query.key: query for query in base.queries}
    shared_by_key = {query.key: query for query in shared.queries}
    attempted = len(base.queries) + len(shared.queries)
    abandoned = sum(query.latency is None
                    for query in base.queries + shared.queries)
    failed = 0
    service = "service.n_arrived" in shared.extra
    if not service:
        # A closed batch has a fixed query set: every key in both passes,
        # every query finished.
        failed += len(base_by_key.keys() ^ shared_by_key.keys()) + abandoned
        abandoned = 0
    for key in base_by_key.keys() & shared_by_key.keys():
        ours, theirs = base_by_key[key], shared_by_key[key]
        if ours.latency is None or theirs.latency is None:
            continue
        if not values_close(ours.values, theirs.values):
            failed += 1
            problems.append(f"answer of query {key} differs between Base and SS")
    if failed and not problems:
        problems.append(f"{failed} queries missing or unfinished")
    for label, passed, counted in (("Base", base, base_counters),
                                   ("SS", shared, shared_counters)):
        if not passed.drained:
            problems.append(f"{label} pass did not drain")
        parts = [counted[f"buffer.{name}"] for name in
                 ("logical_reads", "hits", "misses", "inflight_waits")]
        if None not in parts and parts[0] != sum(parts[1:]):
            problems.append(
                f"{label} pool: logical reads {parts[0]} != hits + misses + "
                f"in-flight waits {sum(parts[1:])}")
        if counted["push.duplicate_deliveries"]:
            problems.append(f"{label} push delivered an extent twice")
    return attempted, failed, abandoned, problems[:20]


def simulated(base: Any, shared: Any, tail: str, full_size: bool,
              completed_share: float) -> Dict[str, float]:
    """The deterministic end-to-end metrics of one iteration."""
    latencies = [q.latency for q in shared.queries if q.latency is not None]
    groups = shared.group_time.keys() & base.group_time.keys()
    try:
        return {
            "sim_makespan_s": shared.makespan,
            "sim_pages_read": shared.pages_read,
            "sim_seeks": shared.seeks,
            "sim_e2e_ratio": shared.makespan / base.makespan,
            "sim_read_ratio": shared.pages_read / base.pages_read,
            "sim_seek_ratio": shared.seeks / base.seeks,
            "sim_worst_stream_ratio": max(
                shared.group_time[g] / base.group_time[g] for g in groups),
            "sim_latency_p50_s": percentile(latencies, 50),
            "sim_latency_tail_s": tail_latency(latencies, tail, full_size),
            "completed_share": completed_share,
        }
    except (ZeroDivisionError, ValueError, IndexError) as error:
        raise BenchmarkError(
            f"an end-to-end metric cannot be computed: {error!r}") from error


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------


def _spin_rate() -> float:
    """Spin-loop iterations per second: the same yardstick loop as
    ``repro.perf.bench.calibrate``, so reports from two boxes compare."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        acc = 0
        for i in range(_CALIBRATION_LOOPS):
            acc += i & 7
        best = min(best, time.perf_counter() - started)
    return _CALIBRATION_LOOPS / best


def environment() -> Dict[str, Any]:
    """What every output file records about the run's surroundings."""
    from repro.sim.backend import backend_name

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "event_queue_backend": backend_name(),
        "spin_ops_per_s": _spin_rate(),
    }


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


def _repeat(step: Callable[[], None], budget_s: float, at_least: int) -> None:
    """Call ``step`` until the next call would end more than half a call
    past the budget, and at least ``at_least`` times."""
    durations: List[float] = []
    started = time.perf_counter()
    while True:
        before = time.perf_counter()
        step()
        durations.append(time.perf_counter() - before)
        elapsed = time.perf_counter() - started
        if (len(durations) >= at_least
                and elapsed + 0.5 * statistics.median(durations) > budget_s):
            return


def set_up(workload: str, seed: int, size: float, spans: Spans,
           started: float) -> Tuple[Any, Any, float]:
    """Import ``repro``, generate the inputs, build both databases and warm
    up at a tenth of the size: everything before the first timed
    iteration.  Returns the workload, its inputs and the seconds since
    ``started`` (the ``perf_counter`` reading at process start)."""
    with spans.span("setup.import"):
        add_source_path()
        from bench import workloads
    if workload not in workloads.WORKLOADS:
        raise BenchmarkError(
            f"unknown workload {workload!r}; known: "
            f"{', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[workload]
    with spans.span("setup.generate"):
        inputs = wl.generate(seed, size)
    with spans.span("setup.build"):
        workloads.build(inputs)
    with spans.span("setup.warmup"):
        warm = wl.generate(seed, size * WARMUP_SHARE)
        wl.run_pass(warm, False, spans)
        wl.run_pass(warm, True, spans)
    return wl, inputs, time.perf_counter() - started


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: float = 1.0, started: Optional[float] = None,
            out_dir: Path = OUT_DIR) -> Dict[str, Any]:
    """Run one workload and return its record.

    ``size`` scales the frozen workload size (1.0 = as frozen; the smoke
    test uses less); ``started`` is the ``perf_counter`` reading at
    process start, so ``setup_s`` counts interpreter and import time.
    Set-up runs once here and, for a median, in fresh child processes
    too.  A traced run writes ``trace-<workload>.json`` into ``out_dir``.
    """
    started = time.perf_counter() if started is None else started
    contract = load_contract()
    units = {m["name"]: m["unit"]
             for m in contract["end_to_end"] + contract["per_layer"]}
    wanted = [m["name"] for m in
              contract["per_layer" if trace else "end_to_end"]]
    spans = Spans()
    wl, inputs, ready = set_up(workload, seed, size, spans, started)
    from bench import layers, workloads

    tail = workloads.SIZES[workload]["tail"]
    setups = [ready] + [
        float(subprocess.run(
            [sys.executable, "-m", "bench", "setup", "--workload", workload,
             "--seed", str(seed), "--size", str(size)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120,
            check=True,
        ).stdout)
        for _ in range(SETUP_REPEATS - 1)
    ]

    walls: List[float] = []
    cpus: List[float] = []
    profiles: List[Dict[str, float]] = []
    profiled_walls: List[float] = []
    records: List[Dict[str, Any]] = []
    problems: List[str] = []
    totals = {"attempted": 0, "failed": 0}

    def passes(span: str) -> Tuple[Any, Any]:
        with spans.span(f"{span}.base"):
            base = wl.run_pass(inputs, False, spans)
        with spans.span(f"{span}.shared"):
            shared = wl.run_pass(inputs, True, spans)
        return base, shared

    def iteration(profiled: bool) -> None:
        if workloads.tracing_enabled():
            problems.append("the repro tracer is on during a timed iteration")
        gc.collect()
        if profiled:
            held: List[Tuple[Any, Any]] = []
            rolled, wall = layers.profile_layers(
                lambda: held.append(passes("profiled")))
            profiles.append(rolled)
            profiled_walls.append(wall)
            base, shared = held[0]
        else:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            base, shared = passes("run")
            walls.append(time.perf_counter() - wall0)
            cpus.append(time.process_time() - cpu0)
        with spans.span("check.answers"):
            base_counters = layers.counters(base)
            shared_counters = layers.counters(shared)
            attempted, failed, abandoned, found = check(
                base, shared, base_counters, shared_counters)
            totals["attempted"] += attempted
            totals["failed"] += failed
            problems.extend(found)
            record = {
                "sim": simulated(
                    base, shared, tail, size >= 1.0,
                    (attempted - failed - abandoned) / attempted),
                "counters": shared_counters,
                "failed_share": (failed + abandoned) / attempted,
                "latency_samples": sum(
                    q.latency is not None for q in shared.queries),
                "pages_scanned": sum(
                    q.pages_scanned for q in base.queries + shared.queries),
                "answers": hashlib.sha256(repr(
                    [(q.key, q.values) for q in base.queries + shared.queries]
                ).encode()).hexdigest(),
            }
            if records and record != records[0]:
                problems.append(
                    "simulated metrics, counters or answers differ between "
                    "two iterations of the same inputs")
            records.append(record)

    if trace:
        _repeat(lambda: iteration(False), seconds * REFERENCE_SHARE, 1)
        _repeat(lambda: iteration(True), seconds * (1.0 - REFERENCE_SHARE), 1)
    else:
        _repeat(lambda: iteration(False), seconds, MIN_ITERATIONS)

    first = records[0]
    metrics: Dict[str, Dict[str, Any]] = {}

    def put(name: str, values: List[Optional[float]]) -> None:
        if name not in units:
            raise BenchmarkError(f"metric {name!r} is not in BENCHMARK.json")
        if values[0] is None:
            metrics[name] = {"value": None, "unit": units[name],
                             "q1": None, "q3": None, "n": 0}
        else:
            metrics[name] = stat(values, units[name])

    if trace:
        for name in profiles[0]:
            put(name, [rolled[name] for rolled in profiles])
        put("host.trace_overhead_ratio",
            [wall / statistics.median(walls) for wall in profiled_walls])
        for name in ("setup.import", "setup.generate", "setup.build",
                     "setup.warmup", "run.base", "run.shared", "check.answers"):
            put(f"{name}_s", spans.durations(name))
        for name, value in first["counters"].items():
            put(name, [value])
        for name, ratio in (("e2e", "sim_e2e_ratio"), ("read", "sim_read_ratio"),
                            ("seek", "sim_seek_ratio"),
                            ("min_stream", "sim_worst_stream_ratio")):
            put(f"paper.{name}_gain_pct", [100.0 * (1.0 - first["sim"][ratio])])
        put("check.failed_share", [first["failed_share"]])
        for name, value in layers.micros().items():
            put(name, [value])
    else:
        put("setup_s", setups)
        put("wall_s", walls)
        put("cpu_s", cpus)
        put("scan_pages_per_host_s",
            [first["pages_scanned"] / wall for wall in walls])
        put("peak_rss_mb",
            [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0])
        for name, value in first["sim"].items():
            put(name, [value])

    if sorted(metrics) != sorted(wanted):
        raise BenchmarkError(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(wanted) - set(metrics))}, extra "
            f"{sorted(set(metrics) - set(wanted))}")
    result = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "size": size,
        "sizes": dict(workloads.SIZES[workload]),
        "loop": workloads.LOOPS[workload],
        "seeded_input": list(inputs.seeded),
        "iterations": len(records),
        "latency_samples": first["latency_samples"],
        "correct": not problems,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "problems": problems[:20],
        "environment": environment(),
        "metrics": metrics,
    }
    if trace:
        _write_trace(out_dir, result, spans)
    return result


def _write_trace(out_dir: Path, result: Dict[str, Any], spans: Spans) -> None:
    """``trace-<workload>.json``: the spans (seconds from the first one)
    and the per-layer metrics of one traced run."""
    out_dir.mkdir(exist_ok=True)
    zero = spans.rows[0]["start"]
    with open(out_dir / f"trace-{result['workload']}.json", "w") as handle:
        json.dump({
            **{key: result[key] for key in ("workload", "seed", "seconds",
                                            "size", "sizes", "environment")},
            "spans": [{**row, "start": row["start"] - zero,
                       "end": row["end"] - zero} for row in spans.rows],
            "layers": result["metrics"],
        }, handle, indent=1)
        handle.write("\n")


def contract_line(result: Dict[str, Any]) -> str:
    """The one-line JSON object the benchmark contract asks for.

    A per-layer counter whose source is gone (None in the record) is
    written as -1 here: the contract takes numbers only.
    """
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": -1 if m["value"] is None else m["value"],
                   "unit": m["unit"]}
            for name, m in result["metrics"].items()
        },
    })


def render(result: Dict[str, Any]) -> str:
    """Every metric of one record by name, with its unit."""
    lines = [
        f"{result['workload']}: seed {result['seed']}, "
        f"{result['iterations']} iterations, {result['loop']}",
    ]
    for name, m in result["metrics"].items():
        if m["value"] is None:
            lines.append(f"  {name:<34} null (its source no longer exists)")
        elif m["n"] > 1:
            lines.append(
                f"  {name:<34} {m['value']:.6g} {m['unit']} "
                f"(q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n {m['n']})")
        else:
            lines.append(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    lines.append(
        f"  queries attempted {result['attempted']}, failed "
        f"{result['failed']}, correct {result['correct']}")
    lines.extend(f"  PROBLEM: {problem}" for problem in result["problems"])
    return "\n".join(lines)

