"""Microbenchmarks over the simulation hot paths, with a regression gate.

Four paths dominate every experiment's wall-clock (see the "Performance"
section of ``docs/architecture.md``):

* **fix-hit** — pinning a resident page (:meth:`BufferPool.try_fix`);
* **fix-miss** — the full miss path through prefetch planning, the disk
  model, and in-flight completion;
* **dispatch** — one trip around the ``Simulator.run`` event loop;
* **staggered-Q6** — the end-to-end E2 experiment, executed through the
  same :func:`repro.experiments.runner.execute_task` the CLI uses.

``run_benchmarks`` measures all of them plus a *calibration spin loop* —
a fixed chunk of pure-Python work whose throughput proxies the machine's
single-core interpreter speed.  Every metric is stored both raw and
normalized against the calibration rate, so a committed baseline from
one machine can gate CI runs on another: a 20 % drop in *normalized*
throughput means the code got slower, not the hardware.

The JSON artifact (``BENCH_kernel.json`` at the repo root) is written by
``python -m repro bench --out ...`` and compared by ``--check``.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Bump when the JSON layout changes incompatibly.
SCHEMA_VERSION = 1

#: Iteration counts: full mode is the committed-baseline configuration,
#: quick mode is the CI lane (same workloads, fewer repetitions — the
#: normalized per-op metrics are what get compared, so counts may differ).
_FULL = {"repeats": 5, "fix_iters": 30_000, "dispatch_iters": 50_000,
         "miss_pages": 4_096, "e2e_repeats": 3, "striped_pages": 8_192,
         "soak_repeats": 2, "soak_scale": 0.25, "soak_streams": 6}
_QUICK = {"repeats": 2, "fix_iters": 10_000, "dispatch_iters": 20_000,
          "miss_pages": 1_024, "e2e_repeats": 2, "striped_pages": 2_048,
          "soak_repeats": 1, "soak_scale": 0.1, "soak_streams": 4}

_CALIBRATION_LOOPS = 200_000


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------


def _spin(n: int) -> int:
    """A fixed chunk of branchy pure-Python work (the machine yardstick)."""
    acc = 0
    for i in range(n):
        acc += i & 7
    return acc


def calibrate(repeats: int = 3) -> float:
    """Spin-loop iterations per second on this machine (best of ``repeats``)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _spin(_CALIBRATION_LOOPS)
        best = min(best, time.perf_counter() - start)
    return _CALIBRATION_LOOPS / best


# ----------------------------------------------------------------------
# Microbenchmark bodies
# ----------------------------------------------------------------------


def _fresh_pool(n_pages: int = 64, capacity: int = 96) -> Tuple[object, object]:
    """A simulator + pool with ``n_pages`` pages already resident."""
    from repro.buffer.pool import BufferPool
    from repro.disk.device import Disk
    from repro.disk.geometry import DiskGeometry
    from repro.sim.kernel import Simulator

    sim = Simulator()
    disk = Disk(sim, DiskGeometry(total_pages=max(4096, n_pages)))
    pool = BufferPool(sim, disk, capacity=capacity,
                      address_of=lambda key: key.page_no)

    def preload(sim):
        for page_no in range(n_pages):
            yield from pool.fix(pool_key(page_no))
            pool.unfix(pool_key(page_no))

    sim.spawn(preload(sim))
    sim.run()
    return sim, pool


def pool_key(page_no: int):
    from repro.buffer.page import PageKey

    return PageKey(0, page_no)


#: Pages per prefetch extent in the fix benchmarks (matches the storage
#: layer's default extent size).
_EXTENT = 8


def bench_fix_hit(iterations: int) -> float:
    """Ops/sec of a hit pin the way the batched scans now do it:
    per-extent cached keys + ``try_fix`` + ``unfix``."""
    _sim, pool = _fresh_pool()
    extent_keys = [pool_key(page) for page in range(_EXTENT)]
    try_fix = pool.try_fix
    unfix = pool.unfix
    start = time.perf_counter()
    for i in range(iterations):
        key = extent_keys[i % _EXTENT]
        frame = try_fix(key)
        assert frame is not None
        unfix(key)
    elapsed = time.perf_counter() - start
    return iterations / elapsed


def bench_fix_hit_generator(iterations: int) -> float:
    """Ops/sec of the same hit workload through the pre-PR per-page path.

    Before this fast path existed, every page touch — hit or not — paid
    for a fresh page-key, a fresh prefetch-extent key list, and a
    generator frame driven through ``yield from``.  That is what this
    measures; the ratio against :func:`bench_fix_hit` is the fast-path
    speedup the regression gate holds at >= 3x.
    """
    from repro.buffer.page import PageKey

    _sim, pool = _fresh_pool()
    fix = pool.fix
    unfix = pool.unfix
    start = time.perf_counter()
    for i in range(iterations):
        page_no = i % _EXTENT
        key = PageKey(0, page_no)
        prefetch = [PageKey(0, page) for page in range(_EXTENT)]
        gen = fix(key, prefetch=prefetch)
        try:
            next(gen)
            raise AssertionError("hit path must not yield")
        except StopIteration as stop:
            frame = stop.value
        assert frame is not None
        unfix(key)
    elapsed = time.perf_counter() - start
    return iterations / elapsed


def bench_fix_miss(pages: int) -> float:
    """Pages/sec through the full miss path (prefetch + disk + admit)."""
    from repro.buffer.pool import BufferPool
    from repro.disk.device import Disk
    from repro.disk.geometry import DiskGeometry
    from repro.sim.kernel import Simulator

    sim = Simulator()
    disk = Disk(sim, DiskGeometry(total_pages=max(4096, pages)))
    pool = BufferPool(sim, disk, capacity=64,
                      address_of=lambda key: key.page_no)
    extent = 8

    def scan(sim):
        for page_no in range(pages):
            key = pool_key(page_no)
            first = (page_no // extent) * extent
            prefetch = [pool_key(p) for p in range(first, first + extent)]
            frame = pool.try_fix(key)
            if frame is None:
                frame = yield from pool.fix(key, prefetch=prefetch)
            pool.unfix(key)

    start = time.perf_counter()
    sim.spawn(scan(sim))
    sim.run()
    elapsed = time.perf_counter() - start
    return pages / elapsed


def bench_push_many(iterations: int) -> float:
    """Callbacks/sec through the bulk zero-delay scheduling path.

    ``schedule_many(0.0, ...)`` is what every multi-waiter event trigger
    pays: one time-routing check plus a single ``deque.extend`` onto the
    ready slab — no entry tuples, no sequence numbers, no heap sifts.
    """
    from repro.sim.kernel import Simulator

    batch = 64
    sim = Simulator()
    callbacks = [(lambda: None)] * batch
    schedule_many = sim.schedule_many
    n_batches = max(iterations // batch, 1)
    start = time.perf_counter()
    for _ in range(n_batches):
        schedule_many(0.0, callbacks)
    elapsed = time.perf_counter() - start
    sim.run()  # untimed drain; only the push side is under measurement
    return (n_batches * batch) / elapsed


def bench_soak_multi_device(repeats: int, scale: float, streams: int) -> float:
    """Best wall-clock seconds for an ST-SCALING-shaped soak run.

    The heaviest sustained workload in the suite: the push pipeline
    fanning one shared scan out to ``streams`` consumers over 1, 2, and 4
    striped devices, executed through the real experiment runner.  This
    is the benchmark the batched dispatch loop and slot-indexed frame
    table exist for; ``make bench-soak`` runs it in isolation.
    """
    from repro.experiments.harness import ExperimentSettings
    from repro.experiments.runner import ExperimentTask, execute_task

    task = ExperimentTask(
        experiment="st-scaling",
        settings=ExperimentSettings(scale=scale, n_streams=streams, seed=42),
    )
    best = float("inf")
    for _ in range(repeats):
        best = min(best, execute_task(task).elapsed_seconds)
    return best


def bench_dispatch(iterations: int) -> float:
    """Event-loop dispatches/sec (timeout scheduling + heap + callback)."""
    from repro.sim.kernel import Simulator

    sim = Simulator()
    for i in range(iterations):
        sim.timeout(float(i))
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return iterations / elapsed


def bench_striped_read(pages: int, n_disks: int = 4) -> float:
    """Simulated-pages/sec of wall time routing one long read through a
    striped array: stripe-map lookups, per-device queues, and the LOOK
    elevators on every member spindle.

    The return value is throughput of the *simulation*, not of the
    modelled hardware; the per-device balance is asserted, not timed, so
    a routing bug fails loudly instead of showing up as a perf blip.
    """
    from repro.disk.array import DiskArray
    from repro.disk.geometry import DiskGeometry
    from repro.sim.kernel import Simulator

    sim = Simulator()
    array = DiskArray(sim, n_disks=n_disks,
                      geometry=DiskGeometry(total_pages=max(pages, 4096)),
                      stripe_pages=8, scheduler="elevator")
    start = time.perf_counter()
    array.read(0, pages)
    sim.run()
    elapsed = time.perf_counter() - start
    per_device = [stats.pages_read for stats in array.stats.per_device]
    assert sum(per_device) == pages
    assert max(per_device) - min(per_device) <= 8
    return pages / elapsed


def bench_push_fanout(pages: int, n_consumers: int = 4) -> float:
    """Pushed-pages/sec of wall time through ``push_read`` + fan-out.

    Exercises the pipeline's hot path: absent-segment computation, the
    outstanding-page budget, the admit callback, and per-consumer
    delivery bookkeeping — with a consumer set large enough that the
    fan-out loop dominates.
    """
    from repro.buffer.pool import BufferPool
    from repro.buffer.push import PushPipeline
    from repro.disk.device import Disk
    from repro.disk.geometry import DiskGeometry
    from repro.sim.kernel import Simulator

    class _FlatPolicy:
        """Constant consumer set; every scan drives."""

        def __init__(self, consumers):
            self._consumers = list(consumers)

        def bind_push(self, pipeline):
            pass

        def push_consumer_set(self, scan_id):
            return self._consumers

        def is_push_driver(self, scan_id):
            return True

    class _Catalog:
        @staticmethod
        def page_key(name, page_no):
            return pool_key(page_no)

        @staticmethod
        def extent_keys(name, extent_no):
            base = extent_no * extent
            return [pool_key(p) for p in range(base, min(base + extent, pages))]

    class _Table:
        name = "bench"

        def __init__(self, n_pages, extent):
            self.n_pages = n_pages
            self.extent = extent

        def extent_of(self, page_no):
            return page_no // self.extent

        def extent_pages(self, extent_no):
            base = extent_no * self.extent
            return range(base, min(base + self.extent, self.n_pages))

    extent = 8
    sim = Simulator()
    disk = Disk(sim, DiskGeometry(total_pages=max(pages, 4096)))
    pool = BufferPool(sim, disk, capacity=max(256, extent * 16),
                      address_of=lambda key: key.page_no)
    pipeline = PushPipeline(sim, pool, _Catalog(),
                            _FlatPolicy(range(n_consumers)), depth=1)
    table = _Table(pages, extent)
    last_extent = table.extent_of(pages - 1)
    start = time.perf_counter()
    for extent_no in range(last_extent):
        pipeline.on_extent_entered(0, table, extent_no, 0, pages - 1)
        sim.run()
        # Drain so the budget never defers (we time the hot path, not
        # the throttle) and delivered extents do not pile up.
        pipeline._delivered.clear()
    elapsed = time.perf_counter() - start
    assert pipeline.stats.duplicate_deliveries == 0
    assert pipeline.stats.extents_pushed > 0
    return pipeline.stats.pages_delivered / elapsed


def bench_staggered_q6(repeats: int) -> float:
    """Best wall-clock seconds for the end-to-end E2 experiment.

    Runs through :func:`repro.experiments.runner.execute_task` — the same
    code path as ``run-all --jobs 1`` — at the default battery settings.
    """
    from repro.experiments.harness import ExperimentSettings
    from repro.experiments.runner import ExperimentTask, execute_task

    task = ExperimentTask(experiment="e2",
                          settings=ExperimentSettings(scale=0.25, n_streams=5,
                                                      seed=42))
    best = float("inf")
    for _ in range(repeats):
        best = min(best, execute_task(task).elapsed_seconds)
    return best


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------


@dataclass
class BenchReport:
    """One full benchmark run, serializable to/from ``BENCH_kernel.json``."""

    mode: str
    calibration_ops_per_sec: float
    benchmarks: Dict[str, Dict[str, float]] = field(default_factory=dict)
    derived: Dict[str, float] = field(default_factory=dict)
    meta: Dict[str, str] = field(default_factory=dict)

    def add_throughput(self, name: str, ops_per_sec: float,
                       tolerance: Optional[float] = None) -> None:
        self.benchmarks[name] = {
            "kind": "throughput",
            "ops_per_sec": ops_per_sec,
            # Dimensionless: bench ops per calibration spin op — the
            # machine-comparable number the regression gate checks.
            "normalized": ops_per_sec / self.calibration_ops_per_sec,
        }
        if tolerance is not None:
            self.benchmarks[name]["tolerance"] = tolerance

    def add_wall(self, name: str, wall_seconds: float,
                 tolerance: Optional[float] = None) -> None:
        self.benchmarks[name] = {
            "kind": "wall",
            "wall_seconds": wall_seconds,
            # Spin-op equivalents of work: wall time priced in units of
            # this machine's calibration rate, so it transfers across
            # hosts the same way normalized throughput does.
            "normalized": wall_seconds * self.calibration_ops_per_sec,
        }
        if tolerance is not None:
            self.benchmarks[name]["tolerance"] = tolerance

    def to_dict(self) -> Dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "mode": self.mode,
            "calibration_ops_per_sec": self.calibration_ops_per_sec,
            "benchmarks": self.benchmarks,
            "derived": self.derived,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "BenchReport":
        if payload.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported bench schema {payload.get('schema_version')!r} "
                f"(expected {SCHEMA_VERSION})"
            )
        return cls(
            mode=payload.get("mode", "full"),
            calibration_ops_per_sec=payload["calibration_ops_per_sec"],
            benchmarks=payload["benchmarks"],
            derived=payload.get("derived", {}),
            meta=payload.get("meta", {}),
        )


#: End-to-end wall benchmarks are far noisier than the microbenchmarks
#: (they run millions of events through the whole stack), so they carry
#: their own, looser regression tolerances in the baseline JSON.
#: Microbenchmarks omit the key and inherit the ``--tolerance`` default.
_WALL_TOLERANCE = 0.35


def run_benchmarks(quick: bool = False,
                   only: Optional[Sequence[str]] = None) -> BenchReport:
    """Run the microbenchmark battery and return the report.

    ``only`` restricts the run to the named benchmarks (for targeted
    profiling, e.g. ``make bench-soak``); derived metrics are emitted
    only when all of their inputs ran.
    """
    params = _QUICK if quick else _FULL
    report = BenchReport(
        mode="quick" if quick else "full",
        calibration_ops_per_sec=calibrate(params["repeats"]),
        meta={
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
        },
    )

    def best_of(func: Callable[[int], float], arg: int) -> float:
        return max(func(arg) for _ in range(params["repeats"]))

    jobs: Dict[str, Callable[[], None]] = {
        "fix_hit": lambda: report.add_throughput(
            "fix_hit", best_of(bench_fix_hit, params["fix_iters"])),
        "fix_hit_generator": lambda: report.add_throughput(
            "fix_hit_generator",
            best_of(bench_fix_hit_generator, params["fix_iters"])),
        "fix_miss": lambda: report.add_throughput(
            "fix_miss", best_of(bench_fix_miss, params["miss_pages"])),
        "dispatch": lambda: report.add_throughput(
            "dispatch", best_of(bench_dispatch, params["dispatch_iters"])),
        "push_many": lambda: report.add_throughput(
            "push_many", best_of(bench_push_many, params["dispatch_iters"])),
        "striped_read": lambda: report.add_throughput(
            "striped_read", best_of(bench_striped_read,
                                    params["striped_pages"])),
        "push_fanout": lambda: report.add_throughput(
            "push_fanout", best_of(bench_push_fanout,
                                   params["striped_pages"])),
        "staggered_q6": lambda: report.add_wall(
            "staggered_q6", bench_staggered_q6(params["e2e_repeats"]),
            tolerance=_WALL_TOLERANCE),
        "soak_multi_device": lambda: report.add_wall(
            "soak_multi_device",
            bench_soak_multi_device(params["soak_repeats"],
                                    params["soak_scale"],
                                    params["soak_streams"]),
            tolerance=_WALL_TOLERANCE),
    }
    if only:
        unknown = sorted(set(only) - set(jobs))
        if unknown:
            raise ValueError(
                f"unknown benchmark(s) {unknown}; known: {sorted(jobs)}"
            )
        selected = [name for name in jobs if name in set(only)]
    else:
        selected = list(jobs)
    for name in selected:
        jobs[name]()
    if {"fix_hit", "fix_hit_generator"} <= set(report.benchmarks):
        report.derived["fix_hit_speedup_vs_generator"] = (
            report.benchmarks["fix_hit"]["ops_per_sec"]
            / report.benchmarks["fix_hit_generator"]["ops_per_sec"]
        )
    return report


# ----------------------------------------------------------------------
# Regression gate
# ----------------------------------------------------------------------


def compare_reports(baseline: BenchReport, current: BenchReport,
                    tolerance: float = 0.20) -> List[str]:
    """Regressions of ``current`` versus ``baseline`` (empty = pass).

    Throughput benchmarks regress when normalized throughput drops more
    than the tolerance; wall-clock benchmarks when normalized cost rises
    more than the tolerance.  A baseline entry may carry its own
    ``tolerance`` key (the noisy end-to-end wall benchmarks do), which
    overrides the global ``tolerance`` argument for that benchmark.
    Benchmarks present only in the baseline are regressions (coverage
    must not silently shrink); benchmarks only in the current run are
    ignored (forward compatibility).
    """
    problems: List[str] = []
    for name, base in baseline.benchmarks.items():
        cur = current.benchmarks.get(name)
        if cur is None:
            problems.append(f"{name}: missing from current run")
            continue
        tol = base.get("tolerance", tolerance)
        base_norm = base["normalized"]
        cur_norm = cur["normalized"]
        if base["kind"] == "throughput":
            floor = base_norm * (1.0 - tol)
            if cur_norm < floor:
                problems.append(
                    f"{name}: normalized throughput {cur_norm:.4f} below "
                    f"{floor:.4f} (baseline {base_norm:.4f} - {tol:.0%})"
                )
        else:
            ceiling = base_norm * (1.0 + tol)
            if cur_norm > ceiling:
                problems.append(
                    f"{name}: normalized cost {cur_norm:.1f} above "
                    f"{ceiling:.1f} (baseline {base_norm:.1f} + {tol:.0%})"
                )
    return problems


def render_report(report: BenchReport) -> str:
    """Human-readable table of one report."""
    from repro.metrics.report import format_table

    rows = []
    for name, entry in report.benchmarks.items():
        if entry["kind"] == "throughput":
            raw = f"{entry['ops_per_sec']:,.0f} ops/s"
        else:
            raw = f"{entry['wall_seconds']:.3f} s"
        rows.append([name, entry["kind"], raw, f"{entry['normalized']:.4g}"])
    table = format_table(["benchmark", "kind", "raw", "normalized"], rows)
    lines = [
        f"BENCH — mode {report.mode}, calibration "
        f"{report.calibration_ops_per_sec:,.0f} spin-ops/s "
        f"(python {report.meta.get('python', '?')})",
        table,
    ]
    for name, value in report.derived.items():
        lines.append(f"{name}: {value:.2f}x")
    return "\n".join(lines)


def write_report(report: BenchReport, path: str) -> None:
    """Write the JSON artifact (stable key order for clean diffs)."""
    with open(path, "w") as handle:
        json.dump(report.to_dict(), handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_report(path: str) -> BenchReport:
    """Load a report written by :func:`write_report`."""
    with open(path) as handle:
        return BenchReport.from_dict(json.load(handle))
