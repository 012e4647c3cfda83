"""One function per table/figure of the evaluation (plus ablations).

Every function returns a result object with ``metrics()`` (the JSON-safe
dict the runner caches and digests) and ``render()`` (the same
rows/series the paper reports).  See DESIGN.md for the experiment index
and EXPERIMENTS.md for paper-vs-measured numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SharingConfig
from repro.engine.expressions import col, lit
from repro.engine.operators import AggSpec
from repro.engine.query import QuerySpec, ScanStep
from repro.experiments.harness import (
    Comparison,
    ExperimentSettings,
    ModeResult,
    compare_modes,
    expected_pool_pages,
    expected_table_pages,
    run_mode,
)
from repro.metrics.opt import opt_misses, recorded_fixes
from repro.metrics.report import format_series, format_table, percent_gain
from repro.workloads.tpch_queries import make_query
from repro.workloads.tpch_schema import DATE_RANGE_DAYS, TPCH_BASE_PAGES


# ----------------------------------------------------------------------
# E1 — single-stream overhead
# ----------------------------------------------------------------------


@dataclass
class OverheadResult:
    """E1: the sharing machinery's cost without concurrency."""

    comparison: Comparison

    @property
    def overhead_percent(self) -> float:
        """Positive = SS slower than Base (this is overhead, not gain)."""
        return -self.comparison.end_to_end_gain

    def metrics(self) -> Dict[str, Any]:
        metrics = self.comparison.metrics()
        metrics["overhead_percent"] = self.overhead_percent
        return metrics

    def render(self) -> str:
        rows = [
            ["Base", self.comparison.base.makespan],
            ["SS", self.comparison.shared.makespan],
            ["overhead %", self.overhead_percent],
        ]
        return format_table(["configuration", "single-stream time (s)"], rows)


def e1_overhead(settings: ExperimentSettings) -> OverheadResult:
    """E1: run one full stream with and without the sharing machinery."""
    settings = settings.with_(n_streams=1)
    return OverheadResult(comparison=compare_modes(settings))


# ----------------------------------------------------------------------
# E2/E3 — staggered single-query runs (Figures 15/16 analogs)
# ----------------------------------------------------------------------


@dataclass
class StaggeredResult:
    """Staggered identical queries: per-run timings + CPU distribution."""

    query_name: str
    comparison: Comparison
    per_run_base: List[float] = field(default_factory=list)
    per_run_shared: List[float] = field(default_factory=list)

    def per_run_gains(self) -> List[float]:
        """Percent gain of each staggered run."""
        return [
            percent_gain(base, shared)
            for base, shared in zip(self.per_run_base, self.per_run_shared)
        ]

    def metrics(self) -> Dict[str, Any]:
        metrics = self.comparison.metrics()
        metrics["query"] = self.query_name
        metrics["per_run_base"] = list(self.per_run_base)
        metrics["per_run_shared"] = list(self.per_run_shared)
        metrics["per_run_gain_percent"] = self.per_run_gains()
        return metrics

    def render(self) -> str:
        cpu_rows = []
        for bucket in ("user", "system", "idle", "iowait"):
            cpu_rows.append([
                bucket,
                100 * self.comparison.base.cpu.as_dict()[bucket],
                100 * self.comparison.shared.cpu.as_dict()[bucket],
            ])
        timing_rows = [
            [f"{i + 1}{_ordinal(i + 1)} {self.query_name}", base, shared,
             percent_gain(base, shared)]
            for i, (base, shared) in enumerate(
                zip(self.per_run_base, self.per_run_shared)
            )
        ]
        return (
            format_table(["CPU bucket", "Base %", "SS %"], cpu_rows)
            + "\n\n"
            + format_table(
                ["run", "Base (s)", "SS (s)", "gain %"], timing_rows
            )
        )


def _ordinal(n: int) -> str:
    return {1: "st", 2: "nd", 3: "rd"}.get(n, "th")


def _staggered_query(query_name: str, settings: ExperimentSettings) -> QuerySpec:
    """The staggered experiments' query, with scale-invariant geometry.

    On the paper's 100 GB system, Q6's one-year slice is ~2.8× the
    bufferpool, so later runs cannot ride the cache for free.  At reduced
    scale a literal one-year slice can fall *inside* the pool floor and
    the experiment degenerates; we therefore size the scanned range to
    the same multiple of the actual pool.
    """
    rng = np.random.default_rng(settings.seed)
    if query_name != "Q6":
        return make_query(query_name, rng)
    lineitem_pages = expected_table_pages(settings, "lineitem")
    pool_pages = expected_pool_pages(settings)
    fraction = min(0.95, 2.8 * pool_pages / lineitem_pages)
    span = DATE_RANGE_DAYS * fraction
    start = DATE_RANGE_DAYS - span  # the warehouse's most recent data
    return QuerySpec(
        name="Q6",
        steps=(
            ScanStep(
                table="lineitem",
                cluster_range=(start, DATE_RANGE_DAYS),
                predicate=(
                    col("l_discount").between(0.05, 0.07)
                    & (col("l_quantity") < lit(24))
                ),
                aggregates=(
                    AggSpec("revenue", "sum",
                            col("l_extendedprice") * col("l_discount")),
                ),
                label="lineitem",
            ),
        ),
    )


def _staggered(
    query_name: str, settings: ExperimentSettings, n_runs: int, gap_fraction: float
) -> StaggeredResult:
    """Run ``n_runs`` copies of one query, started a fixed gap apart.

    The paper staggers by 10 s on a 100 GB system; we stagger by a fixed
    fraction of the single-query runtime, which preserves the overlap
    geometry at any scale.
    """
    query = _staggered_query(query_name, settings)
    streams = [[query] for _ in range(n_runs)]

    # Calibrate the stagger from a solo base run of the same query.
    solo = run_mode(
        settings.with_(n_streams=1), SharingConfig(enabled=False), "solo",
        streams=[[query]],
    )
    gap = solo.makespan * gap_fraction
    stagger_list = [i * gap for i in range(n_runs)]

    comparison = compare_modes(settings, streams=streams,
                               stagger_list=stagger_list)

    def per_run(mode: ModeResult) -> List[float]:
        ordered = sorted(mode.workload.streams, key=lambda s: s.stream_id)
        return [s.queries[0].elapsed for s in ordered]

    return StaggeredResult(
        query_name=query_name,
        comparison=comparison,
        per_run_base=per_run(comparison.base),
        per_run_shared=per_run(comparison.shared),
    )


def e2_staggered_q6(
    settings: ExperimentSettings,
    n_runs: int = 3,
    gap_fraction: float = 0.25,
) -> StaggeredResult:
    """E2: three staggered Q6 runs (I/O-intensive, Figure-15 analog)."""
    return _staggered("Q6", settings, n_runs, gap_fraction)


def e3_staggered_q1(
    settings: ExperimentSettings,
    n_runs: int = 3,
    gap_fraction: float = 0.25,
) -> StaggeredResult:
    """E3: three staggered Q1 runs (CPU-intensive, Figure-16 analog)."""
    return _staggered("Q1", settings, n_runs, gap_fraction)


# ----------------------------------------------------------------------
# E4 — multi-stream throughput (Table 1 analog)
# ----------------------------------------------------------------------


def e4_throughput(settings: ExperimentSettings) -> Comparison:
    """E4: N-stream TPC-H throughput run, Base vs SS (Table 1 analog)."""
    return compare_modes(settings)


# ----------------------------------------------------------------------
# E5/E6 — disk activity over time (Figures 17/18 analogs)
# ----------------------------------------------------------------------


@dataclass
class TimelineResult:
    """A bucketed time series for Base and SS."""

    metric: str
    base_series: List[float]
    shared_series: List[float]

    def metrics(self) -> Dict[str, Any]:
        return {
            "metric": self.metric,
            "base_series": list(self.base_series),
            "shared_series": list(self.shared_series),
            "base_total": sum(self.base_series),
            "shared_total": sum(self.shared_series),
        }

    def render(self) -> str:
        return (
            format_series(f"Base {self.metric}", self.base_series)
            + "\n"
            + format_series(f"SS {self.metric}", self.shared_series)
        )


def e5_reads_timeline(
    settings: Optional[ExperimentSettings] = None,
    comparison: Optional[Comparison] = None,
) -> TimelineResult:
    """E5: pages read per time bucket (Figure-17 analog)."""
    comparison = comparison or compare_modes(settings)
    return TimelineResult(
        metric="pages read / bucket",
        base_series=comparison.base.reads_per_bucket,
        shared_series=comparison.shared.reads_per_bucket,
    )


def e6_seeks_timeline(
    settings: Optional[ExperimentSettings] = None,
    comparison: Optional[Comparison] = None,
) -> TimelineResult:
    """E6: seeks per time bucket (Figure-18 analog)."""
    comparison = comparison or compare_modes(settings)
    return TimelineResult(
        metric="seeks / bucket",
        base_series=comparison.base.seeks_per_bucket,
        shared_series=comparison.shared.seeks_per_bucket,
    )


# ----------------------------------------------------------------------
# E7/E8 — per-stream and per-query gains (Figures 19/20 analogs)
# ----------------------------------------------------------------------


@dataclass
class PerStreamResult:
    """E7: stream-by-stream comparison."""

    base_elapsed: Dict[int, float]
    shared_elapsed: Dict[int, float]

    def gains(self) -> Dict[int, float]:
        return {
            stream_id: percent_gain(self.base_elapsed[stream_id],
                                    self.shared_elapsed[stream_id])
            for stream_id in sorted(self.base_elapsed)
        }

    def metrics(self) -> Dict[str, Any]:
        return {
            "base_elapsed": {str(k): v for k, v in self.base_elapsed.items()},
            "shared_elapsed": {
                str(k): v for k, v in self.shared_elapsed.items()
            },
            "gain_percent": {str(k): v for k, v in self.gains().items()},
        }

    def render(self) -> str:
        rows = [
            [f"stream {sid}", self.base_elapsed[sid], self.shared_elapsed[sid],
             gain]
            for sid, gain in self.gains().items()
        ]
        return format_table(["stream", "Base (s)", "SS (s)", "gain %"], rows)


def e7_per_stream(
    settings: Optional[ExperimentSettings] = None,
    comparison: Optional[Comparison] = None,
) -> PerStreamResult:
    """E7: per-stream elapsed times (Figure-19 analog)."""
    comparison = comparison or compare_modes(settings)
    return PerStreamResult(
        base_elapsed=comparison.base.per_stream_elapsed,
        shared_elapsed=comparison.shared.per_stream_elapsed,
    )


@dataclass
class PerQueryResult:
    """E8: query-template-by-template comparison."""

    base_elapsed: Dict[str, float]
    shared_elapsed: Dict[str, float]

    def gains(self) -> Dict[str, float]:
        return {
            name: percent_gain(self.base_elapsed[name], self.shared_elapsed[name])
            for name in sorted(self.base_elapsed, key=_query_sort_key)
        }

    def metrics(self) -> Dict[str, Any]:
        return {
            "base_elapsed": dict(self.base_elapsed),
            "shared_elapsed": dict(self.shared_elapsed),
            "gain_percent": self.gains(),
        }

    def render(self) -> str:
        rows = [
            [name, self.base_elapsed[name], self.shared_elapsed[name], gain]
            for name, gain in self.gains().items()
        ]
        return format_table(["query", "Base (s)", "SS (s)", "gain %"], rows)


def _query_sort_key(name: str):
    try:
        return (0, int(name.lstrip("Q")))
    except ValueError:
        return (1, name)


def e8_per_query(
    settings: Optional[ExperimentSettings] = None,
    comparison: Optional[Comparison] = None,
) -> PerQueryResult:
    """E8: mean per-query elapsed times (Figure-20 analog)."""
    comparison = comparison or compare_modes(settings)
    return PerQueryResult(
        base_elapsed=comparison.base.per_query_elapsed,
        shared_elapsed=comparison.shared.per_query_elapsed,
    )


# ----------------------------------------------------------------------
# E9 — stream scaling (the paper's closing scalability claim)
# ----------------------------------------------------------------------


@dataclass
class StreamScalingResult:
    """E9: throughput as the number of concurrent streams grows."""

    # stream count -> Comparison
    points: Dict[int, Comparison] = field(default_factory=dict)

    def throughput(self, n_streams: int, shared: bool) -> float:
        """Queries per second at a stream count."""
        comparison = self.points[n_streams]
        return (comparison.shared if shared else comparison.base).throughput_qps

    def metrics(self) -> Dict[str, Any]:
        return {
            str(n): dict(
                self.points[n].metrics(),
                base_qps=self.throughput(n, shared=False),
                shared_qps=self.throughput(n, shared=True),
            )
            for n in sorted(self.points)
        }

    def render(self) -> str:
        rows = []
        for n_streams in sorted(self.points):
            comparison = self.points[n_streams]
            rows.append([
                n_streams,
                comparison.base.makespan,
                comparison.shared.makespan,
                self.throughput(n_streams, shared=False),
                self.throughput(n_streams, shared=True),
                comparison.end_to_end_gain,
            ])
        return format_table(
            ["streams", "Base (s)", "SS (s)", "Base q/s", "SS q/s", "gain %"],
            rows,
        )


def e9_stream_scaling(
    settings: ExperimentSettings,
    stream_counts: Sequence[int] = (2, 4, 6, 8),
) -> StreamScalingResult:
    """E9: "the reduced disk utilization may be used to scale to a larger
    number of streams with the same hardware" — measure throughput vs
    concurrency for Base and SS."""
    result = StreamScalingResult()
    for n_streams in stream_counts:
        result.points[n_streams] = compare_modes(
            settings.with_(n_streams=n_streams)
        )
    return result


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------


@dataclass
class SweepResult:
    """A labelled sweep of one knob: label -> (makespan, pages read)."""

    knob: str
    rows: List[Tuple[str, float, int, int]]  # label, makespan, pages, seeks

    def makespans(self) -> Dict[str, float]:
        return {label: makespan for label, makespan, _p, _s in self.rows}

    def metrics(self) -> Dict[str, Any]:
        return {
            "knob": self.knob,
            "rows": [
                {"label": label, "makespan": makespan,
                 "pages_read": pages, "seeks": seeks}
                for label, makespan, pages, seeks in self.rows
            ],
        }

    def render(self) -> str:
        return format_table(
            [self.knob, "makespan (s)", "pages read", "seeks"],
            [list(row) for row in self.rows],
        )


@dataclass
class ComparisonSweep:
    """A4/A9: one Base-vs-SS comparison per value of one knob."""

    knob: str  # table header: "pool" (a fraction) or "disks" (a count)
    points: Dict[Any, Comparison]

    def metrics(self) -> Dict[str, Any]:
        return {str(key): comparison.metrics()
                for key, comparison in sorted(self.points.items())}

    def render(self) -> str:
        rows = [
            [f"{key:.0%}" if isinstance(key, float) else key,
             c.base.makespan, c.shared.makespan, c.end_to_end_gain,
             c.disk_read_gain]
            for key, c in sorted(self.points.items())
        ]
        return format_table(
            [self.knob, "Base (s)", "SS (s)", "e2e gain %", "read gain %"], rows
        )


def _sweep_sharing_configs(
    settings: ExperimentSettings,
    variants: Sequence[Tuple[str, SharingConfig]],
    streams: Optional[Sequence[Sequence[QuerySpec]]] = None,
) -> SweepResult:
    rows = []
    for label, sharing in variants:
        mode = run_mode(settings, sharing, label, streams=streams)
        rows.append((label, mode.makespan, mode.pages_read, mode.seeks))
    return SweepResult(knob="configuration", rows=rows)


def ablation_throttling(settings: ExperimentSettings) -> SweepResult:
    """A1: the full mechanism vs sharing without throttling vs Base."""
    return _sweep_sharing_configs(settings, [
        ("base", SharingConfig(enabled=False)),
        ("no-throttle", SharingConfig(throttling_enabled=False)),
        ("full", SharingConfig()),
    ])


def ablation_priority(settings: ExperimentSettings) -> SweepResult:
    """A2: page prioritization on vs off."""
    return _sweep_sharing_configs(settings, [
        ("base", SharingConfig(enabled=False)),
        ("no-priority", SharingConfig(prioritization_enabled=False)),
        ("full", SharingConfig()),
    ])


def ablation_threshold(
    settings: ExperimentSettings,
    thresholds: Sequence[float] = (1.0, 2.0, 4.0, 8.0, 16.0),
) -> SweepResult:
    """A3: leader–trailer distance threshold sweep (extents)."""
    variants = [
        (
            f"{threshold:g} extents",
            SharingConfig(distance_threshold_extents=threshold),
        )
        for threshold in thresholds
    ]
    result = _sweep_sharing_configs(settings, variants)
    return SweepResult(knob="drift threshold", rows=result.rows)


def ablation_bufferpool_sweep(
    settings: ExperimentSettings,
    fractions: Sequence[float] = (0.05, 0.10, 0.20, 0.40, 1.50),
) -> ComparisonSweep:
    """A4: sharing benefit as a function of bufferpool size.

    Pool sizes are set explicitly from the scaled database size (bypassing
    the safety floor that would otherwise flatten small fractions at
    reduced scale), with a hard minimum that still covers concurrent
    pins and prefetch runs.

    Expected shape: benefit grows with the pool while the pool is too
    small to hold scan-group working sets, peaks, and collapses once the
    pool caches the whole database (the 1.5× point), where even unshared
    scans stop doing I/O.
    """
    total_pages = sum(
        expected_table_pages(settings, name) for name in TPCH_BASE_PAGES
    )
    points = {}
    for fraction in fractions:
        pool_pages = max(48, int(total_pages * fraction))
        points[fraction] = compare_modes(settings.with_(pool_pages=pool_pages))
    return ComparisonSweep(knob="pool", points=points)


@dataclass
class OptGapResult:
    """A5: Base and SS reads against Belady's OPT on each one's fixes.

    OPT on Base's own fix stream is the fewest reads any victim policy
    could take for Base's request order; ``gap_share`` is how much of
    the distance from priority-LRU to that bound SS closes by reordering
    the requests instead.
    """

    base: ModeResult
    shared: ModeResult
    opt_base: int
    opt_shared: int

    @property
    def gap_share(self) -> float:
        """Percent of Base's reads above OPT(Base) that SS saves (0 when
        Base already reads OPT's count)."""
        gap = self.base.pages_read - self.opt_base
        if gap <= 0:
            return 0.0
        return 100.0 * (self.base.pages_read - self.shared.pages_read) / gap

    def metrics(self) -> Dict[str, Any]:
        return {
            "base_pages_read": self.base.pages_read,
            "shared_pages_read": self.shared.pages_read,
            "opt_base_pages_read": self.opt_base,
            "opt_shared_pages_read": self.opt_shared,
            "gap_share_percent": self.gap_share,
        }

    def render(self) -> str:
        table = format_table(
            ["configuration", "pages read", "OPT on its own fixes"],
            [["Base (priority-LRU)", self.base.pages_read, self.opt_base],
             ["SS", self.shared.pages_read, self.opt_shared]],
        )
        return (f"{table}\nSS closes {self.gap_share:.1f} % of the gap "
                f"between Base and OPT on Base's fixes")


def ablation_opt_gap(settings: ExperimentSettings) -> OptGapResult:
    """A5: how far reordering scans gets toward the best possible cache.

    Runs Base (priority-LRU, no sharing) and SS, records each run's fix
    stream and replays it through Belady's OPT at the pool's capacity.
    """
    capacity = settings.pool_pages or expected_pool_pages(settings)
    runs = []
    for sharing, label in ((SharingConfig(enabled=False), "Base"),
                           (SharingConfig(), "SS")):
        with recorded_fixes() as fixes:
            mode = run_mode(settings, sharing, label)
        runs.append((mode, opt_misses(fixes, capacity)))
    (base, opt_base), (shared, opt_shared) = runs
    return OptGapResult(base, shared, opt_base, opt_shared)


def ablation_disk_scheduler(
    settings: ExperimentSettings,
) -> SweepResult:
    """A7: device-level elevator scheduling vs scan coordination.

    The elevator (LOOK) scheduler is the classic device-side answer to
    seek storms; it shortens seek travel but cannot remove the *re-read
    volume* that uncoordinated scans generate.  The sweep shows both
    levers separately and combined.
    """
    rows = []
    for scheduler in ("fifo", "elevator"):
        for sharing_on in (False, True):
            label = f"{scheduler}{' + sharing' if sharing_on else ''}"
            mode = run_mode(
                settings.with_(disk_scheduler=scheduler),
                SharingConfig(enabled=sharing_on),
                label,
            )
            rows.append((label, mode.makespan, mode.pages_read, mode.seeks))
    return SweepResult(knob="disk scheduler", rows=rows)


def ablation_disk_array(
    settings: ExperimentSettings,
    disk_counts: Sequence[int] = (1, 2, 4),
) -> ComparisonSweep:
    """A9: does more storage hardware substitute for coordination?

    Sweeping the spindle count shows that striping attacks service time
    while sharing attacks *demand*: the read-volume gain is hardware-
    independent, so coordination keeps paying on any array size.
    """
    return ComparisonSweep(knob="disks", points={
        n_disks: compare_modes(settings.with_(device_count=n_disks))
        for n_disks in disk_counts
    })


def ablation_fairness_cap(
    settings: ExperimentSettings,
    caps: Sequence[float] = (0.0, 0.4, 0.8, 1.0),
) -> SweepResult:
    """A6: the accumulated-slowdown cap around the paper's 80 %."""
    variants = [
        (f"cap {cap:.0%}", SharingConfig(slowdown_cap_fraction=cap))
        for cap in caps
    ]
    result = _sweep_sharing_configs(settings, variants)
    return SweepResult(knob="fairness cap", rows=result.rows)
