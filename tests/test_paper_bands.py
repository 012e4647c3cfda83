"""The paper's shape claims as executable bands.

One row per claim: a registered experiment id, an extractor that turns
the experiment's result into one number, and the open interval the
number must fall in.  Every row runs at the same geometry (scale 0.25,
five streams); the claim holds when the **median** over its seeds is
inside the band, and a failure names the worst seed.  A theorem (reads
are never below Belady's OPT) holds its **minimum** instead.  Redrawing the
stream mix moves single-seed numbers by tens of percent (E4's
end-to-end gain spans 10–22 % over the five seeds), so one seed proves
nothing either way.

Seeds per row: all five by default.  E2 runs once because its numbers do
not move with the seed (per-run gains 28.68–28.71 %).  The big sweeps
(E9, A3, A4, A9, pl-head2head: five to ten simulations and 4–7 s of
host time per seed) also run once, which is what keeps this file inside
its 60 s budget; their five-seed spreads sit on the same side of their
bands except E9's first row (seed 3 gives 0.957), see EXPERIMENTS.md.

A claim the code does not meet today is a strict ``xfail`` carrying the
measured numbers, so the fix that restores it has to flip the row.
"""

from __future__ import annotations

import math
import multiprocessing
import statistics
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

import pytest

from repro.experiments.experiments import (
    e5_reads_timeline,
    e6_seeks_timeline,
    e7_per_stream,
    e8_per_query,
)
from repro.experiments.harness import ExperimentSettings
from repro.experiments.registry import get

SETTINGS = ExperimentSettings(scale=0.25, n_streams=5)
SEEDS = (42, 1, 2, 3, 4)
ONCE = SEEDS[:1]


class Band(NamedTuple):
    """One claim: ``low < median(extract(result) over seeds) < high``."""

    claim: str
    experiment: str
    extract: Callable[[Any], float]
    low: float = -math.inf
    high: float = math.inf
    seeds: Tuple[int, ...] = SEEDS
    #: Why the band fails today (measured numbers + roadmap item), if it does.
    rotten: Optional[str] = None
    #: How the per-seed values combine: a theorem takes the worst seed.
    summary: Callable[[Any], float] = statistics.median


# ----------------------------------------------------------------------
# Extractors
# ----------------------------------------------------------------------


def makespan_ratio(numerator: str, denominator: str) -> Callable[[Any], float]:
    """Ratio of two labelled rows of a sweep's makespans."""
    def extract(result) -> float:
        makespans = result.makespans()
        return makespans[numerator] / makespans[denominator]
    return extract


def worst_run_ratio(result) -> float:
    """The staggered run that sharing helps least, as SS ÷ Base."""
    return max(
        shared / base
        for base, shared in zip(result.per_run_base, result.per_run_shared)
    )


def series_total_ratio(timeline) -> float:
    return sum(timeline.shared_series) / sum(timeline.base_series)


def share_of_buckets_lower(timeline) -> float:
    """Fraction of active time buckets in which SS is at or below Base."""
    paired = [
        (base, shared)
        for base, shared in zip(timeline.base_series, timeline.shared_series)
        if base > 0 or shared > 0
    ]
    return sum(shared <= base for base, shared in paired) / len(paired)


def min_qps_ratio(result) -> float:
    """SS ÷ Base throughput at the stream count where sharing helps least."""
    return min(
        result.throughput(n, shared=True) / result.throughput(n, shared=False)
        for n in result.points
    )


def most_vs_fewest_streams(result) -> float:
    """SS throughput at the most streams ÷ Base throughput at the fewest."""
    return (result.throughput(max(result.points), shared=True)
            / result.throughput(min(result.points), shared=False))


def sweep_spread(result) -> float:
    makespans = result.makespans().values()
    return max(makespans) / min(makespans)


def vs_best_other(label: str) -> Callable[[Any], float]:
    """One row of a sweep ÷ the fastest of the other rows."""
    def extract(result) -> float:
        makespans = result.makespans()
        others = [v for k, v in makespans.items() if k != label]
        return makespans[label] / min(others)
    return extract


def peak_gain(sweep) -> float:
    return max(c.end_to_end_gain for c in sweep.points.values())


def peak_minus_largest_pool(sweep) -> float:
    """How far the cache-everything pool's gain sits below the peak."""
    return peak_gain(sweep) - sweep.points[max(sweep.points)].end_to_end_gain


def reads_above_opt(result) -> float:
    """The smaller of Base's and SS's pages read above OPT on their own
    fix streams."""
    return min(result.base.pages_read - result.opt_base,
               result.shared.pages_read - result.opt_shared)


def policy_read_gain(policy: str) -> Callable[[Any], float]:
    def extract(result) -> float:
        return result.metrics()["policies"][policy]["disk_read_gain_percent"]
    return extract


# E5–E8 are projections of E4's Base/SS pair (each accepts the finished
# comparison), so their claims read e4's result instead of re-running
# the same two simulations four more times per seed.


def of_e4(view: Callable, extract: Callable[[Any], float]) -> Callable[[Any], float]:
    return lambda result: extract(view(comparison=result))


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------

BANDS = [
    Band("E1 single-stream overhead below 2 %", "e1",
         lambda r: r.overhead_percent, high=2.0),
    Band("E2 every staggered Q6 run gains over 20 %", "e2",
         lambda r: min(r.per_run_gains()), low=20.0, seeds=ONCE),
    Band("E2 I/O-wait share shrinks under sharing", "e2",
         lambda r: r.comparison.shared.cpu.iowait / r.comparison.base.cpu.iowait,
         high=1.0, seeds=ONCE),
    Band("E3 Q1 is CPU-bound: iowait below user time in Base", "e3",
         lambda r: r.comparison.base.cpu.iowait / r.comparison.base.cpu.user,
         high=1.0),
    Band("E3 no staggered Q1 run regresses by over 5 %", "e3",
         worst_run_ratio, high=1.05),
    Band("E4 end-to-end gain over 10 % (paper: 21 %)", "e4",
         lambda r: r.end_to_end_gain, low=10.0),
    Band("E4 disk read gain over 10 % (paper: 33 %)", "e4",
         lambda r: r.disk_read_gain, low=10.0),
    Band("E4 disk seek gain over 5 % (paper: 34 %)", "e4",
         lambda r: r.disk_seek_gain, low=5.0),
    Band("E5 SS reads fewer pages in total", "e4",
         of_e4(e5_reads_timeline, series_total_ratio), high=1.0),
    Band("E5 SS reads no more than Base in most time buckets", "e4",
         of_e4(e5_reads_timeline, share_of_buckets_lower), low=0.5),
    Band("E6 SS seeks less in total", "e4",
         of_e4(e6_seeks_timeline, series_total_ratio), high=1.0),
    Band("E7 every stream gains", "e4",
         of_e4(e7_per_stream, lambda r: min(r.gains().values())), low=0.0),
    Band("E8 no query regresses by over 10 %", "e4",
         of_e4(e8_per_query, lambda r: min(r.gains().values())), low=-10.0,
         rotten="median worst query -11.1 %, worst seed 3 gives -56.7 % "
                "(seed 42: Q3 -10.5 %); ROADMAP item 6"),
    Band("E8 the most scan-heavy query gains over 15 %", "e4",
         of_e4(e8_per_query, lambda r: max(r.gains().values())), low=15.0),
    Band("E9 SS out-runs Base at every stream count", "e9",
         min_qps_ratio, low=1.0, seeds=ONCE),
    Band("E9 SS at the most streams out-runs Base at the fewest", "e9",
         most_vs_fewest_streams, low=1.0, seeds=ONCE),
    Band("A1 full mechanism beats Base", "a1",
         makespan_ratio("full", "base"), high=1.0),
    Band("A1 sharing without throttling beats Base", "a1",
         makespan_ratio("no-throttle", "base"), high=1.0),
    Band("A1 throttling costs at most 5 %", "a1",
         makespan_ratio("full", "no-throttle"), high=1.05),
    Band("A2 full mechanism beats Base", "a2",
         makespan_ratio("full", "base"), high=1.0),
    Band("A2 sharing without prioritization beats Base", "a2",
         makespan_ratio("no-priority", "base"), high=1.0),
    Band("A2 prioritization costs at most 5 %", "a2",
         makespan_ratio("full", "no-priority"), high=1.05,
         rotten="median full / no-priority 1.069, worst seed 3 gives 1.136; "
                "ROADMAP item 6"),
    Band("A3 no drift threshold is twice as slow as the best", "a3",
         sweep_spread, high=2.0, seeds=ONCE),
    Band("A4 sharing gains over 10 % at some pool size", "a4",
         peak_gain, low=10.0, seeds=ONCE),
    Band("A4 the cache-everything pool gains less than the peak", "a4",
         peak_minus_largest_pool, low=0.0, seeds=ONCE),
    Band("A5 SS closes over 25 % of the Base-to-OPT read gap", "a5",
         lambda r: r.gap_share, low=25.0),
    Band("A5 Base and SS each read at least OPT on their own fixes", "a5",
         reads_above_opt, low=-1.0, summary=min),
    Band("A6 the 80 % cap is within 10 % of the best cap", "a6",
         vs_best_other("cap 80%"), high=1.10),
    Band("A7 sharing beats the elevator alone", "a7",
         makespan_ratio("fifo + sharing", "elevator"), high=1.0),
    Band("A7 elevator plus sharing costs at most 5 % over sharing", "a7",
         makespan_ratio("elevator + sharing", "fifo + sharing"), high=1.05),
    Band("A8 attach-style sharing reads fewer pages than Base", "pl-head2head",
         policy_read_gain("cooperative"), low=0.0, seeds=ONCE),
    Band("A9 four spindles speed Base up", "a9",
         lambda r: r.points[4].base.makespan / r.points[1].base.makespan,
         high=1.0,
         seeds=ONCE),
    Band("A9 read gain over 10 % on every array size", "a9",
         lambda r: min(x.disk_read_gain for x in r.points.values()),
         low=10.0,
         seeds=ONCE),
]


def measure(experiment: str, seed: int) -> Dict[str, float]:
    """One registry run, reduced to ``{claim: value}`` for its bands."""
    result = get(experiment).run(SETTINGS.with_(seed=seed))
    return {
        band.claim: band.extract(result)
        for band in BANDS if band.experiment == experiment
    }


@pytest.fixture(scope="module")
def measured():
    """``{(experiment, seed): future of measure(...)}``, all submitted up
    front to two worker processes so the serial ~95 s of simulation
    costs about half that in wall time."""
    runs = dict.fromkeys(
        (band.experiment, seed) for band in BANDS for seed in band.seeds
    )
    pool = ProcessPoolExecutor(
        max_workers=2, mp_context=multiprocessing.get_context("spawn")
    )
    try:
        yield {run: pool.submit(measure, *run) for run in runs}
    finally:
        pool.shutdown(cancel_futures=True)


def _param(band: Band):
    marks = ()
    if band.rotten:
        marks = pytest.mark.xfail(strict=True, reason=band.rotten)
    return pytest.param(band, id=band.claim, marks=marks)


@pytest.mark.slow
@pytest.mark.parametrize("band", [_param(band) for band in BANDS])
def test_paper_band(band: Band, measured):
    values = {
        seed: measured[band.experiment, seed].result(timeout=300)[band.claim]
        for seed in band.seeds
    }
    summary = band.summary(values.values())
    worst = min(values, key=lambda s: min(values[s] - band.low,
                                          band.high - values[s]))
    assert band.low < summary < band.high, (
        f"{band.claim}: {band.summary.__name__} {summary:.3f} over seeds "
        f"{band.seeds} is outside ({band.low}, {band.high}); worst seed "
        f"{worst} gives {values[worst]:.3f}"
    )
