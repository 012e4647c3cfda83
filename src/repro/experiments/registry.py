"""Experiment registry: the single source of truth for experiment ids.

Every runnable experiment (the paper's E1–E9 plus the A-series
ablations) is described by one :class:`ExperimentSpec` mapping its id to
a callable, a one-line description, and — via :func:`metrics_of` and
:func:`render_result` — a uniform way to turn its heterogeneous result
object into structured metrics and printable text.  The CLI, the
parallel runner, and the paper bands all dispatch through this table
instead of keeping private experiment lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.experiments.experiments import (
    OverheadResult,
    PerQueryResult,
    PerStreamResult,
    StaggeredResult,
    StreamScalingResult,
    SweepResult,
    ThroughputResult,
    TimelineResult,
    ablation_bufferpool_sweep,
    ablation_disk_array,
    ablation_disk_scheduler,
    ablation_fairness_cap,
    ablation_policies,
    ablation_priority,
    ablation_threshold,
    ablation_throttling,
    e1_overhead,
    e2_staggered_q6,
    e3_staggered_q1,
    e4_throughput,
    e5_reads_timeline,
    e6_seeks_timeline,
    e7_per_stream,
    e8_per_query,
    e9_stream_scaling,
)
from repro.experiments.aggregation import (
    AggCompeteResult,
    AggMixResult,
    JoinResult,
    ag_compete,
    ag_mix,
    mj_join,
)
from repro.experiments.harness import Comparison, ExperimentSettings
from repro.experiments.policies import (
    PolicyComparisonResult,
    PolicyMixResult,
    pl_head2head,
    pl_mix,
)
from repro.experiments.striped import (
    StripedPushResult,
    StripedScalingResult,
    st_push,
    st_scaling,
)
from repro.metrics.report import format_table
from repro.service.metrics import ServiceComparison, ServiceResult
from repro.service.scenarios import sv_burst, sv_overload, sv_soak, sv_steady


class UnknownExperimentError(KeyError):
    """Raised when an experiment id is not in the registry."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return (
            f"unknown experiment {self.name!r} "
            f"(known: {', '.join(sorted(REGISTRY))})"
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: id, description, and its callable."""

    name: str
    description: str
    run: Callable[[ExperimentSettings], Any]

    def execute(self, settings: ExperimentSettings) -> Any:
        """Run the experiment and return its (heterogeneous) result."""
        return self.run(settings)


#: id -> spec, populated below; iterate with :func:`all_experiments`.
REGISTRY: Dict[str, ExperimentSpec] = {}


def register(name: str, description: str,
             run: Callable[[ExperimentSettings], Any]) -> ExperimentSpec:
    """Add one experiment to the registry (last registration wins)."""
    spec = ExperimentSpec(name=name, description=description, run=run)
    REGISTRY[name] = spec
    return spec


def get(name: str) -> ExperimentSpec:
    """Look up one experiment; raises :class:`UnknownExperimentError`."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise UnknownExperimentError(name) from None


def all_experiments() -> List[ExperimentSpec]:
    """Every registered experiment, in sorted-id order."""
    return [REGISTRY[name] for name in sorted(REGISTRY)]


register("e1", "single-stream overhead (paper: < 1 %)", e1_overhead)
register("e2", "3 staggered I/O-bound queries (Figure-15 analog)",
         e2_staggered_q6)
register("e3", "3 staggered CPU-bound queries (Figure-16 analog)",
         e3_staggered_q1)
register("e4", "multi-stream throughput gains (Table-1 analog)",
         e4_throughput)
register("e5", "disk reads over time (Figure-17 analog)", e5_reads_timeline)
register("e6", "disk seeks over time (Figure-18 analog)", e6_seeks_timeline)
register("e7", "per-stream gains (Figure-19 analog)", e7_per_stream)
register("e8", "per-query gains (Figure-20 analog)", e8_per_query)
register("e9", "throughput vs number of streams (scalability claim)",
         e9_stream_scaling)
register("a1", "ablation: throttling on/off", ablation_throttling)
register("a2", "ablation: page prioritization on/off", ablation_priority)
register("a3", "ablation: drift-threshold sweep", ablation_threshold)
register("a4", "ablation: bufferpool-size sweep", ablation_bufferpool_sweep)
register("a5", "related work: victim-policy comparison", ablation_policies)
register("a6", "ablation: fairness-cap sweep", ablation_fairness_cap)
register("a7", "ablation: disk scheduler vs coordination",
         ablation_disk_scheduler)
register("a9", "ablation: spindle count vs coordination", ablation_disk_array)
register("pl-mix", "policy: stream mix under settings.sharing_policy "
         "(sweep over sharing_policy for a comparison table)", pl_mix)
register("pl-head2head",
         "policy: Base vs grouping-throttling vs cooperative vs pbm",
         pl_head2head)
register("sv-steady", "service: steady mixed open+closed load", sv_steady)
register("sv-overload",
         "service: overload backpressure, controller on vs off", sv_overload)
register("sv-burst", "service: bursty MMPP arrivals", sv_burst)
register("sv-soak", "service: long mixed soak (chaos-ready)", sv_soak)
# The cluster layer sits above the experiment harness (its service
# builds databases through it), so these three import lazily to keep
# registry import-time cycle-free.


def _sv_cluster_steady(settings: ExperimentSettings) -> Any:
    from repro.cluster.scenarios import sv_cluster_steady
    return sv_cluster_steady(settings)


def _sv_cluster_skew(settings: ExperimentSettings) -> Any:
    from repro.cluster.scenarios import sv_cluster_skew
    return sv_cluster_skew(settings)


def _sv_cluster_scale(settings: ExperimentSettings) -> Any:
    from repro.cluster.scenarios import sv_cluster_scale
    return sv_cluster_scale(settings)


register("sv-cluster-steady",
         "cluster: mixed load over a replicated fleet (rf=2, least-loaded)",
         _sv_cluster_steady)
register("sv-cluster-skew",
         "cluster: zipf users + zipf tables, hot-shard stress",
         _sv_cluster_skew)
register("sv-cluster-scale",
         "cluster: identical load over 1/2/4 replicas (scaling claim)",
         _sv_cluster_scale)
register("st-push",
         "striped: pull vs push prefetch pipeline at --device-count",
         st_push)
register("st-scaling",
         "striped: push-pipeline throughput over 1/2/4 devices", st_scaling)
register("ag-compete",
         "budgeted: spillable aggregation vs scans, Base vs SS", ag_compete)
register("ag-mix",
         "budgeted: scans-plus-aggregation mix under settings.sharing_policy "
         "(sweep over sharing_policy for a comparison table)", ag_mix)
register("mj-join",
         "budgeted: multibuffer hash joins among range scans", mj_join)


# ----------------------------------------------------------------------
# Uniform metric extraction
# ----------------------------------------------------------------------


def comparison_metrics(comparison: Comparison) -> Dict[str, Any]:
    """The headline numbers of one Base-vs-SS pair."""
    return {
        "base_makespan": comparison.base.makespan,
        "shared_makespan": comparison.shared.makespan,
        "base_pages_read": comparison.base.pages_read,
        "shared_pages_read": comparison.shared.pages_read,
        "base_seeks": comparison.base.seeks,
        "shared_seeks": comparison.shared.seeks,
        "end_to_end_gain_percent": comparison.end_to_end_gain,
        "disk_read_gain_percent": comparison.disk_read_gain,
        "disk_seek_gain_percent": comparison.disk_seek_gain,
    }


def metrics_of(result: Any) -> Dict[str, Any]:
    """Flatten any registered experiment's result into a JSON-safe dict.

    The dict is the unit of caching and digesting: two runs are "the
    same" exactly when their metrics dicts serialize identically.
    """
    if isinstance(result, OverheadResult):
        metrics = comparison_metrics(result.comparison)
        metrics["overhead_percent"] = result.overhead_percent
        return metrics
    if isinstance(result, StaggeredResult):
        metrics = comparison_metrics(result.comparison)
        metrics["query"] = result.query_name
        metrics["per_run_base"] = list(result.per_run_base)
        metrics["per_run_shared"] = list(result.per_run_shared)
        metrics["per_run_gain_percent"] = result.per_run_gains()
        return metrics
    if isinstance(result, ThroughputResult):
        return comparison_metrics(result.comparison)
    if isinstance(result, TimelineResult):
        return {
            "metric": result.metric,
            "base_series": list(result.base_series),
            "shared_series": list(result.shared_series),
            "base_total": sum(result.base_series),
            "shared_total": sum(result.shared_series),
        }
    if isinstance(result, PerStreamResult):
        return {
            "base_elapsed": {str(k): v for k, v in result.base_elapsed.items()},
            "shared_elapsed": {
                str(k): v for k, v in result.shared_elapsed.items()
            },
            "gain_percent": {str(k): v for k, v in result.gains().items()},
        }
    if isinstance(result, PerQueryResult):
        return {
            "base_elapsed": dict(result.base_elapsed),
            "shared_elapsed": dict(result.shared_elapsed),
            "gain_percent": result.gains(),
        }
    if isinstance(result, StreamScalingResult):
        return {
            str(n): dict(
                comparison_metrics(result.points[n]),
                base_qps=result.throughput(n, shared=False),
                shared_qps=result.throughput(n, shared=True),
            )
            for n in sorted(result.points)
        }
    if isinstance(result, SweepResult):
        return {
            "knob": result.knob,
            "rows": [
                {"label": label, "makespan": makespan,
                 "pages_read": pages, "seeks": seeks}
                for label, makespan, pages, seeks in result.rows
            ],
        }
    if isinstance(result, (PolicyMixResult, PolicyComparisonResult)):
        return result.metrics()
    if isinstance(result, (AggCompeteResult, AggMixResult, JoinResult)):
        return result.metrics()
    if isinstance(result, (StripedPushResult, StripedScalingResult)):
        return result.metrics()
    if isinstance(result, Comparison):
        return comparison_metrics(result)
    if isinstance(result, (ServiceResult, ServiceComparison)):
        return result.metrics()
    from repro.cluster.service import ClusterResult, ClusterScalingResult
    if isinstance(result, (ClusterResult, ClusterScalingResult)):
        return result.metrics()
    if isinstance(result, dict):  # a4 / a9: sweep key -> Comparison
        return {str(key): metrics_of(value)
                for key, value in sorted(result.items())}
    raise TypeError(f"no metric extraction for {type(result).__name__}")


# ----------------------------------------------------------------------
# Uniform rendering
# ----------------------------------------------------------------------


def render_result(result: Any) -> str:
    """Printable text for any registered experiment's result."""
    if isinstance(result, dict):  # a4 / a9 return {knob value: Comparison}
        keys: Tuple[Any, ...] = tuple(result)
        integral = all(isinstance(key, int) for key in keys)
        header = "disks" if integral else "pool"
        rows = [
            [key if integral else f"{key:.0%}",
             c.base.makespan, c.shared.makespan, c.end_to_end_gain,
             c.disk_read_gain]
            for key, c in sorted(result.items())
        ]
        return format_table(
            [header, "Base (s)", "SS (s)", "e2e gain %", "read gain %"], rows
        )
    return result.render()
