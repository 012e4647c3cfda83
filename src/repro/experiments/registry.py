"""Experiment registry: the single source of truth for experiment ids.

Every runnable experiment (the paper's E1–E9, the A-series ablations
and the policy, service, cluster, striped and budgeted-operator
families) is described by one :class:`ExperimentSpec` mapping its id to
a callable and a one-line description.  Every callable returns a result
object with ``metrics()`` (a JSON-safe dict, the unit of caching and
digesting) and ``render()`` (printable text).  The CLI, the parallel
runner, and the paper bands all dispatch through this table instead of
keeping private experiment lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro.cluster.scenarios import (
    sv_cluster_scale,
    sv_cluster_skew,
    sv_cluster_steady,
)
from repro.experiments.experiments import (
    ablation_bufferpool_sweep,
    ablation_disk_array,
    ablation_disk_scheduler,
    ablation_fairness_cap,
    ablation_opt_gap,
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
from repro.experiments.aggregation import ag_compete, ag_mix, mj_join
from repro.experiments.harness import ExperimentSettings
from repro.experiments.policies import pl_head2head, pl_mix
from repro.experiments.striped import st_push, st_scaling
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
    """One registered experiment: id, description, and its callable.

    ``run(settings)`` returns an object with ``metrics()`` and ``render()``.
    """

    name: str
    description: str
    run: Callable[[ExperimentSettings], Any]


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
register("a5", "related work: priority-LRU and sharing against OPT",
         ablation_opt_gap)
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
register("sv-cluster-steady",
         "cluster: mixed load over a replicated fleet (rf=2, least-loaded)",
         sv_cluster_steady)
register("sv-cluster-skew",
         "cluster: zipf users + zipf tables, hot-shard stress",
         sv_cluster_skew)
register("sv-cluster-scale",
         "cluster: identical load over 1/2/4 replicas (scaling claim)",
         sv_cluster_scale)
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

