"""The six workloads: seeded input generation and one Base or SS pass each.

Everything here goes through ``repro``'s public entry points
(``build_database``, ``run_workload``, ``tpch_streams``, ``QuerySpec`` /
``ScanStep``, ``build_service_spec`` + ``QueryService.run``,
``build_cluster_spec`` + ``ClusterService.run``, ``generate_load``); the
list in ``bench/README.md`` is the surface later changes must keep.

Importing this module imports ``repro``; the harness imports it inside
its ``setup.import`` span so that cost is measured.
"""

from __future__ import annotations

import random
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

import repro.cluster.service as cluster_module
import repro.service.service as service_module
from repro import AggSpec, QuerySpec, ScanStep, col, lit, run_workload
from repro.cluster.scenarios import build_cluster_spec
from repro.cluster.service import ClusterService, derive_loadgen_seed
from repro.core.config import SharingConfig
from repro.experiments.harness import ExperimentSettings, build_database
from repro.service import QueryService
from repro.service.scenarios import build_service_spec
from repro.trace import get_tracer
from repro.workloads.loadgen import generate_load
from repro.workloads.streams import tpch_streams
from repro.workloads.tpch_queries import make_query
from repro.workloads.tpch_schema import DATE_RANGE_DAYS

#: The seed every canonical input is drawn from, with ``repro``'s own
#: generators.  ``--seed`` varies only the tail of that input - the last
#: query of each closed-loop client, the start of the last staggered
#: scan, the end of the open-loop arrival window - and never redraws it.
#: The simulated system is chaotic at these sizes: redrawing the streams
#: or the table contents, or moving every start by 1 %, moves the
#: paper's ratios by 5-50 % from seed to seed (operator_spill's read
#: ratio 38 %, staggered_q6's seek ratio 53 %), which no regression
#: bound could see through.  A change at the tail cannot cascade and
#: keeps every simulated metric within 3.5 %.
CANONICAL_SEED = 11

#: Frozen sizes.  They were tuned on a 2-core box so that one iteration
#: (Base pass + SS pass) takes 1.3-1.8 s of host time: short enough for
#: six or more iterations in a 12 s run, long enough that the scanned
#: ranges are several times the pool.  ``jitter`` bounds what the seed
#: may move: the last scan's start, as a share of the start gap
#: (staggered_q6), or the end of the arrival window, as a share of it
#: (service, cluster).  ``tail`` is the latency percentile with at least
#: ten samples beyond it at this size.
SIZES: Dict[str, Dict[str, Any]] = {
    "staggered_q6": dict(scale=4.0, copies=16, gap_fraction=0.25,
                         range_pools=2.8, jitter=0.25, tail="max"),
    "throughput_mix": dict(scale=0.25, streams=5, tail="p90"),
    "soak_multi_device": dict(scale=0.18, streams=6, devices=4, tail="p90"),
    "operator_spill": dict(scale=0.15, streams=5, tail="max",
                           templates=("Q1", "Q6", "AG1", "AG18", "MJ1", "MJ18")),
    "service_soak": dict(scale=0.1, horizon_factor=1.0, jitter=0.01,
                         tail="p95"),
    "cluster_fleet": dict(scale=0.1, replicas=4, users=1_000_000,
                          horizon_factor=2.0, jitter=0.005, tail="p90"),
}

#: Closed or open loop, and with how many clients, per workload.
LOOPS: Dict[str, str] = {
    "staggered_q6": "closed loop, 16 clients x 1 query",
    "throughput_mix": "closed loop, 5 clients x 22 queries",
    "soak_multi_device": "closed loop, 6 clients x 22 queries",
    "operator_spill": "closed loop, 5 clients x 6 queries",
    "service_soak": "open loop (Poisson + Pareto classes) plus 1 closed batch "
                    "stream; arrivals are simulated-time events, so the "
                    "generator is never late",
    "cluster_fleet": "open loop, 10^6-user zipf population over 4 replicas; "
                     "arrivals are simulated-time events, so the generator "
                     "is never late",
}


@dataclass
class Query:
    """One attempted query as both passes see it."""

    #: Identity shared by the Base and the SS pass.
    key: Tuple
    #: Stream id (batch) or service class (service, cluster).
    group: Any
    #: Simulated seconds from scheduled arrival to finish; None = abandoned.
    latency: Optional[float]
    #: Per-step answers; None = abandoned.
    values: Any = None
    pages_scanned: int = 0
    operator_stats: Dict[str, float] = field(default_factory=dict)
    #: Simulated seconds queued before admission (service, cluster).
    admission_wait: float = 0.0


@dataclass
class PassResult:
    """What one pass (Base or SS) of one workload produced."""

    makespan: float
    pages_read: int
    seeks: int
    queries: List[Query]
    #: Stream elapsed (batch) or mean class latency (service, cluster).
    group_time: Dict[Any, float]
    #: One database, or one per replica; counters are read from these.
    databases: List[Any]
    drained: bool = True
    #: ``service.*`` / ``cluster.*`` counters of this pass.
    extra: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Inputs:
    """Generated inputs of one workload for one seed."""

    base: ExperimentSettings
    shared: ExperimentSettings
    streams: Optional[List[List[QuerySpec]]] = None
    stagger_list: Optional[List[float]] = None
    #: ``ServiceSpec`` or ``ClusterSpec``.
    spec: Any = None
    #: Arrivals the load generator rendered (cluster only).
    offered: int = 0
    #: The part of the input the seed decided, in a printable form.
    seeded: Tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int, float], Inputs]
    run_pass: Callable[[Inputs, bool, Any], PassResult]


# ----------------------------------------------------------------------
# Batch workloads (run_workload)
# ----------------------------------------------------------------------


#: A multibuffer join probe reports, next to its match count, how many
#: passes it took and the rows those passes re-read; both follow the
#: frames the pool granted, not the data, and differ between the passes.
_PROBE_COST_KEYS = ("rows_probed", "chunks")


def _answers(values: Dict[str, Any]) -> Dict[str, Any]:
    """A query's per-step values without the probe's cost figures."""
    return {
        label: ({key: value for key, value in step.items()
                 if key not in _PROBE_COST_KEYS}
                if isinstance(step, dict) and "matches" in step else step)
        for label, step in values.items()
    }


def _batch_pass(inputs: Inputs, shared: bool, spans: Any) -> PassResult:
    del spans
    settings = inputs.shared if shared else inputs.base
    db = build_database(settings, SharingConfig(enabled=shared))
    result = run_workload(db, inputs.streams, stagger_list=inputs.stagger_list)
    queries = [
        Query(
            key=(stream.stream_id, index), group=stream.stream_id,
            latency=query.elapsed, values=_answers(query.values),
            pages_scanned=query.pages_scanned,
            operator_stats=query.operator_stats(),
        )
        for stream in result.streams
        for index, query in enumerate(stream.queries)
    ]
    return PassResult(
        makespan=result.makespan, pages_read=result.pages_read,
        seeks=result.seeks, queries=queries,
        group_time={s.stream_id: s.elapsed for s in result.streams},
        databases=[db],
    )


def _staggered_inputs(seed: int, size: float) -> Inputs:
    """Copies of one Q6 range scan, started a quarter of its solo time apart.

    The range is sized in pool multiples (as the E2 experiment does), so
    later copies cannot ride the cache for free at any scale.  The seed
    moves the start of the last copy.
    """
    p = SIZES["staggered_q6"]
    settings = ExperimentSettings(scale=p["scale"] * size, seed=CANONICAL_SEED)
    probe = build_database(settings, SharingConfig(enabled=False))
    lineitem = probe.catalog.table("lineitem").n_pages
    fraction = min(0.95, p["range_pools"] * probe.pool.capacity / lineitem)
    query = QuerySpec(name="Q6", steps=(ScanStep(
        table="lineitem",
        cluster_range=(DATE_RANGE_DAYS * (1.0 - fraction), DATE_RANGE_DAYS),
        predicate=(col("l_discount").between(0.05, 0.07)
                   & (col("l_quantity") < lit(24.0))),
        aggregates=(AggSpec("revenue", "sum",
                            col("l_extendedprice") * col("l_discount")),),
        label="lineitem",
    ),))
    gap = p["gap_fraction"] * run_workload(probe, [[query]]).makespan
    starts = [gap * index for index in range(p["copies"])]
    starts[-1] += gap * random.Random(seed).uniform(-p["jitter"], p["jitter"])
    return Inputs(base=settings, shared=settings,
                  streams=[[query] for _ in range(p["copies"])],
                  stagger_list=starts, seeded=(starts[-1],))


def _stream_inputs(name: str, seed: int, size: float, **settings: Any) -> Inputs:
    """The canonical TPC-H streams, each one's last query redrawn from the seed."""
    p = SIZES[name]
    base = ExperimentSettings(scale=p["scale"] * size, n_streams=p["streams"],
                              seed=CANONICAL_SEED, **settings)
    streams = tpch_streams(p["streams"], seed=CANONICAL_SEED,
                           query_names=p.get("templates"))
    rng = np.random.default_rng(seed)
    for stream in streams:
        stream[-1] = make_query(stream[-1].name, rng)
    seeded = tuple(
        (stream[-1].name,
         [(step.cluster_range, step.fraction) for step in stream[-1].steps])
        for stream in streams
    )
    return Inputs(base=base, shared=base, streams=streams, seeded=seeded)


def _throughput_inputs(seed: int, size: float) -> Inputs:
    return _stream_inputs("throughput_mix", seed, size)


def _soak_inputs(seed: int, size: float) -> Inputs:
    """Base pulls; SS pushes each extent once to its whole consumer set."""
    inputs = _stream_inputs(
        "soak_multi_device", seed, size, stripe_extents=1,
        device_count=SIZES["soak_multi_device"]["devices"])
    return replace(inputs, shared=inputs.base.with_(push_prefetch=True))


def _spill_inputs(seed: int, size: float) -> Inputs:
    return _stream_inputs("operator_spill", seed, size, agg_strategy="hash")


# ----------------------------------------------------------------------
# Service and cluster workloads
# ----------------------------------------------------------------------


class HookMissed(RuntimeError):
    """A name the benchmark wraps inside ``repro`` is no longer used."""


@contextmanager
def _wrapped(module: Any, name: str, wrap: Callable) -> Iterator[None]:
    original = getattr(module, name)
    setattr(module, name, wrap(original))
    try:
        yield
    finally:
        setattr(module, name, original)


class _Observer:
    """Records every request, answer and replica database of one pass.

    ``ServiceResult`` keeps per-class percentiles but neither the
    per-request latencies nor the query answers, and ``ClusterService``
    builds its replicas' databases itself.  So, in the benchmark process
    only, this wraps the names the two service modules look up:
    ``QueryRequest`` and ``execute_query`` in ``repro.service.service``
    and ``build_database`` in ``repro.cluster.service``.  A wrapper that
    is never called raises :class:`HookMissed`.
    """

    def __init__(self, spans: Any):
        self.spans = spans
        self.databases: List[Any] = []
        self.requests: List[Tuple[int, Any]] = []
        self.results: Dict[Tuple[int, int], Any] = {}
        self._replica = 0
        #: Holds the open ``cluster.replica`` span, if any.
        self._replica_span = ExitStack()

    def _record_request(self, original: Callable) -> Callable:
        def make(*args, **kwargs):
            request = original(*args, **kwargs)
            self.requests.append((self._replica, request))
            return request
        return make

    def _record_result(self, original: Callable) -> Callable:
        def execute(db, spec, stream_id=0):
            replica = self._replica
            result = yield from original(db, spec, stream_id=stream_id)
            self.results[(replica, stream_id)] = result
            return result
        return execute

    def _record_database(self, original: Callable) -> Callable:
        def build(*args, **kwargs):
            self._replica_span.close()
            self._replica = len(self.databases)
            self._replica_span.enter_context(self.spans.span("cluster.replica"))
            db = original(*args, **kwargs)
            self.databases.append(db)
            return db
        return build

    @contextmanager
    def watching(self, cluster: bool) -> Iterator[None]:
        with ExitStack() as stack:
            stack.enter_context(_wrapped(
                service_module, "QueryRequest", self._record_request))
            stack.enter_context(_wrapped(
                service_module, "execute_query", self._record_result))
            if cluster:
                stack.enter_context(_wrapped(
                    cluster_module, "build_database", self._record_database))
                stack.callback(self._replica_span.close)
            yield

    def pass_result(self, makespan: float, pages_read: int,
                    services: List[Any], extra: Dict[str, float]) -> PassResult:
        """Reduce the recordings; ``services`` are the ``ServiceResult``s."""
        n_completed = sum(s.n_completed for s in services)
        n_arrived = sum(s.n_arrived for s in services)
        if len(self.requests) != n_arrived or len(self.results) != n_completed:
            raise HookMissed(
                f"recorded {len(self.requests)} requests and "
                f"{len(self.results)} answers, the service reports "
                f"{n_arrived} arrived and {n_completed} completed"
            )
        if len(self.databases) != len(services):
            raise HookMissed(
                f"recorded {len(self.databases)} databases for "
                f"{len(services)} service runs"
            )
        queries: List[Query] = []
        ordinals: Dict[Tuple[int, str], int] = {}
        for replica, request in self.requests:
            slot = (replica, request.class_name)
            ordinal = ordinals.get(slot, 0)
            ordinals[slot] = ordinal + 1
            result = self.results.get((replica, request.request_id))
            finished = request.finished_at is not None and result is not None
            queries.append(Query(
                key=(replica, request.class_name, ordinal),
                group=request.class_name,
                latency=request.latency if finished else None,
                values=_answers(result.values) if finished else None,
                pages_scanned=result.pages_scanned if finished else 0,
                operator_stats=result.operator_stats() if finished else {},
                admission_wait=(request.admission_wait
                                if request.resolved else 0.0),
            ))
        latencies: Dict[str, List[float]] = {}
        for query in queries:
            if query.latency is not None:
                latencies.setdefault(query.group, []).append(query.latency)
        extra = dict(extra)
        extra.update({
            "service.n_arrived": n_arrived,
            "service.n_completed": n_completed,
            "service.n_abandoned": sum(s.n_abandoned for s in services),
            "service.queue_peak": max(
                c.queue_peak for s in services for c in s.classes),
            "service.mpl_max": max(s.mpl_max for s in services),
            "service.peak_running": max(s.peak_running for s in services),
        })
        return PassResult(
            makespan=makespan, pages_read=pages_read,
            seeks=sum(db.disk.stats.seeks for db in self.databases),
            queries=queries,
            group_time={name: sum(values) / len(values)
                        for name, values in latencies.items()},
            databases=self.databases,
            drained=all(s.drained for s in services),
            extra=extra,
        )


def _window(horizon: float, p: Dict[str, Any], seed: int, size: float) -> float:
    """The scenario's own arrival window, stretched to this workload's
    size and by a seeded share of at most ``jitter`` either way.  The
    arrival processes keep the canonical seed, so the seed decides where
    the same arrival sequences are cut off."""
    jitter = random.Random(seed).uniform(-p["jitter"], p["jitter"])
    return horizon * p["horizon_factor"] * size * (1.0 + jitter)


def _service_inputs(seed: int, size: float) -> Inputs:
    p = SIZES["service_soak"]
    settings = ExperimentSettings(scale=p["scale"], seed=CANONICAL_SEED)
    settings = settings.with_(service_horizon=_window(
        build_service_spec("soak", settings).horizon, p, seed, size))
    return Inputs(base=settings, shared=settings,
                  spec=build_service_spec("soak", settings),
                  seeded=(settings.service_horizon,))


def _service_pass(inputs: Inputs, shared: bool, spans: Any) -> PassResult:
    settings = inputs.shared if shared else inputs.base
    observer = _Observer(spans)
    db = build_database(settings, SharingConfig(enabled=shared))
    observer.databases.append(db)
    with observer.watching(cluster=False):
        result = QueryService(db, inputs.spec, scenario="soak").run()
    return observer.pass_result(result.end_time, result.pages_read,
                                [result], {})


def _cluster_inputs(seed: int, size: float) -> Inputs:
    """The skewed fleet; Base switches sharing off on every replica."""
    p = SIZES["cluster_fleet"]
    settings = ExperimentSettings(scale=p["scale"], seed=CANONICAL_SEED,
                                  cluster_replicas=p["replicas"],
                                  cluster_users=p["users"])
    settings = settings.with_(service_horizon=_window(
        build_cluster_spec("skew", settings).load.horizon, p, seed, size))
    spec = build_cluster_spec("skew", settings)
    # ClusterService renders the same plan from the same derived seed;
    # doing it here as well puts its cost in set-up and yields the count.
    plan = generate_load(spec.load, seed=derive_loadgen_seed(settings.seed))
    return Inputs(
        base=settings.with_(sharing_overrides={"enabled": False}),
        shared=settings, spec=spec, offered=plan.n_arrivals,
        seeded=(settings.service_horizon,),
    )


def _cluster_pass(inputs: Inputs, shared: bool, spans: Any) -> PassResult:
    settings = inputs.shared if shared else inputs.base
    observer = _Observer(spans)
    with observer.watching(cluster=True):
        result = ClusterService(inputs.spec, settings, scenario="skew").run()
    if result.n_offered != inputs.offered:
        raise RuntimeError(
            f"cluster offered {result.n_offered} arrivals, "
            f"set-up generated {inputs.offered}"
        )
    routed = [replica.arrivals_routed for replica in result.replicas]
    extra = {
        "cluster.n_offered": result.n_offered,
        "cluster.distinct_users": result.distinct_users,
        "cluster.replica_imbalance": max(routed) * len(routed) / sum(routed),
        "loadgen.arrivals": inputs.offered,
    }
    return observer.pass_result(
        result.makespan, result.pages_read,
        [replica.service for replica in result.replicas], extra,
    )


def build(inputs: Inputs) -> None:
    """Build the Base and the SS database once (the ``setup.build`` span)."""
    build_database(inputs.base, SharingConfig(enabled=False))
    build_database(inputs.shared, SharingConfig())


def tracing_enabled() -> bool:
    """Whether ``repro``'s tracer has a sink (it must not while timing)."""
    return get_tracer().enabled


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("staggered_q6", _staggered_inputs, _batch_pass),
        Workload("throughput_mix", _throughput_inputs, _batch_pass),
        Workload("soak_multi_device", _soak_inputs, _batch_pass),
        Workload("operator_spill", _spill_inputs, _batch_pass),
        Workload("service_soak", _service_inputs, _service_pass),
        Workload("cluster_fleet", _cluster_inputs, _cluster_pass),
    )
}
