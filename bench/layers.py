"""Per-layer numbers taken from outside ``repro``.

Three sources: simulated counters read from the public stats objects
after the SS pass, a ``cProfile`` roll-up of host self time by module
path, and three micro drivers on entry points the ROADMAP keeps.  The
layers are the ``src/repro`` packages; ``MOVES`` records, ahead of any
measurement, which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import statistics
import time
import warnings
from typing import Any, Callable, Dict, List, Optional, Tuple

from bench.harness import percentile

#: Module path under ``src/repro`` -> layer; the first matching prefix wins.
LAYER_PATHS: Tuple[Tuple[str, str], ...] = (
    ("sim/", "sim"),
    ("disk/", "disk"),
    ("buffer/push.py", "buffer_push"),
    ("buffer/replacement/", "buffer_replacement"),
    ("buffer/", "buffer_pool"),
    ("storage/", "storage"),
    ("scans/", "scans"),
    ("core/", "core"),
    ("engine/operators.py", "engine_ops"),
    ("engine/expressions.py", "engine_ops"),
    ("engine/costs.py", "engine_ops"),
    ("engine/spill.py", "engine_spill"),
    ("engine/memory.py", "engine_spill"),
    ("engine/", "engine_exec"),
    ("service/", "service"),
    ("cluster/", "cluster"),
    ("workloads/", "workloads"),
    ("faults/", "faults"),
    ("trace/", "trace"),
    ("metrics/", "metrics"),
)

#: Every layer of the roll-up.  ``other`` is the standard library, the
#: harness itself and the ``repro.experiments`` glue.
LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(layer for _, layer in LAYER_PATHS)
) + ("numpy", "other")

#: Layers whose Python-level call count is reported as well.
CALL_LAYERS = ("sim", "buffer_pool", "disk", "core", "engine_ops")

#: Prefix of a per-layer metric -> the end-to-end metric and workload it
#: should move.  Written before the first measurement; the first
#: matching prefix wins.
MOVES: Tuple[Tuple[str, str], ...] = (
    ("host.buffer_push.", "wall_s and sim_makespan_s on soak_multi_device only"),
    ("host.buffer_", "wall_s on staggered_q6 (large), throughput_mix (medium), "
                     "operator_spill (small)"),
    ("host.disk.", "wall_s on staggered_q6 (large), throughput_mix (medium), "
                   "operator_spill (small)"),
    ("host.sim.", "wall_s on staggered_q6 (large), throughput_mix (medium), "
                  "operator_spill (small)"),
    ("host.engine_", "wall_s on operator_spill and throughput_mix, least on "
                     "staggered_q6"),
    ("host.workloads.", "setup_s and wall_s on cluster_fleet only"),
    ("host.cluster.", "setup_s and wall_s on cluster_fleet only"),
    ("host.service.", "wall_s on service_soak and cluster_fleet only"),
    ("host.trace.", "wall_s everywhere (tracing off; ROADMAP item 5d budgets "
                    "it at 1 %)"),
    ("host.trace_overhead_ratio", "none: the cost of profiling itself"),
    ("host.", "wall_s and cpu_s in proportion to the layer's share"),
    ("setup.", "setup_s on every workload"),
    ("run.", "wall_s on every workload"),
    ("check.failed_share", "completed_share on service_soak and cluster_fleet"),
    ("check.", "none: harness cost outside wall_s"),
    ("buffer.", "sim_pages_read, sim_seeks and the sim_*_ratio metrics on the "
                "four batch workloads"),
    ("core.fairness_cap_hits", "sim_worst_stream_ratio on the batch workloads"),
    ("core.", "sim_pages_read, sim_seeks and the sim_*_ratio metrics on the "
              "four batch workloads"),
    ("disk.device_imbalance", "wall_s and sim_makespan_s on soak_multi_device "
                              "only"),
    ("disk.pages_written", "sim_makespan_s on operator_spill (temp writes)"),
    ("disk.", "sim_makespan_s, sim_pages_read and sim_seeks on every workload"),
    ("push.", "wall_s and sim_makespan_s on soak_multi_device only"),
    ("engine.", "sim_makespan_s and wall_s on operator_spill"),
    ("cpu.", "sim_makespan_s: which resource bounds the SS pass"),
    ("service.admission_wait", "sim_latency_tail_s and completed_share on "
                               "service_soak"),
    ("service.mpl_max", "sim_latency_tail_s and completed_share on "
                        "service_soak"),
    ("service.", "sim_latency_p50_s, sim_latency_tail_s and completed_share on "
                 "service_soak and cluster_fleet"),
    ("cluster.", "sim_makespan_s and sim_latency_tail_s on cluster_fleet"),
    ("loadgen.", "setup_s and wall_s on cluster_fleet only"),
    ("paper.", "the same gain as its sim_*_ratio: gain = 100 x (1 - ratio)"),
    ("micro.sim_", "wall_s on every workload, most on staggered_q6"),
    ("micro.disk_", "wall_s on soak_multi_device"),
    ("micro.loadgen_", "setup_s and wall_s on cluster_fleet only"),
)


def moves(name: str) -> str:
    """The prediction recorded for one per-layer metric."""
    for prefix, prediction in MOVES:
        if name.startswith(prefix):
            return prediction
    raise KeyError(f"no prediction recorded for per-layer metric {name!r}")


# ----------------------------------------------------------------------
# Simulated counters
# ----------------------------------------------------------------------


def _reach(roots: List[Any], path: str) -> Optional[List[Any]]:
    """The objects at dotted ``path`` under each root (None ones are
    skipped); None, with a warning, once the path no longer exists."""
    found = []
    for obj in roots:
        try:
            for part in path.split("."):
                obj = getattr(obj, part)
        except AttributeError:
            warnings.warn(f"counter source {path!r} no longer exists")
            return None
        if obj is not None:
            found.append(obj)
    return found


def _total(objects: Optional[List[Any]], attr: str) -> Optional[float]:
    """Sum of one attribute; None, with a warning, once it is gone."""
    if objects is None:
        return None
    try:
        return sum(getattr(obj, attr) for obj in objects)
    except AttributeError:
        warnings.warn(f"counter {attr!r} no longer exists")
        return None


def _ratio(top: Optional[float], bottom: Optional[float]) -> Optional[float]:
    if top is None or bottom is None:
        return None
    return top / bottom if bottom else 0.0


def counters(passed: Any) -> Dict[str, Optional[float]]:
    """Every simulated counter of one pass (a ``PassResult``).

    Counts are summed over the pass's databases (one per replica on the
    cluster); ratios are recomputed from the sums.  A counter whose
    source is gone is None.
    """
    dbs = passed.databases
    out: Dict[str, Optional[float]] = {}

    pools = _reach(dbs, "pool.stats")
    for name in ("logical_reads", "hits", "misses", "inflight_waits",
                 "evictions", "physical_requests", "prefetched_pages",
                 "pushed_pages", "fix_retries"):
        out[f"buffer.{name}"] = _total(pools, name)
    served = None
    if out["buffer.hits"] is not None and out["buffer.inflight_waits"] is not None:
        served = out["buffer.hits"] + out["buffer.inflight_waits"]
    out["buffer.hit_ratio"] = _ratio(served, out["buffer.logical_reads"])

    arrays = _reach(dbs, "disk.stats")
    devices = None if arrays is None else [
        device for stats in arrays
        for device in (getattr(stats, "per_device", None) or [stats])
    ]
    for name, attr in (("reads", "reads"), ("pages_read", "pages_read"),
                       ("pages_written", "pages_written"), ("seeks", "seeks"),
                       ("seek_time_s", "seek_time"), ("busy_time_s", "busy_time"),
                       ("io_retries", "io_retries")):
        out[f"disk.{name}"] = _total(devices, attr)
    device_seconds = None if arrays is None else sum(
        len(getattr(stats, "per_device", None) or [stats]) * db.sim.now
        for stats, db in zip(arrays, dbs)
    )
    out["disk.utilization"] = _ratio(out["disk.busy_time_s"], device_seconds)
    out["disk.device_imbalance"] = None
    if devices and out["disk.pages_read"] is not None:
        mean = out["disk.pages_read"] / len(devices)
        out["disk.device_imbalance"] = _ratio(
            max(device.pages_read for device in devices), mean)

    sharing = _reach(dbs, "sharing.stats")
    joined = (_total(sharing, "scans_joined_ongoing"),
              _total(sharing, "scans_joined_last_finished"))
    out["core.scans_joined"] = None if None in joined else sum(joined)
    for name, attr in (("regroups", "regroups"),
                       ("throttle_waits", "throttle_waits"),
                       ("throttle_time_s", "total_throttle_time"),
                       ("fairness_cap_hits", "fairness_cap_hits")):
        out[f"core.{name}"] = _total(sharing, attr)

    pipelines = _reach(dbs, "push")  # None (push off) entries are skipped
    pushes = None if pipelines is None else _reach(pipelines, "stats")
    for name in ("extents_pushed", "pages_delivered", "merged_registrations",
                 "extents_throttled", "duplicate_deliveries"):
        out[f"push.{name}"] = _total(pushes, name)

    records = _reach(dbs, "metrics.queries")
    out["engine.queries_completed"] = (
        None if records is None else sum(len(r) for r in records))
    out["engine.cpu_seconds"] = None if records is None else sum(
        record.cpu_seconds for r in records for record in r)
    for name in ("spill_events", "spill_pages_written", "spill_pages_read",
                 "granted_pages", "clawed_pages", "join_chunks"):
        out[f"engine.{name}"] = sum(
            query.operator_stats.get(name, 0) for query in passed.queries)

    busy = waiting = seconds = 0.0
    for db in dbs:
        if db.sim.now > 0:
            breakdown = db.cpu_breakdown()
            busy += breakdown.user * db.sim.now
            waiting += breakdown.iowait * db.sim.now
            seconds += db.sim.now
    out["cpu.busy_share"] = busy / seconds if seconds else 0.0
    out["cpu.iowait_share"] = waiting / seconds if seconds else 0.0

    for name in ("service.n_arrived", "service.n_completed",
                 "service.n_abandoned", "service.queue_peak", "service.mpl_max",
                 "service.peak_running", "cluster.n_offered",
                 "cluster.distinct_users", "cluster.replica_imbalance",
                 "loadgen.arrivals"):
        out[name] = passed.extra.get(name, 0)
    waits = ([query.admission_wait for query in passed.queries]
             if "service.n_arrived" in passed.extra else [])
    out["service.admission_wait_p50_s"] = percentile(waits, 50) if waits else 0.0
    out["service.admission_wait_p95_s"] = percentile(waits, 95) if waits else 0.0
    return out


# ----------------------------------------------------------------------
# Host self time by layer
# ----------------------------------------------------------------------


def _layer_of(filename: str, funcname: str, repro_dir: str) -> Optional[str]:
    """The layer a profiled function belongs to; None for a C function
    whose time is charged to its callers."""
    if "numpy" in filename or "numpy" in funcname:
        return "numpy"
    if filename == "~":
        return "sim" if "repro._speedups" in funcname else None
    if filename.startswith(repro_dir):
        relative = filename[len(repro_dir):].lstrip(os.sep).replace(os.sep, "/")
        for prefix, layer in LAYER_PATHS:
            if relative.startswith(prefix):
                return layer
    return "other"


def profile_layers(run: Callable[[], Any]) -> Tuple[Dict[str, float], float]:
    """Run ``run`` under ``cProfile``; per-layer metrics and its wall time.

    Self time is rolled up by module path.  A C function (``len``,
    ``heappush``, ``deque.append``) has no module of its own, so its
    time goes to the layer of each caller; numpy's stay with ``numpy``.
    """
    import repro

    repro_dir = os.path.dirname(os.path.abspath(repro.__file__))
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.runcall(run)
    wall = time.perf_counter() - started

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for (filename, _line, funcname), (_cc, n_calls, own, _cum, callers) in (
        pstats.Stats(profiler).stats.items()
    ):
        layer = _layer_of(filename, funcname, repro_dir)
        if layer is not None:
            self_s[layer] += own
            calls[layer] += n_calls
            continue
        charged = 0.0
        for (caller_file, _l, caller_name), arc in callers.items():
            caller_layer = _layer_of(caller_file, caller_name, repro_dir)
            self_s[caller_layer or "other"] += arc[2]
            charged += arc[2]
        self_s["other"] += own - charged
    total = sum(self_s.values())
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"host.{layer}.self_s"] = self_s[layer]
        metrics[f"host.{layer}.share"] = self_s[layer] / total if total else 0.0
    for layer in CALL_LAYERS:
        metrics[f"host.{layer}.calls"] = calls[layer]
    return metrics, wall


# ----------------------------------------------------------------------
# Micro drivers
# ----------------------------------------------------------------------


def _micro_sim_dispatch(n: int = 50_000) -> float:
    """Events per host second through ``Simulator.timeout`` + ``run``."""
    from repro import Simulator

    started = time.perf_counter()
    sim = Simulator()
    for index in range(n):
        sim.timeout(float(index))
    sim.run()
    return n / (time.perf_counter() - started)


def _micro_disk_striped(pages: int = 8192) -> float:
    """Simulated pages per host second through a 4-device ``DiskArray.read``."""
    from repro import DiskGeometry, Simulator
    from repro.disk import DiskArray

    started = time.perf_counter()
    sim = Simulator()
    array = DiskArray(sim, n_disks=4, geometry=DiskGeometry(total_pages=pages),
                      stripe_pages=8, scheduler="elevator")
    array.read(0, pages)
    sim.run()
    elapsed = time.perf_counter() - started
    if array.stats.pages_read != pages:
        raise RuntimeError(
            f"striped read delivered {array.stats.pages_read} of {pages} pages")
    return pages / elapsed


def _micro_loadgen(arrivals: int = 2000) -> float:
    """Arrivals per host second from ``generate_load`` over 10^6 zipf users."""
    from repro.workloads.loadgen import LoadSpec, UserClass, generate_load

    users = 1_000_000
    spec = LoadSpec(
        classes=(UserClass(name="analyst", templates=("Q6", "Q14", "Q3", "Q1"),
                           table_zipf=1.5, think_mean=float(users)),),
        n_users=users, user_zipf=1.2, horizon=1e9,
        max_arrivals_per_class=arrivals,
    )
    started = time.perf_counter()
    plan = generate_load(spec, seed=11)
    elapsed = time.perf_counter() - started
    if plan.n_arrivals != arrivals:
        raise RuntimeError(
            f"load generator rendered {plan.n_arrivals} of {arrivals} arrivals")
    return arrivals / elapsed


def micros(repeats: int = 3) -> Dict[str, float]:
    """Median throughput of each micro driver."""
    return {
        name: statistics.median(driver() for _ in range(repeats))
        for name, driver in (
            ("micro.sim_dispatch_per_s", _micro_sim_dispatch),
            ("micro.disk_striped_pages_per_s", _micro_disk_striped),
            ("micro.loadgen_arrivals_per_s", _micro_loadgen),
        )
    }
