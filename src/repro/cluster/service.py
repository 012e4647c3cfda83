"""The cluster service: K replica simulations behind one shard router.

:class:`ClusterService` is the fleet-scale analogue of
:class:`~repro.service.service.QueryService`: it renders the cluster's
offered load once (:func:`~repro.workloads.loadgen.generate_load`),
routes every arrival through the deterministic consistent-hash router
(:mod:`repro.cluster.topology`), then runs one full admission-controlled
service simulation per replica — each on its own database, bufferpool,
sharing policy, and fault injector — and reduces the per-replica
results into one fleet-wide :class:`ClusterResult`.

Determinism: the load plan derives from ``seed`` via
:func:`~repro.workloads.arrivals.stable_hash`, routing
is a pure function of the plan and the :class:`ClusterSpec`, and every
replica's database seed derives from ``(seed, replica_id)`` — so the
whole run is a pure function of ``(ClusterSpec, settings)`` and two
runs with the same inputs produce byte-identical per-replica and
fleet-wide metrics.

Fault clauses with ``replica=`` pinning apply only to the matching
replica; because each replica owns a private injector RNG seeded from
its own derived seed, killing one replica's scans never perturbs the
draws — or the digests — of the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.spec import ClusterSpec
from repro.cluster.topology import ClusterRouter
from repro.core.config import SharingConfig
from repro.experiments.harness import ExperimentSettings, build_database
from repro.metrics.report import (
    fleet_aggregate_row,
    format_service_table,
    format_table,
)
from repro.service.metrics import ServiceResult
from repro.service.service import QueryService
from repro.service.spec import ServiceClass, ServiceSpec
from repro.workloads.arrivals import ArrivalPlan, stable_hash
from repro.workloads.loadgen import LoadPlan, UserArrival, generate_load


def derive_replica_seed(base_seed: int, replica_id: int) -> int:
    """Stable per-replica database seed."""
    return stable_hash("repro.cluster", base_seed, "replica", replica_id) % (2 ** 63)


def derive_loadgen_seed(base_seed: int) -> int:
    """Stable seed for the cluster's load generator."""
    return stable_hash("repro.cluster", base_seed, "loadgen") % (2 ** 63)


@dataclass
class ReplicaResult:
    """One replica's service result plus its routing share."""

    replica_id: int
    service: ServiceResult
    arrivals_routed: int
    shards_touched: int

    def metrics(self) -> Dict[str, Any]:
        return {
            "replica_id": self.replica_id,
            "arrivals_routed": self.arrivals_routed,
            "shards_touched": self.shards_touched,
            "service": self.service.metrics(),
        }


@dataclass
class ClusterResult:
    """Everything measured over one cluster run."""

    scenario: str
    spec_summary: Dict[str, Any]
    replicas: List[ReplicaResult] = field(default_factory=list)
    router: Dict[str, Any] = field(default_factory=dict)
    #: Arrivals the load generator produced (== sum of routed counts).
    n_offered: int = 0
    distinct_users: int = 0

    # ------------------------------------------------------------------
    # Fleet reductions
    # ------------------------------------------------------------------

    @property
    def n_arrived(self) -> int:
        return sum(r.service.n_arrived for r in self.replicas)

    @property
    def n_completed(self) -> int:
        return sum(r.service.n_completed for r in self.replicas)

    @property
    def n_abandoned(self) -> int:
        return sum(r.service.n_abandoned for r in self.replicas)

    @property
    def drained(self) -> bool:
        return all(r.service.drained for r in self.replicas)

    @property
    def makespan(self) -> float:
        """Fleet makespan: the slowest replica's end time."""
        return max((r.service.end_time for r in self.replicas), default=0.0)

    @property
    def fleet_throughput(self) -> float:
        """Completions per simulated second across the whole fleet."""
        span = self.makespan
        return self.n_completed / span if span > 0 else 0.0

    @property
    def pages_read(self) -> int:
        return sum(r.service.pages_read for r in self.replicas)

    @property
    def fleet_miss_rate(self) -> float:
        """Completion-weighted mean of the per-replica miss rates."""
        weights = [max(1, r.service.n_completed) for r in self.replicas]
        total = sum(weights)
        if not total:
            return 0.0
        return sum(
            w * r.service.buffer_miss_rate
            for w, r in zip(weights, self.replicas)
        ) / total

    @property
    def fleet_slo_attainment(self) -> Optional[float]:
        """Completion-weighted SLO attainment over SLO-bearing classes."""
        weighted = 0.0
        completions = 0
        for replica in self.replicas:
            for cls in replica.service.classes:
                if cls.slo_attainment is None or cls.n_completed == 0:
                    continue
                weighted += cls.slo_attainment * cls.n_completed
                completions += cls.n_completed
        if completions == 0:
            return None
        return weighted / completions

    def fleet_class_rows(self) -> List[Dict[str, Any]]:
        """Per-class rows aggregated across replicas, plus a FLEET total.

        The last row aggregates every class on every replica, so the
        report renders it set off below the per-class rows
        (``fleet_row=True``).
        """
        by_name: Dict[str, List[Dict[str, Any]]] = {}
        order: List[str] = []
        all_rows: List[Dict[str, Any]] = []
        for replica in self.replicas:
            for cls in replica.service.classes:
                if cls.name not in by_name:
                    by_name[cls.name] = []
                    order.append(cls.name)
                row = cls.as_dict()
                by_name[cls.name].append(row)
                all_rows.append(row)
        rows = [
            fleet_aggregate_row(by_name[name], label=name)
            for name in order
        ]
        rows.append(fleet_aggregate_row(all_rows, label="FLEET"))
        return rows

    # ------------------------------------------------------------------
    # Uniform result protocol
    # ------------------------------------------------------------------

    def metrics(self) -> Dict[str, Any]:
        """JSON-safe dict — the unit of caching and digesting."""
        return {
            "scenario": self.scenario,
            "spec": self.spec_summary,
            "n_offered": self.n_offered,
            "distinct_users": self.distinct_users,
            "n_arrived": self.n_arrived,
            "n_completed": self.n_completed,
            "n_abandoned": self.n_abandoned,
            "drained": self.drained,
            "makespan": self.makespan,
            "fleet_throughput": self.fleet_throughput,
            "fleet_miss_rate": self.fleet_miss_rate,
            "fleet_slo_attainment": self.fleet_slo_attainment,
            "pages_read": self.pages_read,
            "router": self.router,
            "replicas": {
                str(r.replica_id): r.metrics() for r in self.replicas
            },
        }

    def render(self) -> str:
        lines = [
            f"cluster {self.scenario}: {self.spec_summary['n_replicas']} "
            f"replicas (rf={self.spec_summary['replication_factor']}, "
            f"{self.spec_summary['balance']}), "
            f"{self.spec_summary['n_users']} users, "
            f"{self.n_offered} arrivals from {self.distinct_users} "
            f"distinct users",
            f"fleet: {self.n_completed}/{self.n_arrived} completed, "
            f"{self.n_abandoned} abandoned, "
            f"drained={'yes' if self.drained else 'NO'}, "
            f"makespan {self.makespan:.3f}s, "
            f"throughput {self.fleet_throughput:.3f} q/s, "
            f"miss rate {self.fleet_miss_rate:.3f}",
            "",
        ]
        rows = []
        for replica in self.replicas:
            service = replica.service
            rows.append([
                f"r{replica.replica_id}", replica.arrivals_routed,
                replica.shards_touched, service.n_completed,
                service.n_abandoned, service.mpl_final,
                service.buffer_miss_rate, service.pages_read,
                service.end_time,
            ])
        rows.append([
            "fleet", sum(r.arrivals_routed for r in self.replicas),
            sum(r.shards_touched for r in self.replicas),
            self.n_completed, self.n_abandoned, "-",
            self.fleet_miss_rate, self.pages_read, self.makespan,
        ])
        lines.append(format_table(
            ["replica", "routed", "shards", "done", "abandoned", "mpl",
             "miss_rate", "pages", "end (s)"],
            rows,
        ))
        lines.append("")
        lines.append("fleet-wide per-class metrics (aggregated over replicas):")
        lines.append(format_service_table(
            self.fleet_class_rows(),
            fleet_row=True,
        ))
        return "\n".join(lines)


@dataclass
class ClusterScalingResult:
    """The same offered load replayed over a growing replica fleet.

    The load plan is fleet-size-independent (generation precedes
    routing), so every point serves the identical arrival set and the
    fleet-throughput curve isolates the scaling effect of sharding.
    """

    scenario: str
    #: The swept axis: its ``name``, ``kind`` and value ``sequence``.
    axis: Dict[str, Any]
    #: One cluster run per axis value, in sweep order.
    points: List[ClusterResult] = field(default_factory=list)

    def fleet_throughputs(self) -> Dict[str, float]:
        """Replica count (as str, JSON-safe) → fleet throughput."""
        return {
            str(point.spec_summary["n_replicas"]): point.fleet_throughput
            for point in self.points
        }

    @property
    def monotone_throughput(self) -> bool:
        """Whether fleet throughput never drops as replicas are added."""
        values = [point.fleet_throughput for point in self.points]
        return all(b >= a for a, b in zip(values, values[1:]))

    def metrics(self) -> Dict[str, Any]:
        """JSON-safe dict — the unit of caching and digesting."""
        return {
            "scenario": self.scenario,
            "axis": self.axis,
            "fleet_throughput": self.fleet_throughputs(),
            "monotone_throughput": self.monotone_throughput,
            "points": {
                str(point.spec_summary["n_replicas"]): point.metrics()
                for point in self.points
            },
        }

    def render(self) -> str:
        rows = []
        for point in self.points:
            rows.append([
                point.spec_summary["n_replicas"], point.n_arrived,
                point.n_completed, point.n_abandoned,
                point.makespan, point.fleet_throughput,
                point.fleet_miss_rate, point.pages_read,
            ])
        trend = (
            "monotone non-decreasing"
            if self.monotone_throughput
            else "NOT monotone"
        )
        return "\n".join([
            f"cluster {self.scenario}: identical load over a growing fleet "
            f"({self.axis.get('name', 'axis')} = "
            f"{self.axis.get('sequence', self.axis)})",
            f"fleet throughput is {trend} in replica count",
            "",
            format_table(
                ["replicas", "arrived", "done", "abandoned",
                 "makespan (s)", "fleet q/s", "miss_rate", "pages"],
                rows,
            ),
        ])


class ClusterService:
    """One deterministic cluster run: generate → route → simulate K times."""

    def __init__(
        self,
        spec: ClusterSpec,
        settings: ExperimentSettings,
        scenario: str = "",
    ):
        self.spec = spec
        self.settings = settings
        self.scenario = scenario

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _route_plan(
        self, plan: LoadPlan, router: ClusterRouter
    ) -> List[List[List[UserArrival]]]:
        """Split the global load plan into per-replica, per-class arrivals.

        Arrivals are routed in global time order (ties broken by class
        position, then sequence) so the router's least-loaded stats see
        the same history no matter how the per-class lists interleave.
        """
        merged: List[Tuple[float, int, int]] = []
        for class_index, class_plan in enumerate(plan.classes):
            for seq, arrival in enumerate(class_plan.arrivals):
                merged.append((arrival.time, class_index, seq))
        merged.sort()

        buckets: List[List[List[UserArrival]]] = [
            [[] for _ in plan.classes] for _ in range(self.spec.n_replicas)
        ]
        for _, class_index, seq in merged:
            arrival = plan.classes[class_index].arrivals[seq]
            replica = router.route(arrival.table, arrival.user_id)
            buckets[replica][class_index].append(arrival)
        return buckets

    # ------------------------------------------------------------------
    # Replica execution
    # ------------------------------------------------------------------

    def _run_replica(
        self, replica_id: int, routed: List[List[UserArrival]]
    ) -> ServiceResult:
        """One replica's service: each user class's contract, replaying
        the arrivals routed to this replica."""
        settings = self.settings.with_(
            seed=derive_replica_seed(self.settings.seed, replica_id)
        )
        fault_plan = settings.fault_plan()
        if fault_plan is not None:
            fault_plan = fault_plan.for_replica(replica_id)
            if not fault_plan.faults:
                fault_plan = None
        db = build_database(settings, SharingConfig(), fault_plan=fault_plan)
        load = self.spec.load
        service_spec = ServiceSpec(
            classes=tuple(
                ServiceClass(**cls.contract(), query_names=cls.templates,
                             arrival=ArrivalPlan(tuple(arrivals)))
                for cls, arrivals in zip(load.classes, routed)
            ),
            horizon=load.horizon,
            controller=self.spec.controller,
            max_arrivals_per_class=load.max_arrivals_per_class,
        )
        service = QueryService(
            db, service_spec, scenario=f"{self.scenario}/r{replica_id}",
        )
        return service.run()

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------

    def run(self) -> ClusterResult:
        """Drive the whole fleet to completion and reduce the results."""
        plan = generate_load(
            self.spec.load, seed=derive_loadgen_seed(self.settings.seed)
        )
        router = ClusterRouter(self.spec)
        routed = self._route_plan(plan, router)
        shards_touched = router.shards_touched()

        replicas: List[ReplicaResult] = []
        for replica_id in range(self.spec.n_replicas):
            service_result = self._run_replica(replica_id, routed[replica_id])
            replicas.append(ReplicaResult(
                replica_id=replica_id,
                service=service_result,
                arrivals_routed=router.assigned[replica_id],
                shards_touched=shards_touched[replica_id],
            ))

        return ClusterResult(
            scenario=self.scenario,
            spec_summary=self.spec.describe(),
            replicas=replicas,
            router=router.stats(),
            n_offered=plan.n_arrivals,
            distinct_users=plan.distinct_users(),
        )
