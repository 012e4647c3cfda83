"""Common machinery for running Base-vs-SS comparisons."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import SharingConfig
from repro.engine.database import Database, SystemConfig
from repro.faults.plan import FaultPlan
from repro.engine.executor import WorkloadResult, run_workload
from repro.engine.query import QuerySpec
from repro.metrics.cpu import CpuBreakdown
from repro.metrics.report import percent_gain
from repro.workloads.streams import tpch_streams
from repro.workloads.tpch_schema import make_tpch_database


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs shared by all experiments.

    ``scale`` trades fidelity for runtime: 1.0 is the headline
    configuration (lineitem 1600 pages, pool ≈ 5 %); the defaults sit
    lower so the whole suite finishes in minutes.
    """

    scale: float = 0.35
    n_streams: int = 5
    seed: int = 42
    query_names: Optional[Sequence[str]] = None
    stagger: float = 0.0
    n_cpus: int = 4
    policy: str = "priority-lru"
    #: Scan-sharing strategy for the shared mode (see
    #: :data:`repro.core.policy.SHARING_POLICY_NAMES`); part of every
    #: cache key, and sweepable via ``repro sweep --param sharing_policy``.
    sharing_policy: str = "grouping-throttling"
    disk_scheduler: str = "fifo"
    #: Striped spindles backing the tablespace (1 = the single-disk
    #: model).  Part of every cache key and sweepable via
    #: ``repro sweep --param device_count``.
    device_count: int = 1
    #: Stripe unit in prefetch extents (None keeps the page-granular
    #: default of SystemConfig.disk_stripe_pages).
    stripe_extents: Optional[int] = None
    #: Leader-driven push prefetch pipeline (see
    #: :mod:`repro.buffer.push`); off = classic pull.
    push_prefetch: bool = False
    pool_fraction: float = 0.05
    #: Explicit pool size in pages; overrides pool_fraction (and the
    #: config's minimum-pool floor) when set.
    pool_pages: Optional[int] = None
    #: SharingConfig field overrides applied to the *shared* mode, as a
    #: sorted tuple of (field, value) pairs so the settings object stays
    #: hashable and cache keys see every override.
    sharing_overrides: Optional[Tuple[Tuple[str, Any], ...]] = None
    #: Spill strategy for memory-budgeted aggregation steps (see
    #: :data:`repro.engine.spill.AGG_STRATEGIES`): ``hash`` or ``sort``.
    #: Only the ``ag-*``/``mj-*`` experiments have budgeted steps; the
    #: classic templates ignore it.  Part of every cache key and
    #: sweepable via ``repro sweep --param agg_strategy``.
    agg_strategy: str = "hash"
    #: Fault spec string (see :mod:`repro.faults.plan`); None = clean run.
    fault_spec: Optional[str] = None
    #: Arrival-window override for ``sv-*`` service scenarios, in
    #: simulated seconds; None = the scenario's own scale-derived default.
    #: Ignored by every non-service experiment.
    service_horizon: Optional[float] = None
    #: Replica-fleet override for ``sv-cluster-*`` scenarios; None = the
    #: scenario's own default.  Ignored by every non-cluster experiment.
    cluster_replicas: Optional[int] = None
    #: Simulated-user-population override for ``sv-cluster-*`` scenarios;
    #: None = the scenario's own default.  Ignored elsewhere.
    cluster_users: Optional[int] = None

    def with_(self, **changes) -> "ExperimentSettings":
        """A modified copy."""
        if "sharing_overrides" in changes and changes["sharing_overrides"]:
            overrides = changes["sharing_overrides"]
            if isinstance(overrides, dict):
                overrides = tuple(sorted(overrides.items()))
            else:
                overrides = tuple(sorted(tuple(pair) for pair in overrides))
            changes = {**changes, "sharing_overrides": overrides}
        return replace(self, **changes)

    def fault_plan(self) -> Optional[FaultPlan]:
        """The parsed fault plan these settings describe, if any."""
        if self.fault_spec is None:
            return None
        return FaultPlan.from_spec(self.fault_spec, seed=self.seed)

    def apply_sharing_overrides(self, sharing: SharingConfig) -> SharingConfig:
        """``sharing`` with this settings object's overrides applied."""
        if not self.sharing_overrides:
            return sharing
        return replace(sharing, **dict(self.sharing_overrides))


@dataclass
class ModeResult:
    """Everything measured for one mode (Base or SS) of one experiment."""

    label: str
    workload: WorkloadResult
    cpu: CpuBreakdown
    reads_per_bucket: List[float] = field(default_factory=list)
    seeks_per_bucket: List[float] = field(default_factory=list)
    per_stream_elapsed: Dict[int, float] = field(default_factory=dict)
    per_query_elapsed: Dict[str, float] = field(default_factory=dict)
    throttle_waits: int = 0
    scans_joined: int = 0

    @property
    def makespan(self) -> float:
        return self.workload.makespan

    @property
    def pages_read(self) -> int:
        return self.workload.pages_read

    @property
    def seeks(self) -> int:
        return self.workload.seeks


@dataclass
class Comparison:
    """A matched Base/SS pair with the paper's three headline gains."""

    base: ModeResult
    shared: ModeResult

    @property
    def end_to_end_gain(self) -> float:
        """Percent end-to-end improvement (paper Table 1, column 1)."""
        return percent_gain(self.base.makespan, self.shared.makespan)

    @property
    def disk_read_gain(self) -> float:
        """Percent reduction in pages read (paper Table 1, column 2)."""
        return percent_gain(self.base.pages_read, self.shared.pages_read)

    @property
    def disk_seek_gain(self) -> float:
        """Percent reduction in seeks (paper Table 1, column 3)."""
        return percent_gain(float(self.base.seeks), float(self.shared.seeks))


def expected_table_pages(settings: ExperimentSettings, name: str,
                         extent_size: int = 16) -> int:
    """Page count a table will get at these settings (mirrors the
    sizing logic in :func:`repro.workloads.tpch_schema.make_tpch_database`)."""
    from repro.workloads.tpch_schema import TPCH_BASE_PAGES

    return max(extent_size, int(TPCH_BASE_PAGES[name] * settings.scale))


def expected_pool_pages(settings: ExperimentSettings,
                        extent_size: int = 16) -> int:
    """Bufferpool size the database will get at these settings."""
    from repro.workloads.tpch_schema import TPCH_BASE_PAGES

    total = sum(
        max(extent_size, int(pages * settings.scale))
        for pages in TPCH_BASE_PAGES.values()
    )
    defaults = SystemConfig()
    return max(defaults.min_pool_pages, int(total * settings.pool_fraction))


#: Sentinel distinguishing "no fault_plan argument" from "explicit None".
_UNSET_PLAN = object()


def build_database(
    settings: ExperimentSettings,
    sharing: SharingConfig,
    fault_plan: object = _UNSET_PLAN,
) -> Database:
    """A TPC-H database wired for one experiment mode.

    ``fault_plan`` overrides the plan the settings would derive — the
    cluster layer passes each replica's pre-filtered sub-plan (or None
    when no clause survives the ``replica=`` pin).
    """
    if fault_plan is _UNSET_PLAN:
        fault_plan = settings.fault_plan()
    config = SystemConfig(
        n_cpus=settings.n_cpus,
        pool_pages=settings.pool_pages,
        pool_fraction=settings.pool_fraction,
        policy=settings.policy,
        sharing_policy=settings.sharing_policy,
        disk_scheduler=settings.disk_scheduler,
        n_disks=settings.device_count,
        stripe_extents=settings.stripe_extents,
        push_enabled=settings.push_prefetch,
        agg_strategy=settings.agg_strategy,
        sharing=sharing,
        seed=settings.seed,
        fault_plan=fault_plan,
    )
    return make_tpch_database(config, scale=settings.scale)


def run_mode(
    settings: ExperimentSettings,
    sharing: SharingConfig,
    label: str,
    streams: Optional[Sequence[Sequence[QuerySpec]]] = None,
    stagger_list: Optional[Sequence[float]] = None,
    timeline_buckets: int = 40,
) -> ModeResult:
    """Run one workload under one configuration and collect everything."""
    if sharing.enabled:
        sharing = settings.apply_sharing_overrides(sharing)
    db = build_database(settings, sharing)
    if streams is None:
        streams = tpch_streams(
            settings.n_streams,
            seed=settings.seed,
            query_names=list(settings.query_names) if settings.query_names else None,
        )
    workload = run_workload(
        db, streams, stagger=settings.stagger, stagger_list=stagger_list
    )
    until = max(db.sim.now, 1e-9)
    bucket = until / timeline_buckets
    return ModeResult(
        label=label,
        workload=workload,
        cpu=db.cpu_breakdown(),
        reads_per_bucket=db.disk.stats.pages_read_per_bucket(until, bucket),
        seeks_per_bucket=db.disk.stats.seeks_per_bucket(until, bucket),
        per_stream_elapsed={
            s.stream_id: s.elapsed for s in workload.streams
        },
        per_query_elapsed=workload.query_mean_elapsed(),
        throttle_waits=db.sharing.stats.throttle_waits,
        scans_joined=(
            db.sharing.stats.scans_joined_ongoing
            + db.sharing.stats.scans_joined_last_finished
        ),
    )


def compare_modes(
    settings: ExperimentSettings,
    shared_config: Optional[SharingConfig] = None,
    streams: Optional[Sequence[Sequence[QuerySpec]]] = None,
    stagger_list: Optional[Sequence[float]] = None,
) -> Comparison:
    """Run the same workload under Base and SS configurations."""
    base = run_mode(
        settings, SharingConfig(enabled=False), "Base",
        streams=streams, stagger_list=stagger_list,
    )
    shared = run_mode(
        settings, shared_config or SharingConfig(), "SS",
        streams=streams, stagger_list=stagger_list,
    )
    return Comparison(base=base, shared=shared)
