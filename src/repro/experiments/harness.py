"""Common machinery for running Base-vs-SS comparisons."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import SharingConfig
from repro.engine.database import Database, SystemConfig
from repro.faults.plan import FaultPlan, FaultSpecError
from repro.engine.executor import WorkloadResult, run_workload
from repro.engine.query import QuerySpec
from repro.engine.spill import AGG_STRATEGIES
from repro.fields import FieldError, check_fields, parse_assignments
from repro.metrics.cpu import CpuBreakdown
from repro.metrics.report import format_table, percent_gain
from repro.workloads.streams import tpch_streams
from repro.workloads.tpch_schema import TPCH_BASE_PAGES, make_tpch_database


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs shared by all experiments.

    ``scale`` trades fidelity for runtime: 1.0 is the headline
    configuration (lineitem 1600 pages, pool ≈ 5 %); the default of 0.25
    (the paper bands' scale) keeps the whole suite to minutes.  Every
    field is part of the result-cache key, and every single-valued one
    can be swept with ``repro sweep --param <field>``.  The CLI's flags
    take their types, defaults and choices from these fields.
    """

    scale: float = 0.25
    n_streams: int = 5
    seed: int = 42
    query_names: Optional[Sequence[str]] = None
    #: Scan-sharing strategy for the shared mode (see
    #: :data:`repro.core.policy.SHARING_POLICY_NAMES`).
    sharing_policy: str = "grouping-throttling"
    disk_scheduler: str = "fifo"
    #: Striped spindles backing the tablespace (1 = the single-disk model).
    device_count: int = 1
    #: Stripe unit in prefetch extents (None keeps SystemConfig's
    #: default).
    stripe_extents: Optional[int] = None
    #: Leader-driven push prefetch pipeline (see
    #: :mod:`repro.buffer.push`); off = classic pull.
    push_prefetch: bool = False
    #: Explicit pool size in pages; overrides SystemConfig's pool_fraction
    #: (and its minimum-pool floor) when set.
    pool_pages: Optional[int] = None
    #: SharingConfig field overrides applied to the *shared* mode: a dict,
    #: pairs or ``key=value,...`` text, stored as a sorted tuple of
    #: (field, value) pairs so the settings object stays hashable.
    sharing_overrides: Optional[Tuple[Tuple[str, Any], ...]] = None
    #: Spill strategy for memory-budgeted aggregation steps (see
    #: :data:`repro.engine.spill.AGG_STRATEGIES`): ``hash`` or ``sort``.
    #: Only the ``ag-*``/``mj-*`` experiments have budgeted steps; the
    #: classic templates ignore it.
    agg_strategy: str = field(default="hash",
                              metadata={"choices": AGG_STRATEGIES})
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

    def __post_init__(self) -> None:
        """Check every field; a bad value raises ``FieldError`` naming it."""
        check_fields(self, (
            (name, getattr(self, name) is None or getattr(self, name) > 0, need)
            for name, need in _POSITIVE_FIELDS
        ))
        overrides = self.sharing_overrides
        try:
            if isinstance(overrides, str):
                overrides = parse_assignments(SharingConfig, overrides)
            overrides = tuple(sorted(dict(overrides or ()).items()))
            object.__setattr__(self, "sharing_overrides", overrides or None)
            sharing = SharingConfig(**dict(overrides))
        except (TypeError, ValueError) as exc:
            raise FieldError(
                "sharing_overrides", f"sharing_overrides field {exc}"
            ) from None
        try:
            self.system_config(sharing, self.fault_plan())
        except FaultSpecError as exc:
            raise FieldError(
                "fault_spec", f"bad fault spec: {exc}", "fault"
            ) from None
        except FieldError as exc:
            setting = next(name for name, target in _SYSTEM_FIELDS.items()
                           if target == exc.field)
            raise FieldError(setting, exc.naming(setting)) from None

    def with_(self, **changes) -> "ExperimentSettings":
        """A modified (and re-checked) copy."""
        return replace(self, **changes)

    def fault_plan(self) -> Optional[FaultPlan]:
        """The parsed fault plan these settings describe, if any."""
        if self.fault_spec is None:
            return None
        return FaultPlan.from_spec(self.fault_spec, seed=self.seed)

    def system_config(
        self, sharing: SharingConfig, fault_plan: Optional[FaultPlan]
    ) -> SystemConfig:
        """The :class:`SystemConfig` these settings describe; a setting
        left None keeps SystemConfig's default."""
        values = {
            target: getattr(self, name)
            for name, target in _SYSTEM_FIELDS.items()
            if getattr(self, name) is not None
        }
        return SystemConfig(sharing=sharing, fault_plan=fault_plan, **values)


#: Settings that must be positive when set, with how the check reads.
_POSITIVE_FIELDS = (
    ("scale", "positive"), ("n_streams", ">= 1"),
    ("service_horizon", "positive"), ("cluster_replicas", ">= 1"),
    ("cluster_users", ">= 1"),
)

#: The SystemConfig field each system setting sets.
_SYSTEM_FIELDS = {
    "pool_pages": "pool_pages",
    "sharing_policy": "sharing_policy", "disk_scheduler": "disk_scheduler",
    "device_count": "n_disks", "stripe_extents": "stripe_extents",
    "push_prefetch": "push_enabled", "agg_strategy": "agg_strategy",
    "seed": "seed",
}


@dataclass
class ModeResult:
    """Everything measured for one mode (Base or SS) of one experiment.

    The one per-mode record of every experiment: each table reads the
    projection it needs (``policy_row()``, ``operator_totals()``,
    ``per_device``) instead of copying fields into a record of its own.
    """

    label: str
    workload: WorkloadResult
    cpu: CpuBreakdown
    reads_per_bucket: List[float] = field(default_factory=list)
    seeks_per_bucket: List[float] = field(default_factory=list)
    per_stream_elapsed: Dict[int, float] = field(default_factory=dict)
    per_query_elapsed: Dict[str, float] = field(default_factory=dict)
    throttle_waits: int = 0
    scans_joined: int = 0
    queries: int = 0
    pushed_pages: int = 0
    push_deliveries: int = 0
    #: One row per spindle (a single disk yields one row): requests,
    #: pages, seeks, busy time.
    per_device: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        return self.workload.makespan

    @property
    def pages_read(self) -> int:
        return self.workload.pages_read

    @property
    def seeks(self) -> int:
        return self.workload.seeks

    @property
    def throughput_qps(self) -> float:
        """Queries finished per simulated second."""
        if self.makespan <= 0:
            return 0.0
        return self.queries / self.makespan

    def policy_row(self, base: Optional["ModeResult"] = None) -> Dict[str, Any]:
        """One row of a sharing-policy table (see
        :func:`~repro.metrics.report.format_policy_table`), labelled by
        ``label``; with gain columns when a baseline is given."""
        row: Dict[str, Any] = {
            "policy": self.label,
            "makespan": self.makespan,
            "pages_read": self.pages_read,
            "seeks": self.seeks,
            "hit_percent": 100.0 * self.workload.buffer_hit_ratio,
            "throttle_waits": self.throttle_waits,
            "scans_joined": self.scans_joined,
            "throttle_seconds": self.workload.throttle_seconds,
        }
        if base is not None:
            row["end_to_end_gain_percent"] = percent_gain(
                base.makespan, self.makespan
            )
            row["disk_read_gain_percent"] = percent_gain(
                float(base.pages_read), float(self.pages_read)
            )
        return row

    def operator_totals(self) -> Dict[str, float]:
        """Summed operator counters over every query of this run."""
        totals: Dict[str, float] = {}
        for stream in self.workload.streams:
            for query in stream.queries:
                for key, value in query.operator_stats().items():
                    totals[key] = totals.get(key, 0) + value
        return totals


@dataclass
class Comparison:
    """A matched Base/SS pair with the paper's three headline gains.

    E4 returns one as is; its ``render()`` is the Table-1 row.
    """

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

    def metrics(self) -> Dict[str, Any]:
        """The headline numbers of the pair."""
        return {
            "base_makespan": self.base.makespan,
            "shared_makespan": self.shared.makespan,
            "base_pages_read": self.base.pages_read,
            "shared_pages_read": self.shared.pages_read,
            "base_seeks": self.base.seeks,
            "shared_seeks": self.shared.seeks,
            "end_to_end_gain_percent": self.end_to_end_gain,
            "disk_read_gain_percent": self.disk_read_gain,
            "disk_seek_gain_percent": self.disk_seek_gain,
        }

    def render(self) -> str:
        rows = [[
            f"{self.end_to_end_gain:.0f}%",
            f"{self.disk_read_gain:.0f}%",
            f"{self.disk_seek_gain:.0f}%",
        ]]
        return format_table(
            ["End-to-end gain", "Avg. disk read gain", "Avg. disk seek gain"],
            rows,
        )


def expected_table_pages(settings: ExperimentSettings, name: str) -> int:
    """Page count a table will get at these settings (mirrors the
    sizing logic in :func:`repro.workloads.tpch_schema.make_tpch_database`)."""
    return max(SystemConfig.extent_size,
               int(TPCH_BASE_PAGES[name] * settings.scale))


def expected_pool_pages(settings: ExperimentSettings) -> int:
    """Bufferpool size the database will get at these settings."""
    total = sum(expected_table_pages(settings, name) for name in TPCH_BASE_PAGES)
    return max(Database.MIN_POOL_PAGES, int(total * SystemConfig.pool_fraction))


#: Sentinel distinguishing "no fault_plan argument" from "explicit None".
_UNSET_PLAN = object()


def build_database(
    settings: ExperimentSettings,
    sharing: SharingConfig,
    fault_plan: object = _UNSET_PLAN,
) -> Database:
    """A TPC-H database wired for one experiment mode.

    A sharing-enabled ``sharing`` gets the settings' ``sharing_overrides``.
    ``fault_plan`` overrides the plan the settings would derive — the
    cluster layer passes each replica's pre-filtered sub-plan (or None
    when no clause survives the ``replica=`` pin).
    """
    if sharing.enabled:
        sharing = replace(sharing, **dict(settings.sharing_overrides or ()))
    if fault_plan is _UNSET_PLAN:
        fault_plan = settings.fault_plan()
    config = settings.system_config(sharing, fault_plan)
    return make_tpch_database(config, scale=settings.scale)


def run_mode(
    settings: ExperimentSettings,
    sharing: SharingConfig,
    label: str,
    streams: Optional[Sequence[Sequence[QuerySpec]]] = None,
    stagger_list: Optional[Sequence[float]] = None,
    timeline_buckets: int = 40,
) -> ModeResult:
    """Run one workload under one configuration and collect everything.

    The only place an experiment builds a database and runs a workload.
    """
    db = build_database(settings, sharing)
    if streams is None:
        streams = tpch_streams(
            settings.n_streams,
            seed=settings.seed,
            query_names=list(settings.query_names) if settings.query_names else None,
        )
    workload = run_workload(db, streams, stagger_list=stagger_list)
    until = max(db.sim.now, 1e-9)
    bucket = until / timeline_buckets
    disks = getattr(db.disk, "disks", None) or [db.disk]
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
        queries=sum(len(stream) for stream in streams),
        pushed_pages=db.pool.stats.pushed_pages,
        push_deliveries=db.push.stats.deliveries if db.push is not None else 0,
        per_device=[
            {
                "device": disk.device_index,
                "reads": disk.stats.reads,
                "pages_read": disk.stats.pages_read,
                "seeks": disk.stats.seeks,
                "busy_time": disk.stats.busy_time,
            }
            for disk in disks
        ],
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
