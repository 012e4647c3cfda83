"""The database facade: one object wiring every subsystem together."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, Optional

from repro.buffer.pool import BufferPool
from repro.buffer.push import PushPipeline
from repro.buffer.replacement import PbmPolicy, PriorityLruPolicy
from repro.core.config import SharingConfig
from repro.core.pbm import PbmScanManager
from repro.core.policy import (
    SHARING_POLICY_NAMES,
    SharingPolicy,
    make_sharing_policy,
)
from repro.disk.array import DiskArray
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry
from repro.engine.costs import CostModel
from repro.engine.run_cache import BoundedCache
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.fields import FieldError, check_fields
from repro.metrics.collector import MetricsCollector
from repro.metrics.cpu import CpuBreakdown, compute_cpu_breakdown
from repro.sim.kernel import Simulator
from repro.sim.resource import Resource
from repro.storage.catalog import Catalog
from repro.storage.schema import TableSchema
from repro.storage.table import Table
from repro.storage.tablespace import Tablespace


@dataclass(frozen=True)
class SystemConfig:
    """Whole-system configuration for one simulated database instance."""

    n_cpus: int = 4
    #: Absolute pool size in pages; None derives it from pool_fraction.
    pool_pages: Optional[int] = None
    #: Pool size as a fraction of the database (the paper used ~5 %),
    #: floored at :attr:`Database.MIN_POOL_PAGES`.
    pool_fraction: float = 0.05
    #: Which scan-sharing strategy coordinates scans (see
    #: :data:`repro.core.policy.SHARING_POLICY_NAMES`).  ``pbm``
    #: additionally replaces the bufferpool victim policy with the
    #: reuse-time-predictive one while sharing is enabled.
    sharing_policy: str = "grouping-throttling"
    disk_scheduler: str = "fifo"
    #: Number of striped spindles; 1 = single disk (the default model).
    n_disks: int = 1
    #: Stripe unit in prefetch extents (``stripe_extents * extent_size``
    #: pages), so one pushed extent always lands on exactly one device.
    stripe_extents: int = 4
    #: Leader-driven push prefetch pipeline.  Off by default: the classic
    #: pull model, byte-identical to a build without the pipeline.
    push_enabled: bool = False
    geometry: DiskGeometry = field(default_factory=DiskGeometry)
    sharing: SharingConfig = field(default_factory=SharingConfig)
    cost: CostModel = field(default_factory=CostModel)
    #: Spill strategy for memory-budgeted aggregation: ``hash`` evicts
    #: one hash partition at a time, ``sort`` sorts the whole in-memory
    #: table into a run (the external sort-aggregate shape).  Only
    #: queries that set a budget are affected.
    agg_strategy: str = "hash"
    #: Pages of simulated temp space for operator spills.  The region is
    #: carved out of the shared device lazily, on the first spill, so
    #: spill-free runs are byte-identical to builds without temp space.
    temp_space_pages: int = 4096
    extent_size: int = 16
    seed: int = 42
    #: Record every scan's visited page order (costs memory; used by the
    #: trace analyzer in :mod:`repro.metrics.access_log`).
    record_page_visits: bool = False
    #: Deterministic fault schedule; None (the default) leaves every
    #: injection point dormant and the system byte-identical to a build
    #: without the fault layer.
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        # Imported here (not at module top) to keep database <-> spill
        # free of an import cycle.
        from repro.engine.spill import AGG_STRATEGIES

        check_fields(self, (
            ("n_cpus", self.n_cpus >= 1, ">= 1"),
            ("pool_fraction", 0.0 < self.pool_fraction <= 1.0, "in (0, 1]"),
            ("extent_size", self.extent_size >= 1, ">= 1"),
            ("n_disks", self.n_disks >= 1, ">= 1"),
            ("stripe_extents", self.stripe_extents >= 1, ">= 1"),
            ("temp_space_pages", self.temp_space_pages >= 1, ">= 1"),
        ))
        for name, spelled, value, known in (
            ("sharing_policy", "sharing policy", self.sharing_policy,
             SHARING_POLICY_NAMES),
            ("agg_strategy", "agg_strategy", self.agg_strategy, AGG_STRATEGIES),
        ):
            if value not in known:
                raise FieldError(
                    name,
                    f"unknown {spelled} {getattr(self, name)!r} "
                    f"(known: {', '.join(known)})",
                    spelled,
                )


class Database:
    """A simulated database instance.

    Usage::

        db = Database(SystemConfig(sharing=SharingConfig(enabled=True)))
        db.create_table(schema, n_pages=1600)
        db.open()
        ... run queries via repro.engine.executor ...
    """

    #: Floor on a pool sized from ``pool_fraction`` (must cover pins +
    #: prefetch runs).
    MIN_POOL_PAGES = 96
    #: Kernel CPU cost attributed per physical I/O request ("system" time).
    IO_SYSCALL_CPU = 20e-6
    #: CPU cost of one sharing-manager call (the paper's sub-1 % overhead).
    MANAGER_CALL_CPU = 2e-6

    def __init__(self, config: Optional[SystemConfig] = None):
        self.config = config or SystemConfig()
        self.sim = Simulator()
        if self.config.n_disks > 1:
            self.disk = DiskArray(
                self.sim,
                n_disks=self.config.n_disks,
                geometry=self.config.geometry,
                stripe_pages=self.config.stripe_extents * self.config.extent_size,
                scheduler=self.config.disk_scheduler,
            )
        else:
            self.disk = Disk(self.sim, self.config.geometry,
                             scheduler=self.config.disk_scheduler)
        self.tablespace = Tablespace(self.config.geometry.total_pages)
        self.catalog = Catalog(self.tablespace)
        self.cpu = Resource(self.sim, self.config.n_cpus, name="cpu")
        self.metrics = MetricsCollector()
        self.cost = self.config.cost
        self._pool: Optional[BufferPool] = None
        self._sharing: Optional[SharingPolicy] = None
        self._push: Optional[PushPipeline] = None
        self.faults: Optional[FaultInjector] = None
        self._temp = None
        #: Classic pipelines' run results and shared scans' speed
        #: estimates, keyed by ``Pipeline.run_key``: pure functions of the
        #: pipeline and this database's data, cost model and geometry.
        self.run_cache = BoundedCache()
        self.speed_estimates = BoundedCache()
        #: The CRC of every integer join-build key a spill or multibuffer
        #: split has partitioned (:func:`repro.engine.spill.key_crcs`).
        self.key_crcs: Dict[object, int] = {}

    # ------------------------------------------------------------------
    # Schema management
    # ------------------------------------------------------------------

    def create_table(
        self, schema: TableSchema, n_pages: int, extent_size: Optional[int] = None
    ) -> Table:
        """Create and register a table (before :meth:`open`)."""
        if self._pool is not None:
            raise RuntimeError("cannot create tables after the database is opened")
        table = Table(
            schema,
            n_pages=n_pages,
            extent_size=extent_size or self.config.extent_size,
            seed=self.config.seed,
        )
        return self.catalog.create_table(table)

    def open(self) -> "Database":
        """Size and build the bufferpool and the sharing manager."""
        if self._pool is not None:
            raise RuntimeError("database already open")
        if len(self.catalog) == 0:
            raise RuntimeError("create at least one table before opening")
        capacity = self.config.pool_pages or max(
            self.MIN_POOL_PAGES,
            int(self.catalog.total_pages * self.config.pool_fraction),
        )
        self._sharing = make_sharing_policy(
            self.config.sharing_policy, self.sim, self.catalog, capacity,
            self.config.sharing,
        )
        if isinstance(self._sharing, PbmScanManager) and self.sharing_enabled:
            # PBM *is* a replacement policy: with sharing on, the pool
            # evicts by predicted reuse time instead of by priority-LRU.
            pool_policy = PbmPolicy(self._sharing)
        else:
            pool_policy = PriorityLruPolicy()
        self._pool = BufferPool(
            self.sim,
            self.disk,
            capacity=capacity,
            address_of=self.catalog.address_of,
            policy=pool_policy,
        )
        if self.config.push_enabled:
            self._push = PushPipeline(
                self.sim,
                self._pool,
                self.catalog,
                self._sharing,
            )
        if self.config.fault_plan is not None:
            self.faults = FaultInjector(self.sim, self.config.fault_plan)
            self.faults.attach(
                disk=self.disk, pool=self._pool, manager=self._sharing,
                push=self._push,
            )
        return self

    @property
    def is_open(self) -> bool:
        """Whether :meth:`open` has been called."""
        return self._pool is not None

    @property
    def pool(self) -> BufferPool:
        """The bufferpool (requires :meth:`open`)."""
        if self._pool is None:
            raise RuntimeError("database not open; call Database.open() first")
        return self._pool

    @property
    def sharing(self) -> SharingPolicy:
        """The scan sharing policy (requires :meth:`open`)."""
        if self._sharing is None:
            raise RuntimeError("database not open; call Database.open() first")
        return self._sharing

    @property
    def push(self) -> Optional[PushPipeline]:
        """The push prefetch pipeline, or None when disabled/not open."""
        return self._push

    @property
    def sharing_enabled(self) -> bool:
        """Whether the sharing mechanism is active."""
        return self.config.sharing.enabled

    @property
    def temp(self):
        """Simulated temp space for operator spills (lazily created).

        The :class:`~repro.engine.memory.TempSpace` object itself is
        cheap; its tablespace region is only carved out on the first
        actual spill, so runs that never spill leave the disk layout —
        and every digest — untouched.
        """
        if self._temp is None:
            from repro.engine.memory import TempSpace

            self._temp = TempSpace(self, self.config.temp_space_pages)
        return self._temp

    # ------------------------------------------------------------------
    # Scan support
    # ------------------------------------------------------------------

    def default_scan_speed_estimate(self, table_name: str) -> float:
        """Optimizer-style pages/second estimate for an I/O-bound scan."""
        del table_name  # same device for every table
        return 1.0 / self.config.geometry.transfer_time(1)

    def charge_cpu(self, seconds: float) -> Generator:
        """Occupy a core for ``seconds`` of simulated CPU."""
        if seconds > 0:
            held = self.cpu.hold(seconds)
            if held is not None:
                yield held

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def cpu_breakdown(self, until: Optional[float] = None) -> CpuBreakdown:
        """iostat-style user/system/idle/iowait fractions over the run."""
        end = until if until is not None else self.sim.now
        io_requests = self.disk.stats.reads + self.disk.stats.writes
        return compute_cpu_breakdown(
            self.cpu.busy_timeline,
            self.disk.outstanding_timeline,
            cores=self.config.n_cpus,
            until=end,
            io_requests=io_requests,
            syscall_cost=self.IO_SYSCALL_CPU,
        )
