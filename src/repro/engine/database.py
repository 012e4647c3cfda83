"""The database facade: one object wiring every subsystem together."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.buffer.pool import BufferPool
from repro.buffer.push import PushPipeline
from repro.buffer.replacement import make_policy
from repro.buffer.replacement.pbm import PbmPolicy
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
    policy: str = "priority-lru"
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
        if self.n_cpus < 1:
            raise ValueError(f"n_cpus must be >= 1, got {self.n_cpus}")
        if not 0.0 < self.pool_fraction <= 1.0:
            raise ValueError(
                f"pool_fraction must be in (0, 1], got {self.pool_fraction}"
            )
        if self.extent_size < 1:
            raise ValueError(f"extent_size must be >= 1, got {self.extent_size}")
        if self.n_disks < 1:
            raise ValueError(f"n_disks must be >= 1, got {self.n_disks}")
        if self.stripe_extents < 1:
            raise ValueError(
                f"stripe_extents must be >= 1, got {self.stripe_extents}"
            )
        if self.sharing_policy not in SHARING_POLICY_NAMES:
            raise ValueError(
                f"unknown sharing policy {self.sharing_policy!r}; "
                f"known: {SHARING_POLICY_NAMES}"
            )
        # Imported here (not at module top) to keep database <-> spill
        # free of an import cycle.
        from repro.engine.spill import AGG_STRATEGIES

        if self.agg_strategy not in AGG_STRATEGIES:
            raise ValueError(
                f"unknown agg_strategy {self.agg_strategy!r}; "
                f"known: {AGG_STRATEGIES}"
            )
        if self.temp_space_pages < 1:
            raise ValueError(
                f"temp_space_pages must be >= 1, got {self.temp_space_pages}"
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
        self._block_indexes: dict = {}
        self._index_managers: dict = {}
        #: Classic pipelines' run results and shared steps' speed
        #: estimates, keyed by ``ScanStep.run_key``: pure functions of the
        #: step and this database's data, cost model and geometry.
        self.run_cache = BoundedCache()
        self.speed_estimates = BoundedCache()

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
        if (
            self.config.sharing_policy == "pbm"
            and self.config.sharing.enabled
        ):
            # PBM *is* a replacement policy: with sharing on, the pool
            # evicts by predicted reuse time instead of config.policy.
            pool_policy = make_policy("pbm", capacity)
        else:
            pool_policy = make_policy(self.config.policy, capacity)
        if isinstance(pool_policy, PbmPolicy) and isinstance(
            self._sharing, PbmScanManager
        ):
            pool_policy.bind(self._sharing)
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
                disk=self.disk, pool=self._pool, manager=self._sharing
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
    # Block indexes (MDC-style; used by index-scan query steps)
    # ------------------------------------------------------------------

    def create_block_index(
        self, table_name: str, block_size_pages: Optional[int] = None,
        scatter: bool = True,
    ):
        """Create an MDC-style block index over a table.

        ``scatter=True`` (default) models out-of-order inserts: entries
        are key-ordered but blocks are spread across the table, so index
        scans produce the non-sequential access pattern the SISCAN
        machinery exists for.
        """
        from repro.extensions.index_sharing.index import BlockIndex

        if table_name in self._block_indexes:
            raise ValueError(f"table {table_name!r} already has a block index")
        table = self.catalog.table(table_name)
        index = BlockIndex(
            table,
            block_size_pages=block_size_pages or self.config.extent_size,
            scatter=scatter,
            scatter_seed=self.config.seed,
        )
        self._block_indexes[table_name] = index
        return index

    def block_index(self, table_name: str):
        """The table's block index (raises if none was created)."""
        try:
            return self._block_indexes[table_name]
        except KeyError:
            raise KeyError(
                f"no block index on {table_name!r}; call create_block_index"
            ) from None

    def index_sharing_manager(self, table_name: str):
        """The (lazily created) ISM coordinating SISCANs on one index."""
        from repro.extensions.index_sharing.manager import IndexScanSharingManager

        if table_name not in self._index_managers:
            index = self.block_index(table_name)
            self._index_managers[table_name] = IndexScanSharingManager(
                self.sim,
                pages_per_entry=index.block_size_pages,
                pool_capacity=self.pool.capacity,
                config=self.config.sharing,
            )
        return self._index_managers[table_name]

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
