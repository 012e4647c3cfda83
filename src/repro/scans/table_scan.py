"""The table scan operator: the vanilla loop plus the sharing hooks.

There is one scan loop.  Without a sharing manager it is the paper's
"Base" configuration: read the range front to back, release every page
with NORMAL priority.  With one it is the paper's modified scan logic —
the vanilla loop plus the bold lines of the pseudo-code:

1. it registers with the scan sharing manager, which may place its start
   *inside* the range (it then wraps around);
2. every ``update_interval_pages`` pages it reports its location — the
   manager may answer with a throttle wait, which the scan serves before
   continuing (the call "simply appears to take a longer time");
3. each page is released with the manager-chosen priority instead of a
   fixed one.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, Generator, Optional, Sequence

import numpy as np

from repro.buffer.page import Priority
from repro.core.scan_state import ScanDescriptor
from repro.faults.injector import ScanKilled
from repro.scans.base import ScanResult, scan_runs
from repro.storage.datagen import PageData

#: Per-run callback ``(first_page, batch, page_rows) -> cpu seconds``:
#: ``batch`` holds the rows of consecutive pages of one extent back to
#: back, ``page_rows[i]`` of them on page ``first_page + i``.  The
#: result is indexed once per page, in order, when the scan reaches that
#: page — so it may be a plain list or a
#: :class:`~repro.scans.base.LazyPages`.
OnRun = Callable[[int, PageData, np.ndarray], Sequence[float]]


@lru_cache(maxsize=None)
def uniform_page_rows(n_pages: int, rows_per_page: int) -> np.ndarray:
    """The ``page_rows`` of a run of full pages (shared, read-only)."""
    page_rows = np.full(n_pages, rows_per_page, dtype=np.int64)
    page_rows.flags.writeable = False
    return page_rows


class TableScan:
    """Scan of a page range, optionally coordinated by a sharing manager.

    Args:
        database: Execution context exposing ``sim``, ``pool``, ``cpu``,
            ``catalog`` (duck-typed; see :class:`repro.engine.database.Database`).
        table_name: Table to scan.
        first_page / last_page: Inclusive page range.
        on_run: Invoked once per extent run with all its rows
            (:data:`OnRun`); returns the CPU seconds to charge per page.
        record_visits: Keep the visited page order in the result (tests).
        sharing: The scan sharing manager to coordinate with, or ``None``
            for the vanilla scan: start at ``first_page``, release with
            ``Priority.NORMAL``, no manager, fault or push call.
        estimated_speed: Pages/second the manager should expect (shared
            scans only; defaults to the database's I/O-bound estimate).
    """

    def __init__(
        self,
        database: Any,
        table_name: str,
        first_page: int,
        last_page: int,
        on_run: OnRun,
        record_visits: bool = False,
        sharing: Any = None,
        estimated_speed: Optional[float] = None,
    ):
        self.db = database
        self.table = database.catalog.table(table_name)
        if not 0 <= first_page <= last_page < self.table.n_pages:
            raise ValueError(
                f"bad scan range [{first_page}, {last_page}] on table "
                f"{table_name!r} of {self.table.n_pages} pages"
            )
        self.first_page = first_page
        self.last_page = last_page
        self.on_run = on_run
        self.record_visits = record_visits
        self.sharing = sharing
        self.estimated_speed = estimated_speed

    def run(self) -> Generator:
        """Simulation process body; returns a :class:`ScanResult`.

        The loop walks the range one extent run at a time: page keys are
        looked up once per extent and the operators see a run's rows as
        one batch (asked for when the run's first page is pinned).
        Everything the simulation observes stays per page and in the
        naive order — resident pages are pinned through the pool's
        non-generator :meth:`~repro.buffer.pool.BufferPool.try_fix` fast
        path (:meth:`~repro.buffer.pool.BufferPool.fix` is only driven on
        a miss or an in-flight wait), each page's CPU cost is charged
        while it is pinned, and it is released before the next one is
        fixed.
        """
        db = self.db
        sim = db.sim
        pool = db.pool
        hold = db.cpu.hold
        table = self.table
        on_run = self.on_run
        try_fix = pool.try_fix
        extent_keys_of = db.catalog.extent_keys
        extent_size = table.extent_size
        rows_per_page = table.schema.rows_per_page
        record_visits = self.record_visits
        first_page = self.first_page
        last_page = self.last_page
        # The sharing hooks, bound once.  An unshared scan leaves them
        # unset and pays a local ``is None`` test per page, never a call.
        manager = self.sharing
        start_page = first_page
        normal = Priority.NORMAL
        scan_id = interval = 0
        page_priority = kill_check = push = None
        if manager is not None:
            state = manager.start_scan(ScanDescriptor(
                table_name=table.name,
                first_page=first_page,
                last_page=last_page,
                estimated_speed=self.estimated_speed
                or db.default_scan_speed_estimate(table.name),
            ))
            yield from db.charge_cpu(db.config.manager_call_overhead_cpu)
            scan_id = state.scan_id
            start_page = state.start_page
            interval = manager.config.update_interval_pages
            # The release priority stays a per-page manager call because
            # grouping changes it mid-scan.
            page_priority = manager.page_priority
            faults = getattr(db, "faults", None)
            if faults is not None:
                kill_check = faults.maybe_kill_scan
            push = getattr(db, "push", None)
        result = ScanResult(
            table_name=table.name,
            first_page=first_page,
            last_page=last_page,
            start_page=start_page,
            started_at=sim.now,
        )
        visited_pages = result.visited_pages
        pages_done = 0
        cpu_total = 0.0
        extent_no = -1
        extent_keys: Sequence = ()
        try:
            for run_first, run_stop in scan_runs(
                first_page, last_page, start_page, extent_size
            ):
                run_extent = run_first // extent_size
                key_offset = run_extent * extent_size
                seconds = None
                for page_no in range(run_first, run_stop):
                    if kill_check is not None:
                        # Checked before the page is pinned, so a kill never
                        # leaks a fixed frame.
                        kill_check(manager, scan_id, pages_done)
                    if run_extent != extent_no:
                        # (A wrap inside one extent starts a new run but
                        # continues the extent.)
                        extent_no = run_extent
                        extent_keys = extent_keys_of(table.name, extent_no)
                        if push is not None:
                            # Crossing an extent boundary announces the scan's
                            # pipeline window; only the consumer set's driver
                            # actually issues pushes.
                            push.on_extent_entered(
                                scan_id, table, extent_no, first_page, last_page
                            )
                    key = extent_keys[page_no - key_offset]
                    frame = try_fix(key)
                    if frame is None:
                        frame = yield from pool.fix(key, prefetch=extent_keys)
                    assert frame.key == key
                    try:
                        if seconds is None:
                            n_pages = run_stop - run_first
                            seconds = on_run(
                                run_first,
                                table.run_data(run_first, n_pages),
                                uniform_page_rows(n_pages, rows_per_page),
                            )
                        cpu_seconds = seconds[page_no - run_first]
                        if cpu_seconds > 0:
                            # None: served inline, the clock already moved.
                            held = hold(cpu_seconds)
                            if held is not None:
                                yield held
                    finally:
                        # Never leak a pin, even when page processing raises.
                        pool.unfix(
                            key,
                            normal if page_priority is None
                            else page_priority(scan_id),
                        )
                    pages_done += 1
                    cpu_total += cpu_seconds
                    if record_visits:
                        visited_pages.append(page_no)
                    if interval and pages_done % interval == 0:
                        yield from self._report_location(
                            manager, scan_id, pages_done, result
                        )
            if interval and pages_done % interval != 0:
                yield from self._report_location(
                    manager, scan_id, pages_done, result
                )
        except ScanKilled:
            # The injector struck: record the partial result and die
            # without end_scan — abort_scan is the manager's cleanup
            # path for members that vanish mid-group.
            result.aborted = True
        finally:
            result.pages_scanned = pages_done
            result.rows_seen = pages_done * rows_per_page
            result.cpu_seconds = cpu_total
            if manager is not None:
                if result.aborted:
                    manager.abort_scan(scan_id)
                else:
                    manager.end_scan(scan_id)
        result.finished_at = sim.now
        return result

    def _report_location(
        self, manager: Any, scan_id: int, pages_done: int, result: ScanResult
    ) -> Generator:
        db = self.db
        wait = manager.update_location(scan_id, pages_done)
        yield from db.charge_cpu(db.config.manager_call_overhead_cpu)
        if wait > 0:
            result.throttle_seconds += wait
            yield db.sim.timeout(wait)
