"""The sharing table scan operator — the paper's modified scan logic.

Differences from the vanilla :class:`~repro.scans.table_scan.TableScan`
(the bold lines of the paper's pseudo-code):

1. it registers with the scan sharing manager, which may place its start
   *inside* the range (it then wraps around);
2. every ``update_interval_pages`` pages it reports its location — the
   manager may answer with a throttle wait, which the scan serves before
   continuing (the call "simply appears to take a longer time");
3. each page is released with the manager-chosen priority instead of a
   fixed one.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from repro.core.scan_state import ScanDescriptor
from repro.faults.injector import ScanKilled
from repro.scans.base import ScanResult, scan_runs
from repro.scans.table_scan import OnPage, OnRun, run_consumer, uniform_page_rows


class SharedTableScan:
    """Wrap-around scan coordinated by the scan sharing manager."""

    def __init__(
        self,
        database: Any,
        table_name: str,
        first_page: int,
        last_page: int,
        on_page: Optional[OnPage] = None,
        estimated_speed: Optional[float] = None,
        record_visits: bool = False,
        on_run: Optional[OnRun] = None,
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
        self.on_run = run_consumer(self.table, on_page, on_run)
        self.record_visits = record_visits
        self.estimated_speed = estimated_speed or database.default_scan_speed_estimate(
            table_name
        )

    def run(self) -> Generator:
        """Simulation process body; returns a :class:`ScanResult`."""
        db = self.db
        manager = db.sharing
        descriptor = ScanDescriptor(
            table_name=self.table.name,
            first_page=self.first_page,
            last_page=self.last_page,
            estimated_speed=self.estimated_speed,
        )
        state = manager.start_scan(descriptor)
        yield from db.charge_manager_call_overhead()
        result = ScanResult(
            table_name=self.table.name,
            first_page=self.first_page,
            last_page=self.last_page,
            start_page=state.start_page,
            started_at=db.sim.now,
        )
        interval = manager.config.update_interval_pages
        scan_id = state.scan_id
        pages_done = 0
        # Hot-loop locals: one lookup per scan, not one per page.  Keys
        # are looked up once per extent and the operators see each extent
        # run as one batch; the release priority stays a per-page manager
        # call because grouping changes it mid-scan.
        sim = db.sim
        pool = db.pool
        cpu = db.cpu
        table = self.table
        on_run = self.on_run
        try_fix = pool.try_fix
        extent_keys_of = db.catalog.extent_keys
        page_priority = manager.page_priority
        extent_size = table.extent_size
        rows_per_page = table.schema.rows_per_page
        record_visits = self.record_visits
        faults = getattr(db, "faults", None)
        push = getattr(db, "push", None)
        first_page = self.first_page
        last_page = self.last_page
        extent_no = -1
        extent_keys: List = []
        try:
            for run_first, run_stop in scan_runs(
                first_page, last_page, state.start_page, extent_size
            ):
                run_extent = run_first // extent_size
                key_offset = run_extent * extent_size
                seconds = None
                for page_no in range(run_first, run_stop):
                    if faults is not None:
                        # Checked before the page is pinned, so a kill never
                        # leaks a fixed frame.
                        faults.maybe_kill_scan(manager, scan_id, pages_done)
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
                            yield cpu.acquire()
                            try:
                                yield sim.timeout(cpu_seconds)
                            finally:
                                cpu.release()
                    finally:
                        # Never leak a pin, even when page processing raises.
                        pool.unfix(key, page_priority(scan_id))
                    result.pages_scanned += 1
                    result.rows_seen += rows_per_page
                    result.cpu_seconds += cpu_seconds
                    if record_visits:
                        result.visited_pages.append(page_no)
                    pages_done += 1
                    if pages_done % interval == 0:
                        yield from self._report_location(scan_id, pages_done, result)
            if pages_done % interval != 0:
                yield from self._report_location(scan_id, pages_done, result)
        except ScanKilled:
            # The injector struck: record the partial result and die
            # without end_scan — abort_scan is the manager's cleanup
            # path for members that vanish mid-group.
            result.aborted = True
        finally:
            if result.aborted:
                manager.abort_scan(scan_id)
            else:
                manager.end_scan(scan_id)
        result.finished_at = db.sim.now
        return result

    def _report_location(
        self, scan_id: int, pages_done: int, result: ScanResult
    ) -> Generator:
        db = self.db
        wait = db.sharing.update_location(scan_id, pages_done)
        yield from db.charge_manager_call_overhead()
        if wait > 0:
            result.throttle_seconds += wait
            yield db.sim.timeout(wait)
