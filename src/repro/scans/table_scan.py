"""The vanilla table scan operator (the paper's "Base" configuration)."""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, Generator, Optional, Sequence

import numpy as np

from repro.buffer.page import Priority
from repro.scans.base import LazyPages, ScanResult, scan_runs
from repro.storage.datagen import PageData

#: Per-page callback ``(page_no, page_data, n_rows) -> cpu_seconds``.
#: The scan passes the row count explicitly — a pipeline must not infer
#: it from a column, since projection pushdown can compact a page to
#: zero columns.
OnPage = Callable[[int, PageData, int], float]

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


def run_consumer(
    table: Any, on_page: Optional[OnPage], on_run: Optional[OnRun]
) -> OnRun:
    """The run callback a scan drives: ``on_run`` itself, or ``on_page``
    invoked for each page at the moment the scan reaches it."""
    if (on_page is None) == (on_run is None):
        raise ValueError("a scan needs exactly one of on_page / on_run")
    if on_run is not None:
        return on_run

    def page_by_page(first_page: int, batch: PageData, page_rows: np.ndarray):
        del batch
        return LazyPages(lambda index: on_page(
            first_page + index,
            table.page_data(first_page + index),
            int(page_rows[index]),
        ))

    return page_by_page


class TableScan:
    """Sequential scan of a page range with fixed release priority.

    Mirrors the paper's IXSCAN-analog for tables: loop over the range in
    order, perform per-page work, release each page with a fixed
    priority.  No sharing-manager interaction whatsoever.

    Args:
        database: Execution context exposing ``sim``, ``pool``, ``cpu``,
            ``catalog`` (duck-typed; see :class:`repro.engine.database.Database`).
        table_name: Table to scan.
        first_page / last_page: Inclusive page range.
        on_page: Callback invoked with ``(page_no, page_data, n_rows)``;
            returns the CPU seconds to charge for processing that page.
        record_visits: Keep the visited page order in the result (tests).
        on_run: Given instead of ``on_page`` (:data:`OnRun`): invoked once
            per extent run with all its rows; returns the CPU seconds to
            charge per page.
    """

    def __init__(
        self,
        database: Any,
        table_name: str,
        first_page: int,
        last_page: int,
        on_page: Optional[OnPage] = None,
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

    def run(self) -> Generator:
        """Simulation process body; returns a :class:`ScanResult`.

        The loop walks the range one extent run at a time: page keys are
        looked up once per extent, the operators see a run's rows as one
        batch (asked for when the run's first page is pinned), and the
        release priority is computed once per scan.  Everything the
        simulation observes stays per page and in the naive order —
        resident pages are pinned through the pool's non-generator
        :meth:`~repro.buffer.pool.BufferPool.try_fix` fast path
        (:meth:`~repro.buffer.pool.BufferPool.fix` is only driven on a
        miss or an in-flight wait), each page's CPU cost is charged while
        it is pinned, and it is released before the next one is fixed —
        so every metric digest is unchanged.
        """
        db = self.db
        sim = db.sim
        pool = db.pool
        cpu = db.cpu
        table = self.table
        on_run = self.on_run
        try_fix = pool.try_fix
        extent_keys_of = db.catalog.extent_keys
        extent_size = table.extent_size
        rows_per_page = table.schema.rows_per_page
        priority = self._release_priority()
        record_visits = self.record_visits
        result = ScanResult(
            table_name=table.name,
            first_page=self.first_page,
            last_page=self.last_page,
            start_page=self.first_page,
            started_at=sim.now,
        )
        for run_first, run_stop in scan_runs(
            self.first_page, self.last_page, self.first_page, extent_size
        ):
            extent_no = run_first // extent_size
            extent_keys = extent_keys_of(table.name, extent_no)
            key_offset = extent_no * extent_size
            seconds = None
            for page_no in range(run_first, run_stop):
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
                    pool.unfix(key, priority)
                result.pages_scanned += 1
                result.rows_seen += rows_per_page
                result.cpu_seconds += cpu_seconds
                if record_visits:
                    result.visited_pages.append(page_no)
        result.finished_at = sim.now
        return result

    def _release_priority(self) -> Priority:
        return Priority.NORMAL
