"""QPipe-style attach/detach scan sharing — the related-work baseline.

Harizopoulos et al. (SIGMOD 2005) propose one continuously circulating
scan per table; queries *attach* to it at its current position, consume
every page it produces, and detach once they have seen a full circle.
The paper under reproduction argues this works well only for scans of
similar speeds: the shared producer must run at the pace of its slowest
consumer (or drift splits the group), while grouping + throttling keeps
fast scans' delay bounded by the fairness cap.

This module implements the attach model faithfully enough to measure
that trade-off: a per-table circular daemon that fixes pages and
synchronously delivers each page to all attached consumers, so the
effective group speed is the slowest consumer's.  The scheduler ablation
``bench_a8_attach.py`` compares it against both the vanilla engine and
the paper's mechanism under homogeneous and heterogeneous consumer
speeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator

from repro.buffer.page import Priority
from repro.scans.base import ScanResult
from repro.scans.table_scan import OnRun, uniform_page_rows


@dataclass
class _Consumer:
    """One attached query-side consumer."""

    consumer_id: int
    on_run: OnRun
    pages_needed: int
    pages_seen: int = 0
    attached_at: float = 0.0
    result: ScanResult = None  # type: ignore[assignment]
    done_event: Any = None

    @property
    def finished(self) -> bool:
        return self.pages_seen >= self.pages_needed


class CircularScanDaemon:
    """A per-table circular scan that broadcasts pages to consumers."""

    def __init__(self, database: Any, table_name: str):
        self.db = database
        self.table = database.catalog.table(table_name)
        self._consumers: Dict[int, _Consumer] = {}
        self._next_consumer_id = 0
        self._position = 0  # next page to produce
        self._running = False

    @property
    def active_consumers(self) -> int:
        """Number of currently attached consumers."""
        return len(self._consumers)

    @property
    def position(self) -> int:
        """The page the daemon will produce next."""
        return self._position

    def attach(self, on_run: OnRun) -> _Consumer:
        """Attach a consumer at the daemon's current position."""
        consumer = _Consumer(
            consumer_id=self._next_consumer_id,
            on_run=on_run,
            pages_needed=self.table.n_pages,
            attached_at=self.db.sim.now,
            result=ScanResult(
                table_name=self.table.name,
                first_page=0,
                last_page=self.table.n_pages - 1,
                start_page=self._position,
                started_at=self.db.sim.now,
            ),
            done_event=self.db.sim.event(),
        )
        self._next_consumer_id += 1
        self._consumers[consumer.consumer_id] = consumer
        if not self._running:
            self._running = True
            self.db.sim.spawn(self._run(), name=f"daemon-{self.table.name}")
        return consumer

    def _run(self) -> Generator:
        db = self.db
        table = self.table
        rows_per_page = table.schema.rows_per_page
        page_rows = uniform_page_rows(1, rows_per_page)
        while self._consumers:
            page_no = self._position
            extent_no = table.extent_of(page_no)
            prefetch = db.catalog.extent_keys(table.name, extent_no)
            key = prefetch[page_no - extent_no * table.extent_size]
            frame = yield from db.pool.fix(key, prefetch=prefetch)
            assert frame.key == key
            try:
                data = table.page_data(page_no)
                # Synchronous broadcast: every attached consumer processes
                # the page before the daemon moves on — the group advances
                # at the slowest consumer's pace (the model the paper's
                # throttling is the answer to).
                for consumer in list(self._consumers.values()):
                    cpu_seconds = consumer.on_run(page_no, data, page_rows)[0]
                    if cpu_seconds > 0:
                        yield db.cpu.acquire()
                        try:
                            yield db.sim.timeout(cpu_seconds)
                        finally:
                            db.cpu.release()
                    consumer.pages_seen += 1
                    consumer.result.pages_scanned += 1
                    consumer.result.rows_seen += rows_per_page
                    consumer.result.cpu_seconds += cpu_seconds
                    if consumer.finished:
                        consumer.result.finished_at = db.sim.now
                        del self._consumers[consumer.consumer_id]
                        consumer.done_event.succeed(consumer.result)
            finally:
                db.pool.unfix(key, Priority.NORMAL)
            self._position = (self._position + 1) % table.n_pages
        self._running = False


class AttachScanManager:
    """Facade: one circular daemon per table, attach-style full scans."""

    def __init__(self, database: Any):
        self.db = database
        self._daemons: Dict[str, CircularScanDaemon] = {}

    def daemon(self, table_name: str) -> CircularScanDaemon:
        """The (lazily created) daemon for a table."""
        if table_name not in self._daemons:
            self._daemons[table_name] = CircularScanDaemon(self.db, table_name)
        return self._daemons[table_name]

    def scan(self, table_name: str, on_run: OnRun) -> Generator:
        """Attach to the table's daemon and wait for a full circle.

        Simulation generator: drive with ``yield from``; returns the
        consumer's :class:`~repro.scans.base.ScanResult`.
        """
        consumer = self.daemon(table_name).attach(on_run)
        result = yield consumer.done_event
        return result
