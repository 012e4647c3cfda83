"""IXSCAN and SISCAN operators over a simulated block index.

``IndexScan`` is the baseline (the paper's Figure-1 IXSCAN): it walks
the key range front to back, fixing each entry's block with a fixed
NORMAL release priority.

``SharedIndexScan`` is the SISCAN (the paper's Figure-3 logic): it asks
the ISM where to start, walks from there to the end key, wraps to the
start key, and finishes just before its start location — calling the ISM
at every update interval (possibly serving an inserted wait) and
releasing pages with the ISM-chosen priority.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, List, Optional

from repro.buffer.page import Priority
from repro.extensions.index_sharing.index import BlockIndex
from repro.extensions.index_sharing.manager import (
    IndexScanDescriptor,
    IndexScanSharingManager,
)
from repro.scans.table_scan import OnRun, uniform_page_rows


@dataclass
class IndexScanResult:
    """What a finished index scan reports."""

    index_name: str
    first_entry: int
    last_entry: int
    start_entry: int
    entries_scanned: int = 0
    pages_fixed: int = 0
    cpu_seconds: float = 0.0
    throttle_seconds: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    visited_blocks: List[int] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        """Simulated scan duration."""
        return self.finished_at - self.started_at


class IndexScan:
    """Baseline IXSCAN: key order, no sharing.

    Per-page CPU comes either from the flat ``cpu_per_page`` or, when an
    ``on_run`` callback is given (the engine integration path), from the
    callback — the table scans' contract, fed runs of one page, so query
    pipelines plug in unchanged.
    """

    def __init__(
        self,
        database: Any,
        index: BlockIndex,
        first_entry: int,
        last_entry: int,
        cpu_per_page: float = 1e-5,
        on_run: Optional[OnRun] = None,
        record_blocks: bool = False,
    ):
        if not 0 <= first_entry <= last_entry < index.n_entries:
            raise ValueError(
                f"bad entry range [{first_entry}, {last_entry}] for index of "
                f"{index.n_entries} entries"
            )
        self.db = database
        self.index = index
        self.first_entry = first_entry
        self.last_entry = last_entry
        self.cpu_per_page = cpu_per_page
        self.on_run = on_run
        self.record_blocks = record_blocks

    def run(self) -> Generator:
        """Simulation process body; returns an :class:`IndexScanResult`."""
        result = IndexScanResult(
            index_name=self.index.table.name,
            first_entry=self.first_entry,
            last_entry=self.last_entry,
            start_entry=self.first_entry,
            started_at=self.db.sim.now,
        )
        for entry_index, block_id in self.index.entries(
            self.first_entry, self.last_entry
        ):
            yield from self._process_block(block_id, Priority.NORMAL, result)
            result.entries_scanned += 1
        result.finished_at = self.db.sim.now
        return result

    def _process_block(
        self, block_id: int, priority: Priority, result: IndexScanResult
    ) -> Generator:
        db = self.db
        table = self.index.table
        on_run = self.on_run
        page_rows = uniform_page_rows(1, table.schema.rows_per_page)
        pages = self.index.block_pages(block_id)
        keys = [db.catalog.page_key(table.name, p) for p in pages]
        for page_no, key in zip(pages, keys):
            frame = yield from db.pool.fix(key, prefetch=keys)
            assert frame.key == key
            try:
                if on_run is not None:
                    cpu_seconds = on_run(
                        page_no, table.page_data(page_no), page_rows
                    )[0]
                else:
                    cpu_seconds = self.cpu_per_page
                yield from db.charge_cpu(cpu_seconds)
                result.cpu_seconds += cpu_seconds
            finally:
                db.pool.unfix(key, priority)
            result.pages_fixed += 1
        if self.record_blocks:
            result.visited_blocks.append(block_id)


class SharedIndexScan(IndexScan):
    """SISCAN: ISM-placed start, wrap-around, throttled, prioritized."""

    def __init__(
        self,
        database: Any,
        index: BlockIndex,
        ism: IndexScanSharingManager,
        first_entry: int,
        last_entry: int,
        cpu_per_page: float = 1e-5,
        on_run: Optional[OnRun] = None,
        estimated_speed: Optional[float] = None,
        record_blocks: bool = False,
    ):
        super().__init__(database, index, first_entry, last_entry,
                         cpu_per_page, on_run=on_run,
                         record_blocks=record_blocks)
        self.ism = ism
        io_per_entry = (
            database.config.geometry.transfer_time(1) * index.block_size_pages
        )
        cpu_per_entry = cpu_per_page * index.block_size_pages
        self.estimated_speed = estimated_speed or (
            1.0 / max(io_per_entry, cpu_per_entry)
        )

    def run(self) -> Generator:
        """Simulation process body; returns an :class:`IndexScanResult`."""
        descriptor = IndexScanDescriptor(
            index_name=self.index.table.name,
            first_entry=self.first_entry,
            last_entry=self.last_entry,
            estimated_speed=self.estimated_speed,
        )
        state = self.ism.start_scan(descriptor)
        result = IndexScanResult(
            index_name=self.index.table.name,
            first_entry=self.first_entry,
            last_entry=self.last_entry,
            start_entry=state.start_entry,
            started_at=self.db.sim.now,
        )
        # The config interval is in *pages* (the prototype updated at
        # every extent boundary); convert to entries for this block size.
        interval = max(
            1,
            self.ism.config.update_interval_pages // self.index.block_size_pages,
        )
        entries_done = 0
        wrapped_pending = False
        try:
            # Phase 1: start location -> end key.
            for entry_index, block_id in self.index.entries(
                state.start_entry, self.last_entry
            ):
                priority = self.ism.page_priority(state.scan_id)
                yield from self._process_block(block_id, priority, result)
                entries_done += 1
                if entries_done % interval == 0:
                    yield from self._report(
                        state.scan_id, entry_index, entries_done,
                        wrapped_pending, result,
                    )
                    wrapped_pending = False
            # Phase 2: start key -> start location.
            if state.start_entry > self.first_entry:
                wrapped_pending = True
                for entry_index, block_id in self.index.entries(
                    self.first_entry, state.start_entry - 1
                ):
                    priority = self.ism.page_priority(state.scan_id)
                    yield from self._process_block(block_id, priority, result)
                    entries_done += 1
                    if entries_done % interval == 0:
                        yield from self._report(
                            state.scan_id, entry_index, entries_done,
                            wrapped_pending, result,
                        )
                        wrapped_pending = False
            result.entries_scanned = entries_done
        finally:
            self.ism.end_scan(state.scan_id)
        result.finished_at = self.db.sim.now
        return result

    def _report(
        self,
        scan_id: int,
        location: int,
        entries_done: int,
        wrapped: bool,
        result: IndexScanResult,
    ) -> Generator:
        wait = self.ism.update_location(
            scan_id, location, entries_done, wrapped_since_last=wrapped
        )
        yield from self.db.charge_cpu(self.db.config.manager_call_overhead_cpu)
        if wait > 0:
            result.throttle_seconds += wait
            yield self.db.sim.timeout(wait)
