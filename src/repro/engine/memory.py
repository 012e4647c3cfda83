"""Operator memory management: frame budgets and simulated temp space.

Memory-budgeted operators (spillable aggregation, multibuffer joins)
compete with scans for bufferpool frames instead of assuming an infinite
private workspace.  Two pieces model that competition:

:class:`TempSpace`
    A lazily allocated contiguous region of the shared disk used for
    spill runs.  Temp I/O deliberately bypasses the bufferpool — real
    systems write sort runs and hash partitions through private buffers
    — but it *shares the device* with scan I/O, so spilling slows scans
    down the way the paper's frame competition predicts.

:class:`OperatorMemory`
    One operator's negotiated frame reservation.  It asks the pool for a
    named, claw-backable reservation
    (:meth:`~repro.buffer.pool.BufferPool.reserve_frames`); when the
    pool claws frames back under pressure the operator is flagged to
    spill.  Spill writes are issued asynchronously (operators run inside
    a scan's page callback and cannot drive the simulation);
    :meth:`drain` and :meth:`read_back` are generators the pipeline's
    finalize phase yields through.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from repro.buffer.page import PageKey
from repro.buffer.pool import FrameReservation


class TempSpace:
    """Simulated temp-file region on the shared disk.

    Allocation is lazy: runs that never spill never take tablespace
    room.  Addresses are handed out bump-pointer style with wraparound —
    spill files are transient, so recycling addresses is fine; the
    addresses exist only to give temp I/O realistic positions (and
    seeks) on the shared device.
    """

    def __init__(self, database: Any, n_pages: int):
        if n_pages < 1:
            raise ValueError(f"temp space needs n_pages >= 1, got {n_pages}")
        self.db = database
        self.n_pages = n_pages
        self._space_id: Optional[int] = None
        self._base = 0
        self._cursor = 0
        self.pages_written = 0
        self.pages_read = 0
        self.write_requests = 0
        self.read_requests = 0

    @property
    def allocated(self) -> bool:
        """Whether the temp region has been carved out of the tablespace."""
        return self._space_id is not None

    def _ensure(self) -> None:
        if self._space_id is None:
            self._space_id = self.db.tablespace.allocate(self.n_pages)
            self._base = self.db.tablespace.address_of(
                PageKey(self._space_id, 0)
            )

    def write_run(self, n_pages: int) -> tuple:
        """Queue a temp write of ``n_pages``; returns ``(addr, event)``.

        The returned address can be passed to :meth:`read_run` to read
        the run back.  The event is the disk completion; callers that
        cannot yield store it and drain later.  A run larger than the
        whole region raises ``ValueError``.
        """
        if n_pages < 1:
            raise ValueError(f"temp write needs n_pages >= 1, got {n_pages}")
        if n_pages > self.n_pages:
            raise ValueError(f"temp run of {n_pages} pages does not fit "
                             f"the {self.n_pages}-page temp space")
        self._ensure()
        if self._cursor + n_pages > self.n_pages:
            self._cursor = 0
        addr = self._base + self._cursor
        self._cursor += n_pages
        self.pages_written += n_pages
        self.write_requests += 1
        return addr, self.db.disk.write(addr, n_pages)

    def read_run(self, addr: int, n_pages: int):
        """Queue a temp read; returns the disk completion event."""
        if n_pages < 1:
            raise ValueError(f"temp read needs n_pages >= 1, got {n_pages}")
        self.pages_read += n_pages
        self.read_requests += 1
        return self.db.disk.read(addr, n_pages)

    def stats(self) -> dict:
        """Spill I/O counters for reports."""
        return {
            "temp_pages_written": self.pages_written,
            "temp_pages_read": self.pages_read,
            "temp_write_requests": self.write_requests,
            "temp_read_requests": self.read_requests,
        }


class OperatorMemory:
    """One operator's frame budget, negotiated with the bufferpool.

    Lifecycle::

        mem = OperatorMemory(db, "agg[Q1]", budget_pages=32)
        mem.negotiate()          # reserve frames (clamped by the pool)
        ... operator works within mem.pages, spilling when full or
            when mem.spill_requested flips under claw-back ...
        yield from mem.drain()   # wait out async spill writes
        yield from mem.read_back(addr, n)   # re-read spilled runs
        mem.release()            # hand every frame back
    """

    def __init__(self, database: Any, name: str, budget_pages: int):
        if budget_pages < 1:
            raise ValueError(f"budget must be >= 1 page, got {budget_pages}")
        self.db = database
        self.name = name
        self.requested_pages = budget_pages
        self.reservation: Optional[FrameReservation] = None
        self.granted_initial = 0
        self.pressure_events = 0
        #: Flipped by the pool's claw-back callback; the operator checks
        #: it on every batch and sheds state when set.
        self.spill_requested = False
        self._pending: List[Any] = []

    def negotiate(self) -> int:
        """Reserve up to the requested budget; returns frames granted."""
        if self.reservation is not None:
            raise RuntimeError(f"{self.name}: budget already negotiated")
        self.reservation = self.db.pool.reserve_frames(
            self.name, self.requested_pages, on_clawback=self._on_clawback
        )
        self.granted_initial = self.reservation.granted
        return self.granted_initial

    def _on_clawback(self, reservation: FrameReservation) -> None:
        # Bookkeeping only: runs inside the pool's eviction path.
        self.pressure_events += 1
        self.spill_requested = True

    @property
    def pages(self) -> int:
        """Frames the operator currently holds."""
        return self.reservation.granted if self.reservation else 0

    @property
    def clawed_pages(self) -> int:
        """Frames the pool took back under pressure."""
        return self.reservation.clawed if self.reservation else 0

    def spill_out(self, n_pages: int) -> int:
        """Issue an async temp write of ``n_pages``; returns its address.

        Callable from non-generator contexts (a scan's page callback):
        the disk completion is parked and waited out by :meth:`drain`.
        """
        addr, event = self.db.temp.write_run(n_pages)
        self._pending.append(event)
        self.spill_requested = False
        return addr

    def drain(self) -> Generator:
        """Wait for every outstanding spill write to land."""
        pending, self._pending = self._pending, []
        for event in pending:
            if not event.triggered:
                yield event

    def read_back(self, addr: int, n_pages: int) -> Generator:
        """Read a spilled run back from temp space."""
        yield self.db.temp.read_run(addr, n_pages)

    def release(self) -> int:
        """Return every held frame to the pool."""
        if self.reservation is None:
            return 0
        return self.db.pool.release_frames(self.reservation)

    def stats(self) -> dict:
        """Reservation counters for reports."""
        return {
            "requested_pages": self.requested_pages,
            "granted_pages": self.granted_initial,
            "clawed_pages": self.clawed_pages,
            "pressure_events": self.pressure_events,
        }
