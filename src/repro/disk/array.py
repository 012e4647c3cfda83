"""Striped multi-disk arrays.

The paper's testbeds used storage arrays (FAStT, 16 SSA disks per
node).  This module models the device-count dimension: a
:class:`DiskArray` stripes the address space over N independent
single-arm disks in fixed-size stripe units, splits each request at
stripe boundaries, and completes it when every sub-request has landed.
It exposes the same ``read``/``write``/``stats``/``outstanding_timeline``
surface as a single :class:`~repro.disk.device.Disk`, so the bufferpool
and the metrics layer work unchanged.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry, StripeMap
from repro.disk.stats import DiskStats
from repro.sim.events import Event, SimulationError
from repro.sim.kernel import Simulator
from repro.sim.timeline import StepTimeline


class ArrayStats:
    """Aggregated statistics over the member disks (read-only view).

    The aggregate properties sum over every spindle; :attr:`per_device`
    exposes the individual :class:`~repro.disk.stats.DiskStats` buckets
    so ``bench`` and ``run`` tables can report both views.
    """

    def __init__(self, disks: List[Disk]):
        self._disks = disks

    @property
    def per_device(self) -> List[DiskStats]:
        """One stats bucket per member spindle, in device order."""
        return [disk.stats for disk in self._disks]

    @property
    def reads(self) -> int:
        return sum(d.stats.reads for d in self._disks)

    @property
    def writes(self) -> int:
        return sum(d.stats.writes for d in self._disks)

    @property
    def pages_read(self) -> int:
        return sum(d.stats.pages_read for d in self._disks)

    @property
    def seeks(self) -> int:
        return sum(d.stats.seeks for d in self._disks)

    def _merged_trace(self, attr: str) -> List[Tuple[float, int]]:
        merged: List[Tuple[float, int]] = []
        for disk in self._disks:
            merged.extend(getattr(disk.stats, attr))
        merged.sort(key=lambda item: item[0])
        return merged

    @property
    def read_trace(self) -> List[Tuple[float, int]]:
        return self._merged_trace("read_trace")

    @property
    def seek_trace(self) -> List[Tuple[float, int]]:
        return self._merged_trace("seek_trace")

    def pages_read_per_bucket(self, until: float, bucket: float) -> List[float]:
        """Pages read per time bucket across all spindles."""
        return DiskStats().bucket_trace(self.read_trace, until, bucket)

    def seeks_per_bucket(self, until: float, bucket: float) -> List[float]:
        """Seeks per time bucket across all spindles."""
        return DiskStats().bucket_trace(self.seek_trace, until, bucket)


class DiskArray:
    """N striped disks behind a single request interface."""

    def __init__(
        self,
        sim: Simulator,
        n_disks: int,
        geometry: Optional[DiskGeometry] = None,
        stripe_pages: int = 64,
        scheduler: str = "fifo",
    ):
        if n_disks < 1:
            raise SimulationError(f"need at least one disk, got {n_disks}")
        if stripe_pages < 1:
            raise SimulationError(f"stripe_pages must be >= 1, got {stripe_pages}")
        self.sim = sim
        self.geometry = geometry or DiskGeometry()
        self.n_disks = n_disks
        self.stripe_pages = stripe_pages
        self.stripe_map = StripeMap(n_devices=n_disks, stripe_pages=stripe_pages)
        self.disks = [
            Disk(sim, self.geometry, scheduler=scheduler, device_index=index)
            for index in range(n_disks)
        ]
        self.stats = ArrayStats(self.disks)
        self.outstanding_timeline = StepTimeline(initial=0)
        self._outstanding = 0

    def read(self, start_page: int, n_pages: int) -> Event:
        """Read a contiguous global range; completes when all stripes do."""
        return self._submit(start_page, n_pages, is_write=False)

    def write(self, start_page: int, n_pages: int) -> Event:
        """Write a contiguous global range."""
        return self._submit(start_page, n_pages, is_write=True)

    def _submit(self, start_page: int, n_pages: int, is_write: bool) -> Event:
        if n_pages <= 0:
            raise SimulationError(f"transfer needs n_pages >= 1, got {n_pages}")
        sub_events: List[Event] = []
        page = start_page
        remaining = n_pages
        while remaining > 0:
            disk_index, local_page = self.stripe_map.locate(page)
            chunk = self.stripe_map.run_on_device(page, remaining)
            disk = self.disks[disk_index]
            if is_write:
                sub_events.append(disk.write(local_page, chunk))
            else:
                sub_events.append(disk.read(local_page, chunk))
            page += chunk
            remaining -= chunk
        self._outstanding += 1
        self.outstanding_timeline.record(self.sim.now, self._outstanding)
        combined = self.sim.all_of(sub_events)
        done = Event(self.sim)

        def finish(_event: Event) -> None:
            self._outstanding -= 1
            self.outstanding_timeline.record(self.sim.now, self._outstanding)
            done.succeed(_event.value)

        combined.add_callback(finish)
        return done

    def set_fault_injector(self, injector) -> None:
        """Wire a fault injector into every member disk."""
        for disk in self.disks:
            disk.set_fault_injector(injector)
