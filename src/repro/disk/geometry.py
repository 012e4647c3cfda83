"""Disk service-time model parameters.

The model is the classic first-order one: a request for a contiguous run
of pages costs a seek (unless it starts exactly where the previous request
ended), plus rotational settle, plus size / transfer-rate.  Seek time grows
with the square root of the distance fraction, which matches measured
voice-coil actuator behaviour closely enough for queueing studies.

Defaults approximate a mid-2000s enterprise drive (the paper's FAStT / SSA
arrays), scaled for 32 KiB pages like the DB2 prototype.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class DiskGeometry:
    """Immutable parameters of the simulated device.

    Attributes:
        page_size: Bytes per database page (DB2 prototype used 32 KiB).
        total_pages: Number of addressable pages on the device.
        min_seek_time: Seconds for a single-track (shortest) seek.
        max_seek_time: Seconds for a full-stroke seek.
        settle_time: Rotational settle added to every seeking request.
        transfer_rate: Sustained media rate in bytes/second.
        sequential_gap_pages: A request starting within this many pages
            after the previous request's end is serviced without a seek
            (read-ahead / same-track behaviour).
    """

    page_size: int = 32 * 1024
    total_pages: int = 1 << 20
    min_seek_time: float = 0.0008
    max_seek_time: float = 0.009
    settle_time: float = 0.002
    transfer_rate: float = 100.0 * 1024 * 1024
    sequential_gap_pages: int = 1

    def __post_init__(self) -> None:
        if self.page_size <= 0:
            raise ValueError(f"page_size must be positive, got {self.page_size}")
        if self.total_pages <= 0:
            raise ValueError(f"total_pages must be positive, got {self.total_pages}")
        if self.transfer_rate <= 0:
            raise ValueError(f"transfer_rate must be positive, got {self.transfer_rate}")
        if self.min_seek_time < 0 or self.max_seek_time < self.min_seek_time:
            raise ValueError(
                "seek times must satisfy 0 <= min_seek_time <= max_seek_time, got "
                f"min={self.min_seek_time}, max={self.max_seek_time}"
            )
        if self.settle_time < 0:
            raise ValueError(f"settle_time must be >= 0, got {self.settle_time}")
        if self.sequential_gap_pages < 0:
            raise ValueError(
                f"sequential_gap_pages must be >= 0, got {self.sequential_gap_pages}"
            )

    def seek_time(self, from_page: int, to_page: int) -> float:
        """Seconds needed to move the head between two page addresses."""
        distance = abs(to_page - from_page)
        if distance == 0:
            return self.min_seek_time
        fraction = min(1.0, distance / self.total_pages)
        return self.min_seek_time + (self.max_seek_time - self.min_seek_time) * math.sqrt(
            fraction
        )

    def transfer_time(self, n_pages: int) -> float:
        """Seconds needed to transfer ``n_pages`` off the media."""
        if n_pages < 0:
            raise ValueError(f"n_pages must be >= 0, got {n_pages}")
        return n_pages * self.page_size / self.transfer_rate

    def is_sequential(self, last_end_page: int, next_start_page: int) -> bool:
        """Whether a request at ``next_start_page`` avoids a seek."""
        gap = next_start_page - last_end_page
        return 0 <= gap <= self.sequential_gap_pages


@dataclass(frozen=True)
class StripeMap:
    """Deterministic mapping of the global page space onto N devices.

    The address space is cut into fixed-size stripe units of
    ``stripe_pages`` pages and dealt round-robin across ``n_devices``:
    stripe *s* lives on device ``s % n_devices`` at local stripe index
    ``s // n_devices``.  The map is a pure function of its two fields,
    so two maps built from the same :class:`~repro.engine.database.\
SystemConfig` assign every extent to the same device (re-opening a
    database never migrates data), and the assignment is a total
    partition: every global page has exactly one ``(device, local)``
    home and :meth:`global_of` inverts :meth:`locate` exactly.

    With ``stripe_pages`` equal to one prefetch extent the per-device
    extent loads are balanced within ±1 extent for any table size; wider
    stripes trade balance (±``stripe_pages/extent`` extents) for longer
    sequential runs per device.
    """

    n_devices: int
    stripe_pages: int

    def __post_init__(self) -> None:
        if self.n_devices < 1:
            raise ValueError(f"n_devices must be >= 1, got {self.n_devices}")
        if self.stripe_pages < 1:
            raise ValueError(
                f"stripe_pages must be >= 1, got {self.stripe_pages}"
            )

    def locate(self, page: int) -> "tuple[int, int]":
        """``(device index, local page address)`` for a global page."""
        if page < 0:
            raise ValueError(f"page addresses are non-negative, got {page}")
        stripe, offset = divmod(page, self.stripe_pages)
        device, local_stripe = stripe % self.n_devices, stripe // self.n_devices
        return device, local_stripe * self.stripe_pages + offset

    def global_of(self, device: int, local_page: int) -> int:
        """The global page address of a device-local address (inverse)."""
        if not 0 <= device < self.n_devices:
            raise ValueError(
                f"device must be in [0, {self.n_devices}), got {device}"
            )
        if local_page < 0:
            raise ValueError(
                f"local addresses are non-negative, got {local_page}"
            )
        local_stripe, offset = divmod(local_page, self.stripe_pages)
        stripe = local_stripe * self.n_devices + device
        return stripe * self.stripe_pages + offset

    def run_on_device(self, start_page: int, n_pages: int) -> int:
        """Pages of ``[start_page, start_page + n_pages)`` that stay on
        ``start_page``'s device before crossing a stripe boundary."""
        in_stripe = self.stripe_pages - (start_page % self.stripe_pages)
        return min(n_pages, in_stripe)
