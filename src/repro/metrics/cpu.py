"""iostat-style CPU accounting from simulator timelines.

The paper's staggered-query figures show the distribution of CPU time
over *user*, *system*, *idle*, and *I/O wait*.  We derive the same four
buckets from two step-functions the simulator records anyway:

* the CPU resource's busy count ``b(t)`` (0..cores), and
* the disk's outstanding-request count ``d(t)``.

Definitions (matching iostat semantics):

* **user**    = ∫ b(t) dt / (cores · T) — time cores spent running query work;
* **system**  = (physical I/O requests · per-request kernel cost) / (cores · T);
* **iowait**  = ∫ (cores − b(t)) · [d(t) > 0] dt / (cores · T) — idle
  capacity while at least one I/O was pending;
* **idle**    = the remainder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.sim.timeline import StepTimeline


@dataclass(frozen=True)
class CpuBreakdown:
    """Fractions of total CPU capacity over a run (sum to 1)."""

    user: float
    system: float
    idle: float
    iowait: float

    def as_dict(self) -> dict:
        """Bucket name -> fraction."""
        return {
            "user": self.user,
            "system": self.system,
            "idle": self.idle,
            "iowait": self.iowait,
        }


def _merged_changes(
    a: StepTimeline, b: StepTimeline, until: float
) -> List[Tuple[float, float, float, float]]:
    """Merge two step functions into segments (start, end, level_a, level_b).

    Segment starts only grow, so each timeline's level is found by moving
    one cursor forward — the level of the last point before the first
    point later than ``start``, exactly what ``StepTimeline.level_at``
    returns — in one pass over both change-point lists.
    """
    points_a = list(a.change_points())
    points_b = list(b.change_points())
    times = sorted({t for t, _ in points_a} | {t for t, _ in points_b} | {0.0, until})
    segments: List[Tuple[float, float, float, float]] = []
    n_a, n_b = len(points_a), len(points_b)
    i_a = i_b = 0
    # ``until`` is one of the times, so no segment before it ends past it.
    for start, end in zip(times, times[1:]):
        if start >= until:
            break
        while i_a < n_a and points_a[i_a][0] <= start:
            i_a += 1
        while i_b < n_b and points_b[i_b][0] <= start:
            i_b += 1
        segments.append((
            start, end,
            points_a[i_a - 1 if i_a else 0][1],
            points_b[i_b - 1 if i_b else 0][1],
        ))
    return segments


def compute_cpu_breakdown(
    cpu_busy: StepTimeline,
    disk_outstanding: StepTimeline,
    cores: int,
    until: float,
    io_requests: int = 0,
    syscall_cost: float = 0.0,
) -> CpuBreakdown:
    """Compute the four iostat buckets over ``[0, until]``."""
    if cores < 1:
        raise ValueError(f"cores must be >= 1, got {cores}")
    if until <= 0:
        raise ValueError(f"until must be positive, got {until}")
    capacity = cores * until
    user_time = 0.0
    iowait_time = 0.0
    for start, end, busy, outstanding in _merged_changes(
        cpu_busy, disk_outstanding, until
    ):
        duration = end - start
        user_time += min(busy, cores) * duration
        if outstanding > 0:
            iowait_time += max(0.0, cores - busy) * duration
    system_time = min(io_requests * syscall_cost, max(0.0, capacity - user_time))
    # The kernel time comes out of what would otherwise be idle/iowait
    # capacity; shave it off iowait first (I/O issue happens while waiting).
    iowait_time = max(0.0, iowait_time - system_time)
    idle_time = max(0.0, capacity - user_time - system_time - iowait_time)
    return CpuBreakdown(
        user=user_time / capacity,
        system=system_time / capacity,
        idle=idle_time / capacity,
        iowait=iowait_time / capacity,
    )
