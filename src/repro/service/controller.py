"""The MPL/admission controller: backpressure from live engine signals.

The controller is a simulation process that wakes every ``interval``
seconds and adjusts the global multiprogramming level (MPL) — the
number of requests the service may run concurrently — using three
signals read directly from the engine:

* **miss rate** — bufferpool misses over logical reads *since the last
  tick* (windowed, so a long warm prefix cannot mask a cold spell);
* **pool pressure** — the fraction of frames reserved away from the
  pool (fault-injected memory pressure);
* **scan speed** — each active scan's measured speed from the sharing
  manager, normalized by its own optimizer-estimated solo speed; when
  the mean ratio collapses below ``speed_floor`` the disk (or a
  dragging group) is saturated even if the pool still hits.

The windowed miss rate is EWMA-smoothed and near-idle windows are
ignored, so one cold scan start does not read as thrash.

Control is AIMD: any red signal halves the MPL (multiplicative
decrease), a clean window raises it by ``increase_step`` (additive
increase).  Decreases do not evict running queries; the service simply
stops admitting until completions bring the running count back under
the bound — classic admission-control backpressure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.engine.database import Database
from repro.service.spec import ControllerConfig
from repro.trace.events import ServiceMplChanged
import repro.trace.tracer as trace_slot


@dataclass
class ControllerStats:
    """What the controller did over one run."""

    ticks: int = 0
    increases: int = 0
    decreases: int = 0
    min_mpl_seen: int = 0
    max_mpl_seen: int = 0


class AdmissionController:
    """AIMD MPL controller over a :class:`~repro.engine.database.Database`."""

    def __init__(self, db: Database, config: ControllerConfig):
        self.db = db
        self.config = config
        self.mpl = config.initial_mpl
        self.stats = ControllerStats(
            min_mpl_seen=config.initial_mpl, max_mpl_seen=config.initial_mpl
        )
        #: Invoked after every MPL increase so the service can re-try
        #: admission immediately instead of waiting for a completion.
        self.on_increase: Optional[Callable[[], None]] = None
        self._stopped = False
        self._last_logical = db.pool.stats.logical_reads
        self._last_misses = db.pool.stats.misses
        self._miss_ewma = 0.0
        self.process = None

    def has_slot(self, running: int) -> bool:
        """Whether another request may be admitted at ``running`` live."""
        if not self.config.enabled:
            return True
        return running < self.mpl

    def start(self) -> None:
        """Spawn the control loop (no-op when disabled)."""
        if self.config.enabled:
            self.process = self.db.sim.spawn(self._loop(), name="mpl-controller")

    def stop(self) -> None:
        """Ask the control loop to exit after its current sleep."""
        self._stopped = True

    def _loop(self) -> Generator:
        while not self._stopped:
            yield self.db.sim.timeout(self.config.interval)
            if self._stopped:
                break
            self._tick()

    def _tick(self) -> None:
        config = self.config
        stats = self.db.pool.stats
        logical_delta = stats.logical_reads - self._last_logical
        miss_delta = stats.misses - self._last_misses
        self._last_logical = stats.logical_reads
        self._last_misses = stats.misses
        if logical_delta >= config.min_window_reads:
            window_rate = miss_delta / logical_delta
            alpha = config.miss_ewma_alpha
            self._miss_ewma += alpha * (window_rate - self._miss_ewma)
        miss_rate = self._miss_ewma
        pressure = self.db.pool.reserved_frames / self.db.pool.capacity

        ratios = [
            s.speed / s.descriptor.estimated_speed
            for s in self.db.sharing.active_scans()
            if s.speed > 0 and s.descriptor.estimated_speed > 0
        ]
        mean_speed = sum(ratios) / len(ratios) if ratios else 0.0
        speed_collapsed = bool(ratios) and mean_speed < config.speed_floor

        old_mpl = self.mpl
        if miss_rate > config.miss_rate_high or pressure > config.pressure_high \
                or speed_collapsed:
            self.mpl = max(config.min_mpl, int(self.mpl * config.decrease_factor))
        elif miss_rate < config.miss_rate_low and pressure <= config.pressure_high:
            self.mpl = min(config.max_mpl, self.mpl + config.increase_step)

        self.stats.ticks += 1
        if self.mpl < old_mpl:
            self.stats.decreases += 1
        elif self.mpl > old_mpl:
            self.stats.increases += 1
        self.stats.min_mpl_seen = min(self.stats.min_mpl_seen, self.mpl)
        self.stats.max_mpl_seen = max(self.stats.max_mpl_seen, self.mpl)

        if self.mpl != old_mpl:
            tracer = trace_slot.active
            if tracer is not None:
                tracer.emit(ServiceMplChanged(
                    time=self.db.sim.now, old_mpl=old_mpl, new_mpl=self.mpl,
                    miss_rate=miss_rate, pool_pressure=pressure,
                    mean_speed=mean_speed,
                ))
            if self.mpl > old_mpl and self.on_increase is not None:
                self.on_increase()
