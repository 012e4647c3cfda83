"""Declarative, hashable specifications for the query service.

Everything here is frozen so a :class:`ServiceSpec` can sit inside
:class:`~repro.experiments.harness.ExperimentSettings`-style cache keys
and be rebuilt identically in worker processes — the same property the
experiment runner relies on for ``--jobs`` determinism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.workloads.arrivals import ARRIVAL_KINDS

#: Arrival kinds a service class may declare: the open kinds from
#: ``workloads.arrivals`` plus ``closed`` (a fixed set of looping streams).
CLASS_ARRIVAL_KINDS = ARRIVAL_KINDS + ("closed",)


@dataclass(frozen=True)
class ServiceClass:
    """One named workload class served by the query service.

    Open classes (``arrival`` in :data:`~repro.workloads.arrivals.ARRIVAL_KINDS`)
    generate a pre-computed arrival plan at ``rate`` per second; closed
    classes run ``n_streams`` loops that submit a new request as soon as
    the previous one completes (TPC-H throughput-test style).
    """

    name: str
    #: Weighted-fair share relative to other classes (higher = more slots).
    weight: float = 1.0
    #: Per-class concurrency cap; 0 means only the global MPL bound applies.
    max_mpl: int = 0
    #: Optional end-to-end latency SLO in simulated seconds.
    latency_slo: Optional[float] = None
    #: Queued requests abandon after this wait; None waits forever.
    patience: Optional[float] = None
    arrival: str = "poisson"
    #: Arrivals per simulated second (open classes only).
    rate: float = 1.0
    #: Looping streams (closed classes only).
    n_streams: int = 1
    query_names: Tuple[str, ...] = ("Q6",)
    #: ``(name, weight)`` pairs biasing the query template draw.
    query_weights: Tuple[Tuple[str, float], ...] = ()
    #: Lognormal tail weight (``arrival == "lognormal"``).
    sigma: float = 1.0
    #: Pareto shape (``arrival == "pareto"``); must exceed 1.
    alpha: float = 1.5
    #: MMPP off-phase rate and mean phase sojourns (``arrival == "mmpp"``).
    rate_off: float = 0.0
    mean_on: float = 1.0
    mean_off: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("service class needs a name")
        if self.weight <= 0:
            raise ValueError(f"class {self.name}: weight must be positive")
        if self.max_mpl < 0:
            raise ValueError(f"class {self.name}: max_mpl must be >= 0")
        if self.latency_slo is not None and self.latency_slo <= 0:
            raise ValueError(f"class {self.name}: latency_slo must be positive")
        if self.patience is not None and self.patience <= 0:
            raise ValueError(f"class {self.name}: patience must be positive")
        if self.arrival not in CLASS_ARRIVAL_KINDS:
            raise ValueError(
                f"class {self.name}: unknown arrival kind {self.arrival!r}; "
                f"expected one of {CLASS_ARRIVAL_KINDS}"
            )
        if self.is_open and self.rate <= 0:
            raise ValueError(f"class {self.name}: open classes need rate > 0")
        if not self.is_open and self.n_streams < 1:
            raise ValueError(f"class {self.name}: closed classes need n_streams >= 1")
        if not self.query_names:
            raise ValueError(f"class {self.name}: needs at least one query template")

    @property
    def is_open(self) -> bool:
        """Whether this class draws from an open arrival process."""
        return self.arrival != "closed"

    def query_weight_map(self) -> Optional[Dict[str, float]]:
        """``query_weights`` as the dict the arrival generators accept."""
        return dict(self.query_weights) if self.query_weights else None


@dataclass(frozen=True)
class ControllerConfig:
    """AIMD configuration for the MPL/admission controller.

    With ``enabled=False`` the service admits without bound — the
    uncontrolled baseline the overload scenario compares against.
    """

    enabled: bool = True
    initial_mpl: int = 4
    min_mpl: int = 1
    max_mpl: int = 16
    #: Seconds between controller ticks.
    interval: float = 0.05
    #: Windowed bufferpool miss-rate above which MPL shrinks.
    miss_rate_high: float = 0.55
    #: Miss-rate below which MPL may grow again.
    miss_rate_low: float = 0.35
    #: Fraction of pool frames reserved away (fault pressure) that
    #: triggers a shrink regardless of miss rate.
    pressure_high: float = 0.5
    #: Shrink: ``mpl = max(min_mpl, int(mpl * decrease_factor))``.
    decrease_factor: float = 0.5
    #: Grow: ``mpl = min(max_mpl, mpl + increase_step)``.
    increase_step: int = 1
    #: Mean active-scan speed below this fraction of the scans' own
    #: estimated (solo) speeds reads as saturation — the group-speed
    #: backpressure signal.  0 disables the signal.
    speed_floor: float = 0.25
    #: EWMA weight of the newest miss-rate window (1.0 = no smoothing).
    miss_ewma_alpha: float = 0.3
    #: Windows with fewer logical reads than this don't move the
    #: miss-rate estimate (a near-idle window is not a signal).
    min_window_reads: int = 16

    def __post_init__(self) -> None:
        if self.min_mpl < 1:
            raise ValueError("min_mpl must be >= 1")
        if not self.min_mpl <= self.initial_mpl <= self.max_mpl:
            raise ValueError(
                f"need min_mpl <= initial_mpl <= max_mpl, got "
                f"{self.min_mpl} / {self.initial_mpl} / {self.max_mpl}"
            )
        if self.interval <= 0:
            raise ValueError("controller interval must be positive")
        if not 0.0 <= self.miss_rate_low <= self.miss_rate_high <= 1.0:
            raise ValueError("need 0 <= miss_rate_low <= miss_rate_high <= 1")
        if not 0.0 < self.pressure_high <= 1.0:
            raise ValueError("pressure_high must be in (0, 1]")
        if not 0.0 < self.decrease_factor < 1.0:
            raise ValueError("decrease_factor must be in (0, 1)")
        if self.increase_step < 1:
            raise ValueError("increase_step must be >= 1")
        if not 0.0 <= self.speed_floor < 1.0:
            raise ValueError("speed_floor must be in [0, 1)")
        if not 0.0 < self.miss_ewma_alpha <= 1.0:
            raise ValueError("miss_ewma_alpha must be in (0, 1]")
        if self.min_window_reads < 1:
            raise ValueError("min_window_reads must be >= 1")


@dataclass(frozen=True)
class ServiceSpec:
    """A full service configuration: classes + horizon + controller."""

    classes: Tuple[ServiceClass, ...]
    #: Arrival window in simulated seconds; the run drains after it closes.
    horizon: float = 10.0
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    #: Safety bound per open class.
    max_arrivals_per_class: int = 10_000

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("service spec needs at least one class")
        names = [cls.name for cls in self.classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate service class names: {names}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.max_arrivals_per_class < 1:
            raise ValueError("max_arrivals_per_class must be >= 1")
