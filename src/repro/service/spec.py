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


#: The MPL the controller starts at, and the floor its multiplicative
#: decrease never goes below.
INITIAL_MPL = 4
MIN_MPL = 1


@dataclass(frozen=True)
class ControllerConfig:
    """What a service scenario sets on the MPL/admission controller.

    With ``enabled=False`` the service admits without bound — the
    uncontrolled baseline the overload scenario compares against.  The
    AIMD tuning (signal thresholds, step sizes, smoothing) is fixed in
    :mod:`repro.service.controller`.
    """

    enabled: bool = True
    #: Ceiling of the additive increase; at least :data:`INITIAL_MPL`.
    max_mpl: int = 16
    #: Seconds between controller ticks.
    interval: float = 0.05

    def __post_init__(self) -> None:
        if self.max_mpl < INITIAL_MPL:
            raise ValueError(
                f"max_mpl must be >= the initial MPL {INITIAL_MPL}, "
                f"got {self.max_mpl}"
            )
        if self.interval <= 0:
            raise ValueError("controller interval must be positive")


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
