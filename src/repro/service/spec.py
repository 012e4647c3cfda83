"""Declarative, hashable specifications for the query service.

Everything here is frozen so a :class:`ServiceSpec` can sit inside
:class:`~repro.experiments.harness.ExperimentSettings`-style cache keys
and be rebuilt identically in worker processes — the same property the
experiment runner relies on for ``--jobs`` determinism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.workloads.arrivals import ArrivalProcess, ClassContract, Poisson, query_mix


@dataclass(frozen=True)
class ServiceClass(ClassContract):
    """One named workload class served by the query service: its
    queueing contract plus an arrival process and a query mix.

    ``arrival`` is an open process (:class:`~repro.workloads.arrivals.Poisson`,
    ``Lognormal``, ``Pareto`` or ``Mmpp``), rendered over the horizon
    from the class's own seed; a :class:`~repro.workloads.arrivals.Closed`
    set of looping streams; or an
    :class:`~repro.workloads.arrivals.ArrivalPlan` replayed verbatim,
    whose queries were drawn before the run.
    """

    arrival: ArrivalProcess = Poisson(rate=1.0)
    query_names: Tuple[str, ...] = ("Q6",)
    #: ``(name, weight)`` pairs biasing the query template draw.
    query_weights: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        owner = f"class {self.name}"
        self.arrival.check(owner)
        query_mix(owner, self.query_names, self.query_weights)  # checks the mix


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
