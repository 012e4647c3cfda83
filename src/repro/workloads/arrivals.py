"""The offered-load model: a workload class is a queueing contract plus
an arrival process.

TPC-H's throughput test is a *closed* system (a fixed set of streams);
the paper's motivating warehouse is an *open* one — analysts fire
queries whenever they like.  The service and cluster layers describe
both with :class:`ClassContract` (what the admission queues promise a
class) and one typed arrival process per class: the open
:class:`Poisson`, :class:`Lognormal`, :class:`Pareto` and :class:`Mmpp`,
:class:`Closed` looping streams, or an :class:`ArrivalPlan` replayed
verbatim.  Every open process runs through one render loop,
:func:`arrival_times`, and the caller draws each arrival's query between
two yields, so one generator serves both in the fixed order gap → query.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import (
    Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
    Union,
)

import numpy as np

from repro.engine.query import QuerySpec
from repro.workloads.tpch_queries import QUERY_FACTORIES

#: Every template, in numeric order: the mix :func:`plan_arrivals` draws
#: from when it is given no template names.
ALL_TEMPLATES = tuple(sorted(QUERY_FACTORIES, key=lambda n: int(n[1:])))

#: Relative template weights, as a dict or as ``(name, weight)`` pairs.
Weights = Union[Dict[str, float], Sequence[Tuple[str, float]], None]


def stable_hash(*parts: object) -> int:
    """The first 8 bytes (big-endian) of SHA-256 of ``parts`` joined by
    ``:`` — a 64-bit value no ``PYTHONHASHSEED`` or platform changes.
    Every per-class, per-replica and load-generator seed and every ring
    position is one of these, each under its own leading prefix."""
    payload = ":".join(str(part) for part in parts).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


@dataclass(frozen=True)
class ClassContract:
    """What one workload class is promised by the admission queues, which
    read nothing else; :class:`~repro.service.spec.ServiceClass` and
    :class:`~repro.workloads.loadgen.UserClass` extend it."""

    name: str
    #: Weighted-fair share relative to other classes (higher = more slots).
    weight: float = 1.0
    #: Per-class concurrency cap; 0 means only the global MPL bound applies.
    max_mpl: int = 0
    #: Optional end-to-end latency SLO in simulated seconds.
    latency_slo: Optional[float] = None
    #: Queued requests abandon after this wait; None waits forever.
    patience: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a workload class needs a name")
        if self.weight <= 0:
            raise ValueError(f"class {self.name}: weight must be positive")
        if self.max_mpl < 0:
            raise ValueError(f"class {self.name}: max_mpl must be >= 0")
        if self.latency_slo is not None and self.latency_slo <= 0:
            raise ValueError(f"class {self.name}: latency_slo must be positive")
        if self.patience is not None and self.patience <= 0:
            raise ValueError(f"class {self.name}: patience must be positive")

    def contract(self) -> Dict[str, Any]:
        """The contract's fields alone, as keyword arguments."""
        return {f.name: getattr(self, f.name) for f in fields(ClassContract)}


def check_templates(owner: str, names: Sequence[str]) -> None:
    """Reject an empty template list or a name no factory builds."""
    if not names:
        raise ValueError(f"{owner}: needs at least one query template")
    for name in names:
        if name not in QUERY_FACTORIES:
            raise ValueError(f"{owner}: unknown query template {name!r}")


def query_mix(
    owner: str, names: Sequence[str], weights: Weights = None,
) -> Callable[[np.random.Generator], QuerySpec]:
    """A checked draw over ``names``: one template choice, then its
    parameters, both from the caller's generator.  A template
    ``weights`` does not name weighs 1."""
    check_templates(owner, names)
    weight_of = dict(weights or ())
    stray = sorted(set(weight_of) - set(names))
    if stray:
        raise ValueError(f"{owner}: query weights name templates outside "
                         f"its mix: {stray}")
    values = np.array([float(weight_of.get(name, 1.0)) for name in names])
    if (values < 0).any():
        raise ValueError(f"{owner}: query weights must be >= 0")
    if not (values > 0).any():
        raise ValueError(f"{owner}: at least one query weight must be positive")
    choices = list(names)
    probabilities = values / values.sum()

    def draw(rng: np.random.Generator) -> QuerySpec:
        return QUERY_FACTORIES[str(rng.choice(choices, p=probabilities))](rng)

    return draw


@dataclass(frozen=True)
class OpenProcess:
    """An open arrival process at mean ``rate`` arrivals per second.

    Subclasses name their gap distribution in :meth:`_gaps`.  Every
    process is checked by the class that holds it and by the render
    loop, through :meth:`check`, so that an error names its owner.
    """

    rate: float

    def check(self, owner: str) -> None:
        if self.rate <= 0:
            raise ValueError(f"{owner}: rate must be positive, got {self.rate}")

    def offered_rate(self, horizon: float) -> Optional[float]:
        """Mean arrivals per second over a window of ``horizon`` seconds."""
        return self.rate

    def times(self, rng: np.random.Generator) -> Iterator[float]:
        """Arrival times, unbounded; each gap is drawn on demand."""
        gap = self._gaps(rng)
        time = 0.0
        while True:
            time += float(gap())
            yield time

    def _gaps(self, rng: np.random.Generator) -> Callable[[], float]:
        raise NotImplementedError  # pragma: no cover - interface


@dataclass(frozen=True)
class Poisson(OpenProcess):
    """Exponential interarrival gaps."""

    def _gaps(self, rng: np.random.Generator) -> Callable[[], float]:
        return lambda: rng.exponential(1.0 / self.rate)


@dataclass(frozen=True)
class Lognormal(OpenProcess):
    """Heavy-tailed lognormal gaps with mean ``1 / rate``.

    ``sigma`` sets tail weight; ``mu`` is solved so the mean gap stays
    ``1 / rate`` regardless of sigma — the offered load is the Poisson
    process's, but arrivals clump.
    """

    sigma: float = 1.0

    def check(self, owner: str) -> None:
        super().check(owner)
        if self.sigma <= 0:
            raise ValueError(f"{owner}: sigma must be positive, got {self.sigma}")

    def _gaps(self, rng: np.random.Generator) -> Callable[[], float]:
        mu = float(np.log(1.0 / self.rate) - self.sigma * self.sigma / 2.0)
        return lambda: rng.lognormal(mean=mu, sigma=self.sigma)


@dataclass(frozen=True)
class Pareto(OpenProcess):
    """Gaps ``xm * (1 + Pareto(alpha))`` with mean ``1 / rate``.

    Requires ``alpha > 1`` (the mean is infinite otherwise); ``xm`` is
    solved from ``mean = xm * alpha / (alpha - 1)``.  Smaller alpha ⇒
    heavier tail ⇒ longer quiet periods punctuated by bursts.
    """

    alpha: float = 1.5

    def check(self, owner: str) -> None:
        super().check(owner)
        if self.alpha <= 1:
            raise ValueError(
                f"{owner}: alpha must exceed 1 for a finite mean, got {self.alpha}"
            )

    def _gaps(self, rng: np.random.Generator) -> Callable[[], float]:
        xm = (1.0 / self.rate) * (self.alpha - 1.0) / self.alpha
        return lambda: xm * (1.0 + rng.pareto(self.alpha))


@dataclass(frozen=True)
class Mmpp(OpenProcess):
    """Two-state Markov-modulated Poisson process (bursty on/off traffic).

    The process alternates between an ON phase (Poisson at ``rate``)
    and an OFF phase (Poisson at ``rate_off``, default silent), with
    exponentially distributed phase sojourns of means ``mean_on`` and
    ``mean_off``.  Memorylessness lets the gap be redrawn at each phase
    switch without biasing the process.
    """

    rate_off: float = 0.0
    mean_on: float = 1.0
    mean_off: float = 1.0

    def check(self, owner: str) -> None:
        super().check(owner)
        if self.rate_off < 0:
            raise ValueError(
                f"{owner}: rate_off must be non-negative, got {self.rate_off}"
            )
        if self.mean_on <= 0 or self.mean_off <= 0:
            raise ValueError(f"{owner}: phase sojourn means must be positive")

    def times(self, rng: np.random.Generator) -> Iterator[float]:
        time = 0.0
        on = True
        phase_end = float(rng.exponential(self.mean_on))
        while True:
            rate = self.rate if on else self.rate_off
            if rate > 0:
                candidate = time + float(rng.exponential(1.0 / rate))
            else:
                candidate = phase_end  # silent phase: skip straight to the switch
            if candidate < phase_end:
                time = candidate
                yield time
            else:
                time = phase_end
                on = not on
                mean = self.mean_on if on else self.mean_off
                phase_end = time + float(rng.exponential(mean))


@dataclass(frozen=True)
class Closed:
    """``n_streams`` looping streams, each submitting its next query as
    soon as the previous one resolves (TPC-H throughput-test style)."""

    n_streams: int

    def check(self, owner: str) -> None:
        if self.n_streams < 1:
            raise ValueError(f"{owner}: closed classes need n_streams >= 1")

    def offered_rate(self, horizon: float) -> Optional[float]:
        """None: a closed class offers whatever the service completes."""
        return None


class Arrival(NamedTuple):
    """One rendered arrival: when, and which query."""

    time: float
    query: QuerySpec


@dataclass(frozen=True)
class ArrivalPlan:
    """Arrivals rendered ahead of a run, in time order.

    As a class's arrival process it is replayed verbatim: that is how a
    cluster replica receives its routed share of the fleet's load.  Its
    entries need only ``time`` and ``query``, so the load generator's
    :class:`~repro.workloads.loadgen.UserArrival` fits as well as
    :class:`Arrival`.
    """

    arrivals: Tuple[Arrival, ...]

    def check(self, owner: str) -> None:
        if any(b.time < a.time for a, b in zip(self.arrivals, self.arrivals[1:])):
            raise ValueError(f"{owner}: replayed arrivals must be in time order")

    def offered_rate(self, horizon: float) -> Optional[float]:
        """The replayed arrivals spread over the arrival window."""
        return len(self.arrivals) / horizon

    def as_streams(self) -> Tuple[List[List[QuerySpec]], List[float]]:
        """``(streams, stagger_list)`` for :func:`run_workload`."""
        return ([[arrival.query] for arrival in self.arrivals],
                [arrival.time for arrival in self.arrivals])

    @property
    def n_arrivals(self) -> int:
        """Number of arrivals in the plan."""
        return len(self.arrivals)


ArrivalProcess = Union[OpenProcess, Closed, ArrivalPlan]


def arrival_times(
    process: OpenProcess,
    horizon: float,
    rng: np.random.Generator,
    max_arrivals: int,
) -> Iterator[float]:
    """The open ``process``'s arrival times in ``[0, horizon)``, at most
    ``max_arrivals`` of them.

    The one render loop: the caller draws whatever an arrival carries
    from ``rng`` between two yields, so the draw order is gap → the
    caller's draws → next gap.
    """
    process.check("arrival process")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    times = process.times(rng)
    for _ in range(max_arrivals):
        time = next(times)
        if time >= horizon:
            return
        yield time


def plan_arrivals(
    process: OpenProcess,
    horizon: float,
    seed: int = 42,
    query_names: Optional[Sequence[str]] = None,
    query_weights: Weights = None,
    max_arrivals: int = 10_000,
) -> ArrivalPlan:
    """Render ``process`` over ``[0, horizon)``, drawing a query from the
    mix (default: all 22 templates) at each arrival; ``seed`` controls
    both.  Weights such as ``{"Q6": 5.0}`` model the analyst hotspot
    where cheap recent-data queries dominate."""
    rng = np.random.default_rng(seed)
    draw = query_mix("arrival plan", query_names or ALL_TEMPLATES, query_weights)
    return ArrivalPlan(tuple(
        Arrival(time, draw(rng))
        for time in arrival_times(process, horizon, rng, max_arrivals)
    ))
