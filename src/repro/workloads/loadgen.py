"""Templated query-set load generation for simulated user populations.

Fixed scenario specs (one handwritten :class:`ServiceClass` per
workload) stop scaling once the population does: a cluster serving a
million analysts is not three classes with three rates, it is a
*distribution* over users, each with their own favourite tables, their
own think-time rhythm, and their own query-template mix.  This module
replaces the fixed specs with a mobu-``TAPQuerySetRunner``-style
generator: every arrival is attributed to one simulated user drawn from
a (possibly zipf-skewed) population, and the user's identity
deterministically biases which query template — and therefore which
table, and ultimately which shard and replica — the arrival hits.

Two pieces live here:

* the **sweep grammar** (:class:`NoScan` / :class:`RangeScan` /
  :class:`ExplicitScan` behind :class:`Scannable`), a tiny
  ARTIQ-``scan``-style vocabulary for describing a scenario axis as a
  first-class value experiments can iterate and describe;
* the **load generator** (:class:`LoadSpec` → :func:`generate_load`),
  which renders a user population into a concrete, fully deterministic
  :class:`LoadPlan` of timestamped, user-attributed queries.

Determinism: every draw for one class comes from a single
``numpy`` generator seeded via SHA-256 from ``(seed, class name)``, in
the fixed order gap → user → template → query parameters, so a plan is
a pure function of ``(LoadSpec, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.engine.query import QuerySpec
from repro.workloads.arrivals import (
    ClassContract,
    Lognormal,
    arrival_times,
    check_templates,
    stable_hash,
)
from repro.workloads.tpch_queries import QUERY_FACTORIES

#: Load-balancing choices a cluster router understands (re-exported by
#: :mod:`repro.cluster.spec`): pure ring preference order, or the
#: least-loaded replica among a shard's holders.
BALANCE_KINDS = ("preference", "least-loaded")


# ----------------------------------------------------------------------
# Sweep grammar (Scannable-style scenario axes)
# ----------------------------------------------------------------------


class ScanAxis:
    """One scenario axis: an iterable, self-describing value sequence.

    Subclasses implement ``__iter__``/``__len__`` plus ``describe`` —
    the dict form is JSON-safe so an axis can sit inside experiment
    metrics and name exactly which grid a result came from.
    """

    def __iter__(self) -> Iterator[Any]:  # pragma: no cover - interface
        raise NotImplementedError

    def __len__(self) -> int:  # pragma: no cover - interface
        raise NotImplementedError

    def describe(self) -> Dict[str, Any]:  # pragma: no cover - interface
        raise NotImplementedError


class NoScan(ScanAxis):
    """A degenerate axis: one pinned value, optionally repeated."""

    def __init__(self, value: Any, repetitions: int = 1):
        if repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {repetitions}")
        self.value = value
        self.repetitions = repetitions

    def __iter__(self) -> Iterator[Any]:
        for _ in range(self.repetitions):
            yield self.value

    def __len__(self) -> int:
        return self.repetitions

    def describe(self) -> Dict[str, Any]:
        return {"kind": "no-scan", "value": self.value,
                "repetitions": self.repetitions}


class RangeScan(ScanAxis):
    """``npoints`` evenly spaced values over ``[start, stop]``."""

    def __init__(self, start: float, stop: float, npoints: int):
        if npoints < 1:
            raise ValueError(f"npoints must be >= 1, got {npoints}")
        self.start = float(start)
        self.stop = float(stop)
        self.npoints = npoints

    def __iter__(self) -> Iterator[float]:
        if self.npoints == 1:
            yield self.start
            return
        step = (self.stop - self.start) / (self.npoints - 1)
        for index in range(self.npoints):
            yield self.start + step * index

    def __len__(self) -> int:
        return self.npoints

    def describe(self) -> Dict[str, Any]:
        return {"kind": "range-scan", "start": self.start,
                "stop": self.stop, "npoints": self.npoints}


class ExplicitScan(ScanAxis):
    """An explicit value sequence (the workhorse for replica counts)."""

    def __init__(self, sequence: Sequence[Any]):
        if not sequence:
            raise ValueError("explicit scan needs at least one value")
        self.sequence = tuple(sequence)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.sequence)

    def __len__(self) -> int:
        return len(self.sequence)

    def describe(self) -> Dict[str, Any]:
        return {"kind": "explicit-scan", "sequence": list(self.sequence)}


class Scannable:
    """A named, unit-carrying wrapper around one :class:`ScanAxis`.

    Experiments declare their axes as ``Scannable("replicas",
    ExplicitScan((1, 2, 4)))`` and iterate the wrapper; ``describe``
    composes the axis description with the axis name for metrics.
    """

    def __init__(self, name: str, axis: ScanAxis, unit: str = ""):
        if not name:
            raise ValueError("scannable needs a name")
        if not isinstance(axis, ScanAxis):
            raise TypeError(
                f"axis must be a ScanAxis (NoScan/RangeScan/ExplicitScan), "
                f"got {type(axis).__name__}"
            )
        self.name = name
        self.axis = axis
        self.unit = unit

    def __iter__(self) -> Iterator[Any]:
        return iter(self.axis)

    def __len__(self) -> int:
        return len(self.axis)

    def describe(self) -> Dict[str, Any]:
        description = {"name": self.name, **self.axis.describe()}
        if self.unit:
            description["unit"] = self.unit
        return description


# ----------------------------------------------------------------------
# User populations
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class UserClass(ClassContract):
    """One stratum of the simulated user population.

    ``share`` is the stratum's fraction of the population (normalized
    over all classes); its aggregate arrival rate is ``population_share
    / think_mean`` — every user fires a query once per think time on
    average, so a million light users and a thousand heavy ones are both
    one line of spec.  ``table_zipf`` skews each user toward *their own*
    preferred templates: the preference order is a pure function of the
    user id, so hot users (under a zipf-skewed population) concentrate
    load on specific tables — and, downstream, specific shards.  The
    queueing contract is forwarded to every replica's service.
    """

    #: Fraction of the population in this class (normalized over classes).
    share: float = 1.0
    #: Query templates this class draws from, in canonical order.
    templates: Tuple[str, ...] = ("Q6",)
    #: Zipf exponent biasing a user toward their preferred templates
    #: (0 = uniform over ``templates``).
    table_zipf: float = 0.0
    #: Mean seconds between one user's queries.
    think_mean: float = 1.0
    #: Lognormal sigma of the class's interarrival gaps (tail weight).
    think_sigma: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.share <= 0:
            raise ValueError(f"class {self.name}: share must be positive")
        check_templates(f"class {self.name}", self.templates)
        if self.table_zipf < 0:
            raise ValueError(f"class {self.name}: table_zipf must be >= 0")
        if self.think_mean <= 0:
            raise ValueError(f"class {self.name}: think_mean must be positive")
        if self.think_sigma <= 0:
            raise ValueError(f"class {self.name}: think_sigma must be positive")

    def template_probabilities(self) -> np.ndarray:
        """The zipf-shaped pmf over preference *ranks* (not templates)."""
        ranks = np.arange(1, len(self.templates) + 1, dtype=float)
        weights = ranks ** -self.table_zipf
        return weights / weights.sum()


@dataclass(frozen=True)
class LoadSpec:
    """A whole population's load: classes, horizon, and skew knobs."""

    classes: Tuple[UserClass, ...]
    #: Simulated user population size (ids ``0 .. n_users-1``).
    n_users: int = 1_000_000
    #: Arrival window in simulated seconds.
    horizon: float = 10.0
    #: Zipf exponent skewing arrival attribution over user ids (0 =
    #: uniform; must exceed 1 otherwise, matching ``numpy``'s sampler).
    user_zipf: float = 0.0
    #: Safety bound per class.
    max_arrivals_per_class: int = 10_000

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("load spec needs at least one user class")
        names = [cls.name for cls in self.classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate user class names: {names}")
        if self.n_users < 1:
            raise ValueError(f"n_users must be >= 1, got {self.n_users}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.user_zipf != 0.0 and self.user_zipf <= 1.0:
            raise ValueError(
                f"user_zipf must be 0 (uniform) or > 1, got {self.user_zipf}"
            )
        if self.max_arrivals_per_class < 1:
            raise ValueError("max_arrivals_per_class must be >= 1")

    def class_rate(self, cls: UserClass) -> float:
        """Aggregate arrivals/second this class offers the fleet."""
        total_share = sum(c.share for c in self.classes)
        return (cls.share / total_share) * self.n_users / cls.think_mean


# ----------------------------------------------------------------------
# Plan rendering
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class UserArrival:
    """One generated arrival: who, when, and what they asked for."""

    time: float
    user_id: int
    query: QuerySpec

    @property
    def table(self) -> str:
        """The query's primary table — the routing key's first half."""
        return self.query.scans[0].table


@dataclass(frozen=True)
class ClassLoadPlan:
    """Every arrival one user class generated, in time order."""

    user_class: UserClass
    arrivals: Tuple[UserArrival, ...]

    @property
    def n_arrivals(self) -> int:
        return len(self.arrivals)


@dataclass(frozen=True)
class LoadPlan:
    """A rendered :class:`LoadSpec`: the cluster's whole offered load."""

    spec: LoadSpec
    classes: Tuple[ClassLoadPlan, ...]

    @property
    def n_arrivals(self) -> int:
        return sum(plan.n_arrivals for plan in self.classes)

    def distinct_users(self) -> int:
        """How many distinct simulated users actually appear."""
        return len({
            arrival.user_id
            for plan in self.classes
            for arrival in plan.arrivals
        })


def _draw_user(rng: np.random.Generator, n_users: int, zipf: float) -> int:
    """Draw one user id, zipf-skewed toward low ids when ``zipf > 1``.

    Rejection keeps the truncated-zipf pmf exact; at the exponents the
    scenarios use the reject rate over 10^6 users is negligible, and the
    loop's draws all come from ``rng`` so determinism is preserved.
    """
    if zipf == 0.0 or n_users == 1:
        return int(rng.integers(0, n_users))
    while True:
        rank = int(rng.zipf(zipf))
        if rank <= n_users:
            return rank - 1


def _preferred_template(
    cls: UserClass, user_id: int, rank: int
) -> str:
    """The user's ``rank``-th favourite template.

    Preference order is the class template list rotated by a
    Knuth-multiplicative mix of the user id: a pure function, so one
    user always favours the same tables across runs and replicas.
    """
    m = len(cls.templates)
    offset = (user_id * 2654435761) % m
    return cls.templates[(offset + rank) % m]


def generate_load(spec: LoadSpec, seed: int = 42) -> LoadPlan:
    """Render a :class:`LoadSpec` into a deterministic :class:`LoadPlan`.

    Per class: a :class:`~repro.workloads.arrivals.Lognormal` process at
    ``class_rate`` with the class's ``think_sigma`` (the superposition
    of the stratum's individual think-time loops), each arrival
    attributed to a drawn user whose identity biases the template
    choice.  Draw order per arrival is strictly gap → user → template
    rank → query parameters.
    """
    plans: List[ClassLoadPlan] = []
    for cls in spec.classes:
        rng = np.random.default_rng(stable_hash("repro.loadgen", seed, cls.name))
        process = Lognormal(spec.class_rate(cls), sigma=cls.think_sigma)
        probabilities = cls.template_probabilities()
        ranks = np.arange(len(cls.templates))
        arrivals: List[UserArrival] = []
        for time in arrival_times(process, spec.horizon, rng,
                                  spec.max_arrivals_per_class):
            user_id = _draw_user(rng, spec.n_users, spec.user_zipf)
            rank = int(rng.choice(ranks, p=probabilities))
            template = _preferred_template(cls, user_id, rank)
            query = QUERY_FACTORIES[template](rng)
            arrivals.append(UserArrival(
                time=time, user_id=user_id, query=query,
            ))
        plans.append(ClassLoadPlan(
            user_class=cls, arrivals=tuple(arrivals),
        ))
    return LoadPlan(spec=spec, classes=tuple(plans))
