"""The arrival generators and the load generator as they were before the
offered-load model, verbatim.

``tests/test_load_model.py`` holds the offered-load model in
``repro.workloads.arrivals`` to these reference implementations: every
open process and ``generate_load`` must render the same ``(time,
query)`` sequence, bit for bit.  Only the imports above the copied code
are new.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.query import QuerySpec
from repro.workloads.loadgen import (
    ClassLoadPlan,
    LoadPlan,
    LoadSpec,
    UserArrival,
    UserClass,
)
from repro.workloads.tpch_queries import QUERY_FACTORIES


@dataclass(frozen=True)
class ArrivalPlan:
    """A generated open workload: queries with their arrival times."""

    queries: List[QuerySpec]
    arrival_times: List[float]

    def as_streams(self) -> Tuple[List[List[QuerySpec]], List[float]]:
        """``(streams, stagger_list)`` for :func:`run_workload`."""
        return [[query] for query in self.queries], list(self.arrival_times)

    @property
    def n_arrivals(self) -> int:
        """Number of arrivals in the plan."""
        return len(self.queries)


def poisson_arrivals(
    rate_per_second: float,
    horizon_seconds: float,
    seed: int = 42,
    query_names: Optional[Sequence[str]] = None,
    query_weights: Optional[Dict[str, float]] = None,
    max_arrivals: int = 10_000,
) -> ArrivalPlan:
    """Poisson process of query arrivals over ``[0, horizon_seconds)``.

    Args:
        rate_per_second: Expected arrivals per simulated second.
        horizon_seconds: Length of the arrival window.
        seed: RNG seed (controls both arrival times and template params).
        query_names: Templates to draw from (default: all 22).
        query_weights: Optional relative weights per template name —
            e.g. ``{"Q6": 5.0}`` models the analyst hotspot where cheap
            recent-data queries dominate.
        max_arrivals: Safety bound.
    """
    _validate_window(rate_per_second, horizon_seconds)
    rng = np.random.default_rng(seed)
    names, probabilities = _query_mix(query_names, query_weights)
    return _render_arrivals(
        lambda: rng.exponential(1.0 / rate_per_second),
        horizon_seconds, rng, names, probabilities, max_arrivals,
    )


def _validate_window(rate_per_second: float, horizon_seconds: float) -> None:
    if rate_per_second <= 0:
        raise ValueError(f"rate must be positive, got {rate_per_second}")
    if horizon_seconds <= 0:
        raise ValueError(f"horizon must be positive, got {horizon_seconds}")


def _query_mix(
    query_names: Optional[Sequence[str]],
    query_weights: Optional[Dict[str, float]],
) -> Tuple[List[str], np.ndarray]:
    names = list(query_names) if query_names else sorted(
        QUERY_FACTORIES, key=lambda n: int(n[1:])
    )
    weights = np.array(
        [float((query_weights or {}).get(name, 1.0)) for name in names]
    )
    if (weights <= 0).all():
        raise ValueError("at least one query weight must be positive")
    return names, weights / weights.sum()


def _render_arrivals(
    gaps_then_queries,
    horizon_seconds: float,
    rng: np.random.Generator,
    names: List[str],
    probabilities: np.ndarray,
    max_arrivals: int,
) -> ArrivalPlan:
    """Walk ``gaps_then_queries`` (a gap generator) into an ArrivalPlan.

    Draw order is strictly gap-then-query from the single ``rng`` so a
    plan is a pure function of ``(kind, params, seed)``.
    """
    arrival_times: List[float] = []
    queries: List[QuerySpec] = []
    time = 0.0
    while len(arrival_times) < max_arrivals:
        time += float(gaps_then_queries())
        if time >= horizon_seconds:
            break
        name = str(rng.choice(names, p=probabilities))
        arrival_times.append(time)
        queries.append(QUERY_FACTORIES[name](rng))
    return ArrivalPlan(queries=queries, arrival_times=arrival_times)


def lognormal_arrivals(
    rate_per_second: float,
    horizon_seconds: float,
    seed: int = 42,
    sigma: float = 1.0,
    query_names: Optional[Sequence[str]] = None,
    query_weights: Optional[Dict[str, float]] = None,
    max_arrivals: int = 10_000,
) -> ArrivalPlan:
    """Heavy-tailed lognormal interarrivals with mean ``1 / rate``.

    ``sigma`` sets tail weight; ``mu`` is solved so the mean gap stays
    ``1 / rate_per_second`` regardless of sigma — the offered load is
    the same as the Poisson process, but arrivals clump.
    """
    _validate_window(rate_per_second, horizon_seconds)
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    rng = np.random.default_rng(seed)
    names, probabilities = _query_mix(query_names, query_weights)
    mu = float(np.log(1.0 / rate_per_second) - sigma * sigma / 2.0)
    return _render_arrivals(
        lambda: rng.lognormal(mean=mu, sigma=sigma),
        horizon_seconds, rng, names, probabilities, max_arrivals,
    )


def pareto_arrivals(
    rate_per_second: float,
    horizon_seconds: float,
    seed: int = 42,
    alpha: float = 1.5,
    query_names: Optional[Sequence[str]] = None,
    query_weights: Optional[Dict[str, float]] = None,
    max_arrivals: int = 10_000,
) -> ArrivalPlan:
    """Pareto interarrivals ``xm * (1 + Pareto(alpha))`` with mean ``1 / rate``.

    Requires ``alpha > 1`` (the mean is infinite otherwise); ``xm`` is
    solved from ``mean = xm * alpha / (alpha - 1)``.  Smaller alpha ⇒
    heavier tail ⇒ longer quiet periods punctuated by bursts.
    """
    _validate_window(rate_per_second, horizon_seconds)
    if alpha <= 1:
        raise ValueError(f"alpha must exceed 1 for a finite mean, got {alpha}")
    rng = np.random.default_rng(seed)
    names, probabilities = _query_mix(query_names, query_weights)
    xm = (1.0 / rate_per_second) * (alpha - 1.0) / alpha
    return _render_arrivals(
        lambda: xm * (1.0 + rng.pareto(alpha)),
        horizon_seconds, rng, names, probabilities, max_arrivals,
    )


def mmpp_arrivals(
    rate_per_second: float,
    horizon_seconds: float,
    seed: int = 42,
    rate_off: float = 0.0,
    mean_on_seconds: float = 1.0,
    mean_off_seconds: float = 1.0,
    query_names: Optional[Sequence[str]] = None,
    query_weights: Optional[Dict[str, float]] = None,
    max_arrivals: int = 10_000,
) -> ArrivalPlan:
    """Two-state Markov-modulated Poisson process (bursty on/off traffic).

    The process alternates between an ON phase (Poisson at
    ``rate_per_second``) and an OFF phase (Poisson at ``rate_off``,
    default silent), with exponentially distributed phase sojourns.
    Memorylessness lets us redraw the gap at each phase switch without
    biasing the process.
    """
    _validate_window(rate_per_second, horizon_seconds)
    if rate_off < 0:
        raise ValueError(f"rate_off must be non-negative, got {rate_off}")
    if mean_on_seconds <= 0 or mean_off_seconds <= 0:
        raise ValueError("phase sojourn means must be positive")
    rng = np.random.default_rng(seed)
    names, probabilities = _query_mix(query_names, query_weights)

    arrival_times: List[float] = []
    queries: List[QuerySpec] = []
    time = 0.0
    on = True
    phase_end = float(rng.exponential(mean_on_seconds))
    while len(arrival_times) < max_arrivals:
        rate = rate_per_second if on else rate_off
        if rate > 0:
            candidate = time + float(rng.exponential(1.0 / rate))
        else:
            candidate = phase_end  # silent phase: skip straight to the switch
        if candidate < phase_end:
            if candidate >= horizon_seconds:
                break
            time = candidate
            name = str(rng.choice(names, p=probabilities))
            arrival_times.append(time)
            queries.append(QUERY_FACTORIES[name](rng))
        else:
            time = phase_end
            if time >= horizon_seconds:
                break
            on = not on
            mean = mean_on_seconds if on else mean_off_seconds
            phase_end = time + float(rng.exponential(mean))
    return ArrivalPlan(queries=queries, arrival_times=arrival_times)


def _class_seed(base_seed: int, class_name: str) -> int:
    """Stable per-class generator seed (SHA-256, PYTHONHASHSEED-proof)."""
    payload = f"repro.loadgen:{base_seed}:{class_name}".encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


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

    Per class: lognormal interarrival gaps with mean ``1 / class_rate``
    (the superposition of the stratum's individual think-time loops),
    each arrival attributed to a drawn user whose identity biases the
    template choice.  Draw order per arrival is strictly gap → user →
    template rank → query parameters.
    """
    plans: List[ClassLoadPlan] = []
    for cls in spec.classes:
        rng = np.random.default_rng(_class_seed(seed, cls.name))
        rate = spec.class_rate(cls)
        sigma = cls.think_sigma
        mu = float(np.log(1.0 / rate) - sigma * sigma / 2.0)
        probabilities = cls.template_probabilities()
        ranks = np.arange(len(cls.templates))
        arrivals: List[UserArrival] = []
        time = 0.0
        while len(arrivals) < spec.max_arrivals_per_class:
            time += float(rng.lognormal(mean=mu, sigma=sigma))
            if time >= spec.horizon:
                break
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
