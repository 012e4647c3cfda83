"""Fault plans: pure, deterministic descriptions of what to break.

A plan is parsed from a compact spec string — the same grammar the CLI's
``chaos`` command and the experiment runner's ``fault_spec`` setting
accept — plus a seed that derives every random draw the injector will
make.  Two plans built from the same (spec, seed) pair inject byte-
identical fault schedules, which is what lets chaos runs share the
runner's determinism guarantees.

Spec grammar (clauses separated by ``;``, options by ``,``)::

    scan-kill[:target=leader,at=0.4,count=1,nth=0,replica=-1]
    disk-delay[:factor=4.0,from=0.0,until=inf,device=-1,replica=-1]
    disk-error[:rate=0.05,from=0.0,until=inf,max_retries=4,backoff=0.002,device=-1,replica=-1]
    pool-pressure[:fraction=0.5,from=0.0,until=inf,replica=-1]

``device`` pins a disk clause to one spindle of a striped array
(``device=-1``, the default, hits every device).  ``replica`` pins any
clause to one replica of a cluster run (``replica=-1``, the default,
applies everywhere — including single-node runs, which ignore the
field): the cluster service filters each replica's plan with
:meth:`FaultPlan.for_replica` *before* building that replica's
injector, so killing one replica's scans never perturbs the RNG draws
of the others.

Builtin aliases expand to tuned clauses: ``leader-abort``,
``trailer-abort``, ``disk-degrade``, ``disk-errors``, ``pool-pressure``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple, Union

from repro.fields import FieldError, check_fields, parse_assignments

#: Selectors a scan-kill clause may target.
KILL_TARGETS = ("any", "leader", "trailer", "anchor", "nth")


class FaultSpecError(ValueError):
    """Raised for an unparsable or out-of-range fault spec."""


class _Clause:
    """What every clause kind shares.  A kind without a ``from``/``until``
    window is always active and one without a ``device`` pin hits every
    spindle.  Each kind lists its own ``(field, ok, need)`` range checks
    in ``_ranges``."""

    start = 0.0
    until = math.inf
    device = -1

    def __post_init__(self) -> None:
        if self.start < 0 or self.until < self.start:
            raise FaultSpecError(
                f"{self.kind} window must satisfy 0 <= from <= until, got "
                f"[{self.start}, {self.until}]"
            )
        pin = ">= 0 (or -1 for all)"
        try:
            check_fields(self, self._ranges() + (
                ("device", self.device >= -1, pin),
                ("replica", self.replica >= -1, pin),
            ))
        except FieldError as exc:
            raise FaultSpecError(f"{self.kind} {exc}") from None

    def matches_replica(self, replica_index: int) -> bool:
        """Whether the clause applies to a given cluster replica."""
        return self.replica < 0 or self.replica == replica_index

    def active_at(self, now: float) -> bool:
        """Whether the window covers simulated time ``now``."""
        return self.start <= now < self.until

    def matches_device(self, device_index: int) -> bool:
        """Whether the clause applies to a given spindle."""
        return self.device < 0 or self.device == device_index


@dataclass(frozen=True)
class ScanKillFault(_Clause):
    """Kill scans mid-flight, modelling a query abort / process death.

    The victim dies *without* calling ``end_scan``: the scan operator
    raises :class:`~repro.faults.injector.ScanKilled` and the manager
    learns of the death only through ``abort_scan`` — the cleanup path a
    production system's health checker would drive.

    ``target`` selects the victim the moment it crosses ``at`` (a
    fraction of its scan range): ``leader``/``trailer`` require the
    matching group flag in a multi-member group, ``anchor`` the group's
    current throttle anchor (the rear-most non-exempt live member),
    ``nth`` the scan with id ``nth``, ``any`` the first scan to arrive.
    ``count`` bounds how many scans the clause kills in total.
    """

    target: str = "any"
    at: float = 0.5
    count: int = 1
    nth: int = 0
    #: Restrict the clause to one cluster replica (-1 = everywhere).
    replica: int = -1

    kind = "scan-kill"

    def __post_init__(self) -> None:
        if self.target not in KILL_TARGETS:
            raise FaultSpecError(
                f"scan-kill target must be one of {KILL_TARGETS}, got {self.target!r}"
            )
        super().__post_init__()

    def _ranges(self) -> Tuple[Tuple[str, bool, str], ...]:
        return (("at", 0.0 <= self.at <= 1.0, "in [0, 1]"),
                ("count", self.count >= 1, ">= 1"))


@dataclass(frozen=True)
class DiskDelayFault(_Clause):
    """Multiply disk service times by ``factor`` inside a time window.

    Models a degrading device (vibration, remapped sectors, a busy
    neighbour on shared storage).  ``from``/``until`` bound the window in
    simulated seconds; ``until=inf`` degrades the device for the rest of
    the run.  ``device`` restricts the fault to one spindle of a striped
    array (-1, the default, degrades every device — and the lone disk of
    a single-device system).
    """

    factor: float = 4.0
    start: float = 0.0
    until: float = math.inf
    device: int = -1
    #: Restrict the clause to one cluster replica (-1 = everywhere).
    replica: int = -1

    kind = "disk-delay"

    def _ranges(self) -> Tuple[Tuple[str, bool, str], ...]:
        return (("factor", self.factor >= 1.0, ">= 1"),)


@dataclass(frozen=True)
class DiskErrorFault(_Clause):
    """Fail disk requests transiently with probability ``rate``.

    A failed service attempt is retried by the device after an
    exponential backoff (``backoff * 2**attempt``); after
    ``max_retries`` failed attempts the request is forced through, so an
    error fault degrades throughput but never wedges the simulation.
    """

    rate: float = 0.05
    start: float = 0.0
    until: float = math.inf
    max_retries: int = 4
    backoff: float = 0.002
    #: Restrict the clause to one spindle of a striped array (-1 = all).
    device: int = -1
    #: Restrict the clause to one cluster replica (-1 = everywhere).
    replica: int = -1

    kind = "disk-error"

    def _ranges(self) -> Tuple[Tuple[str, bool, str], ...]:
        return (("rate", 0.0 <= self.rate <= 1.0, "in [0, 1]"),
                ("max_retries", self.max_retries >= 1, ">= 1"),
                ("backoff", self.backoff >= 0, ">= 0"))


@dataclass(frozen=True)
class PoolPressureFault(_Clause):
    """Reserve ``fraction`` of the bufferpool inside a time window.

    Models external memory pressure (another pool, a sort spill, an OS
    reclaim): the pool's effective capacity shrinks and scans must make
    do with the remainder.  The pool clamps the reservation so forward
    progress is always possible.
    """

    fraction: float = 0.5
    start: float = 0.0
    until: float = math.inf
    #: Restrict the clause to one cluster replica (-1 = everywhere).
    replica: int = -1

    kind = "pool-pressure"

    def _ranges(self) -> Tuple[Tuple[str, bool, str], ...]:
        return (("fraction", 0.0 < self.fraction < 1.0, "in (0, 1)"),)


Fault = Union[ScanKillFault, DiskDelayFault, DiskErrorFault, PoolPressureFault]

_FAULT_TYPES: Dict[str, type] = {
    cls.kind: cls
    for cls in (ScanKillFault, DiskDelayFault, DiskErrorFault, PoolPressureFault)
}

#: Option-name aliases: the spec grammar says ``from``/``until`` but the
#: dataclass field is ``start`` (``from`` is a Python keyword).
_OPTION_ALIASES = {"from": "start"}

#: Named plans the acceptance battery runs: one per failure family.
BUILTIN_PLANS: Dict[str, str] = {
    "leader-abort": "scan-kill:target=leader,at=0.4",
    "trailer-abort": "scan-kill:target=anchor,at=0.4",
    "disk-degrade": "disk-delay:factor=4.0,from=0.0",
    "disk-errors": "disk-error:rate=0.05,max_retries=4,backoff=0.002",
    "pool-pressure": "pool-pressure:fraction=0.5,from=0.0",
}


def _parse_clause(clause: str) -> Fault:
    head, _, tail = clause.partition(":")
    head = head.strip()
    if head in BUILTIN_PLANS and not tail:
        return _parse_clause(BUILTIN_PLANS[head])
    cls = _FAULT_TYPES.get(head)
    if cls is None:
        known = sorted(set(_FAULT_TYPES) | set(BUILTIN_PLANS))
        raise FaultSpecError(
            f"unknown fault kind {head!r} (known: {', '.join(known)})"
        )
    try:
        options = parse_assignments(cls, tail, _OPTION_ALIASES)
    except FieldError as exc:
        raise FaultSpecError(f"{cls.kind} option {exc}") from None
    return cls(**options)


def parse_fault_spec(spec: str) -> Tuple[Fault, ...]:
    """Parse a spec string into a tuple of fault clauses.

    Raises :class:`FaultSpecError` on an empty spec, an unknown fault
    kind or option, or an out-of-range value.
    """
    clauses = [clause.strip() for clause in spec.split(";") if clause.strip()]
    if not clauses:
        raise FaultSpecError("fault spec names no clauses")
    return tuple(_parse_clause(clause) for clause in clauses)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable fault schedule: parsed clauses plus the draw seed.

    Equality is over (spec, seed), so a plan can sit inside the frozen
    :class:`~repro.engine.database.SystemConfig` and participate in
    settings comparisons.
    """

    spec: str
    seed: int
    faults: Tuple[Fault, ...] = ()

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse ``spec`` and bind it to ``seed``."""
        return cls(spec=spec, seed=seed, faults=parse_fault_spec(spec))

    def for_replica(self, replica_index: int) -> "FaultPlan":
        """The sub-plan a given cluster replica should inject.

        Keeps only clauses whose ``replica`` pin matches (unpinned
        clauses match everywhere); spec and seed carry over unchanged,
        so the surviving clauses draw exactly as they would have in a
        single-node run.  May return a plan with no clauses — callers
        should skip injector construction entirely in that case.
        """
        return FaultPlan(
            spec=self.spec,
            seed=self.seed,
            faults=tuple(
                fault for fault in self.faults
                if fault.matches_replica(replica_index)
            ),
        )
