"""Per-class admission queues and deterministic weighted-fair selection."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.engine.query import QuerySpec
from repro.sim.events import Event
from repro.workloads.arrivals import ClassContract


@dataclass
class QueryRequest:
    """One request travelling through the service.

    ``completion`` succeeds when the request either finishes execution
    or abandons its queue — closed-class producer loops wait on it.
    """

    request_id: int
    class_name: str
    query: QuerySpec
    arrived_at: float
    completion: Event
    admitted_at: Optional[float] = None
    finished_at: Optional[float] = None
    abandoned_at: Optional[float] = None

    @property
    def admitted(self) -> bool:
        return self.admitted_at is not None

    @property
    def resolved(self) -> bool:
        """Whether the request has left the system (done or abandoned)."""
        return self.finished_at is not None or self.abandoned_at is not None

    @property
    def admission_wait(self) -> float:
        """Time spent queued before admission or abandonment."""
        if self.admitted_at is not None:
            return self.admitted_at - self.arrived_at
        if self.abandoned_at is not None:
            return self.abandoned_at - self.arrived_at
        raise ValueError(f"request {self.request_id} is still queued")

    @property
    def latency(self) -> float:
        """End-to-end time from arrival to completion."""
        if self.finished_at is None:
            raise ValueError(f"request {self.request_id} never finished")
        return self.finished_at - self.arrived_at


@dataclass
class AdmissionQueue:
    """FIFO of waiting requests for one service class.

    Tracks the class's running count (for its per-class MPL cap) and
    samples its own length on every transition so queue-growth metrics
    need no polling process.
    """

    spec: ClassContract
    running: int = 0
    _waiting: Deque[QueryRequest] = field(default_factory=deque)
    #: ``(time, queue_len)`` recorded at every push/pop/remove.
    length_samples: List[Tuple[float, int]] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.spec.name

    def __len__(self) -> int:
        return len(self._waiting)

    @property
    def eligible(self) -> bool:
        """Whether this class can receive an admission slot right now."""
        if not self._waiting:
            return False
        return self.spec.max_mpl == 0 or self.running < self.spec.max_mpl

    def push(self, request: QueryRequest, now: float) -> None:
        self._waiting.append(request)
        self.length_samples.append((now, len(self._waiting)))

    def pop(self, now: float) -> QueryRequest:
        request = self._waiting.popleft()
        self.length_samples.append((now, len(self._waiting)))
        return request

    def remove(self, request: QueryRequest, now: float) -> bool:
        """Drop an abandoning request; False if it already left the queue."""
        try:
            self._waiting.remove(request)
        except ValueError:
            return False
        self.length_samples.append((now, len(self._waiting)))
        return True


class WeightedFairSelector:
    """Start-time weighted-fair queuing over admission queues.

    Each admission charges the chosen class ``1 / weight`` of virtual
    time; the next slot goes to the eligible class with the smallest
    accumulated virtual time.  Ties break on class name so selection is
    a pure function of admission history — no wall clock, no randomness.
    """

    def __init__(self, queues: Sequence[AdmissionQueue]):
        self._queues = sorted(queues, key=lambda q: q.name)
        self._virtual: Dict[str, float] = {q.name: 0.0 for q in self._queues}

    def select(self) -> Optional[AdmissionQueue]:
        """The eligible queue owed the next slot, or None."""
        candidates = [q for q in self._queues if q.eligible]
        if not candidates:
            return None
        return min(candidates, key=lambda q: (self._virtual[q.name], q.name))

    def charge(self, queue: AdmissionQueue) -> None:
        """Record one admission against ``queue``'s fair share."""
        self._virtual[queue.name] += 1.0 / queue.spec.weight

    def virtual_time(self, name: str) -> float:
        """Accumulated weighted service of a class (for tests)."""
        return self._virtual[name]
