"""Run-time collection of query/stream events."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class QueryRecord:
    """One completed query execution."""

    stream_id: int
    query_name: str
    started_at: float
    finished_at: float
    pages_scanned: int
    cpu_seconds: float
    throttle_seconds: float


class MetricsCollector:
    """Accumulates per-query records during a workload run."""

    def __init__(self) -> None:
        self._queries: List[QueryRecord] = []

    def record_query(self, record: QueryRecord) -> None:
        """Store one completed query."""
        self._queries.append(record)

    @property
    def queries(self) -> List[QueryRecord]:
        """All recorded queries in completion order."""
        return list(self._queries)

    def total_throttle_seconds(self) -> float:
        """Total throttle waits served by all queries."""
        return sum(r.throttle_seconds for r in self._queries)
