"""Rendering a captured trace as a human-readable summary."""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence

from repro.trace.events import TraceEvent


def summarize(events: Sequence[TraceEvent]) -> Dict[str, object]:
    """Aggregate a trace into per-(category, kind) counts and time span."""
    counts: Counter = Counter()
    first_time = last_time = None
    for event in events:
        counts[(event.category, event.kind)] += 1
        if first_time is None or event.time < first_time:
            first_time = event.time
        if last_time is None or event.time > last_time:
            last_time = event.time
    return {
        "n_events": len(events),
        "first_time": first_time,
        "last_time": last_time,
        "counts": {
            f"{category}.{kind}": count
            for (category, kind), count in sorted(counts.items())
        },
    }


def render_summary(events: Sequence[TraceEvent], total_seen: int = 0) -> str:
    """A table of event counts by category.kind, plus the time span."""
    from repro.metrics.report import format_table

    summary = summarize(events)
    rows: List[List[object]] = [
        [name, count] for name, count in summary["counts"].items()
    ]
    table = format_table(["event", "count"], rows) if rows else "(no events)"
    span = ""
    if summary["first_time"] is not None:
        span = (
            f"\n{summary['n_events']} events over simulated "
            f"[{summary['first_time']:.6f}, {summary['last_time']:.6f}] s"
        )
        if total_seen > summary["n_events"]:
            span += f" (ring buffer retained {summary['n_events']}/{total_seen})"
    return table + span
