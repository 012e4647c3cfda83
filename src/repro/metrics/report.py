"""Plain-text rendering of experiment results."""

from __future__ import annotations

import math
from typing import List, Mapping, Sequence


def percent_gain(base: float, improved: float) -> float:
    """Percentage improvement of ``improved`` over ``base`` (positive = better).

    Matches the paper's convention: a run that takes 79 s against a 100 s
    baseline is a 21 % gain.
    """
    if base == 0:
        return 0.0
    return 100.0 * (base - improved) / base


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated percentile of ``values`` (``0 <= q <= 100``).

    Nearest-rank percentiles collapse on small samples — with three
    latencies, p95 == p99 == max, and the value jumps discontinuously
    as samples trickle in.  Interpolating between the two bracketing
    order statistics (numpy's default ``linear`` method) keeps service
    tables smooth and meaningful at the per-class sample sizes short
    sim runs produce.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not values:
        raise ValueError("cannot take a percentile of an empty sequence")
    ordered = sorted(float(v) for v in values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


#: Column order for :func:`format_service_table`; keys into each class row.
SERVICE_COLUMNS = (
    ("class", "class"),
    ("arrived", "n_arrived"),
    ("done", "n_completed"),
    ("abandoned", "n_abandoned"),
    ("wait_p50", "wait_p50"),
    ("wait_p99", "wait_p99"),
    ("lat_p50", "latency_p50"),
    ("lat_p95", "latency_p95"),
    ("lat_p99", "latency_p99"),
    ("qps", "throughput"),
    ("slo%", "slo_attainment"),
)


#: Columns that only mean something once a request has completed.
_COMPLETION_COLUMNS = frozenset(
    ("latency_p50", "latency_p95", "latency_p99", "throughput",
     "slo_attainment")
)

#: Columns that only mean something once a request has arrived.
_ARRIVAL_COLUMNS = frozenset(("wait_p50", "wait_p99"))


def format_service_table(
    class_rows: Sequence[Mapping[str, object]],
    fleet_row: bool = False,
) -> str:
    """Render per-class service metrics as an aligned table.

    Each row is a mapping with the keys named in :data:`SERVICE_COLUMNS`
    (``ClassMetrics.as_dict()`` produces exactly this shape); missing or
    ``None`` values render as ``-`` so classes without an SLO still line
    up.  A class with zero completions (all abandoned, or starved
    entirely) dashes its latency/throughput/SLO columns instead of
    printing misleading zeros, and a class with zero arrivals dashes
    its wait columns too — the table never divides by or ranks an
    empty sample.

    With ``fleet_row=True`` the final row is treated as a fleet-wide
    aggregate (see :func:`fleet_aggregate_row`) and is set off from the
    per-class rows by a rule.
    """
    headers = [header for header, _ in SERVICE_COLUMNS]
    rows = []
    for row in class_rows:
        completed = row.get("n_completed") or 0
        arrived = row.get("n_arrived") or 0
        cells: List[object] = []
        for header, key in SERVICE_COLUMNS:
            value = row.get(key)
            if key in _COMPLETION_COLUMNS and completed == 0:
                cells.append("-")
            elif key in _ARRIVAL_COLUMNS and arrived == 0:
                cells.append("-")
            elif value is None:
                cells.append("-")
            elif key == "slo_attainment" and isinstance(value, float):
                cells.append(f"{100.0 * value:.1f}")
            else:
                cells.append(value)
        rows.append(cells)
    table = format_table(headers, rows)
    if fleet_row and len(rows) >= 1:
        lines = table.split("\n")
        # Repeat the header rule above the aggregate row.
        lines.insert(len(lines) - 1, lines[1])
        table = "\n".join(lines)
    return table


def fleet_aggregate_row(
    class_rows: Sequence[Mapping[str, object]],
    label: str = "FLEET",
) -> dict:
    """Reduce per-replica class rows into one aggregate row.

    Counts sum; throughput sums (replicas complete work concurrently);
    wait/latency percentiles combine as completion-weighted means of
    the per-row percentiles — an approximation (the true fleet
    percentile needs the raw samples), but a stable, monotone one that
    is exact whenever the replicas are statistically interchangeable.
    SLO attainment combines completion-weighted over the rows that
    carry one, staying ``None`` when none do.
    """
    total_arrived = sum(int(row.get("n_arrived") or 0) for row in class_rows)
    total_completed = sum(int(row.get("n_completed") or 0) for row in class_rows)
    total_abandoned = sum(int(row.get("n_abandoned") or 0) for row in class_rows)

    def weighted(key: str, count_key: str) -> float:
        pairs = [
            (float(row.get(key) or 0.0), int(row.get(count_key) or 0))
            for row in class_rows
        ]
        total = sum(count for _, count in pairs)
        if total == 0:
            return 0.0
        return sum(value * count for value, count in pairs) / total

    slo_pairs = [
        (float(row["slo_attainment"]), int(row.get("n_completed") or 0))
        for row in class_rows
        if row.get("slo_attainment") is not None
    ]
    slo_weight = sum(count for _, count in slo_pairs)
    return {
        "class": label,
        "n_arrived": total_arrived,
        "n_completed": total_completed,
        "n_abandoned": total_abandoned,
        "wait_p50": weighted("wait_p50", "n_arrived"),
        "wait_p99": weighted("wait_p99", "n_arrived"),
        "latency_p50": weighted("latency_p50", "n_completed"),
        "latency_p95": weighted("latency_p95", "n_completed"),
        "latency_p99": weighted("latency_p99", "n_completed"),
        "throughput": sum(
            float(row.get("throughput") or 0.0) for row in class_rows
        ),
        "slo_attainment": (
            sum(value * count for value, count in slo_pairs) / slo_weight
            if slo_weight
            else None
        ),
    }


#: Column order for :func:`format_policy_table`; keys into each row.
POLICY_COLUMNS = (
    ("policy", "policy"),
    ("makespan (s)", "makespan"),
    ("pages read", "pages_read"),
    ("seeks", "seeks"),
    ("hit %", "hit_percent"),
    ("throttle waits", "throttle_waits"),
    ("joins", "scans_joined"),
    ("e2e gain %", "end_to_end_gain_percent"),
    ("read gain %", "disk_read_gain_percent"),
)


def format_policy_table(rows: Sequence[Mapping[str, object]]) -> str:
    """Render a sharing-policy comparison as an aligned table.

    Each row is a mapping with the keys named in :data:`POLICY_COLUMNS`
    (``ModeResult.policy_row()`` produces exactly this shape); missing or
    ``None`` values render as ``-``, so a baseline row without gain
    columns still lines up.
    """
    headers = [header for header, _ in POLICY_COLUMNS]
    rendered = []
    for row in rows:
        cells: List[object] = []
        for _, key in POLICY_COLUMNS:
            value = row.get(key)
            cells.append("-" if value is None else value)
        rendered.append(cells)
    return format_table(headers, rendered)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned monospace table."""
    columns = len(headers)
    for row in rows:
        if len(row) != columns:
            raise ValueError(
                f"row has {len(row)} cells but table has {columns} columns: {row!r}"
            )
    rendered_rows: List[List[str]] = [[_cell(value) for value in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(row[i]) for row in rendered_rows))
        if rendered_rows
        else len(str(headers[i]))
        for i in range(columns)
    ]
    lines = [
        "  ".join(str(headers[i]).ljust(widths[i]) for i in range(columns)),
        "  ".join("-" * widths[i] for i in range(columns)),
    ]
    for row in rendered_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(columns)))
    return "\n".join(lines)


def format_series(label: str, values: Sequence[float], width: int = 50) -> str:
    """Render a numeric series as a one-line-per-bucket ASCII bar chart."""
    if not values:
        return f"{label}: (empty)"
    peak = max(values) or 1.0
    lines = [f"{label}:"]
    for index, value in enumerate(values):
        bar = "#" * max(0, int(width * value / peak))
        lines.append(f"  [{index:3d}] {value:12.2f} {bar}")
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
