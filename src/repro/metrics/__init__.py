"""Measurement layer: query timings, CPU breakdowns, report rendering.

Reproduces the observables the paper reports: per-query and per-stream
elapsed times, end-to-end makespan, iostat-style CPU distribution
(user / system / idle / iowait), and bucketed disk read/seek time series.
"""

from repro.metrics.access_log import (
    SharingPotentialReport,
    analyze_sharing_potential,
    collect_scans,
)
from repro.metrics.collector import MetricsCollector, QueryRecord
from repro.metrics.cpu import CpuBreakdown, compute_cpu_breakdown
from repro.metrics.report import format_table, percent_gain

__all__ = [
    "CpuBreakdown",
    "MetricsCollector",
    "QueryRecord",
    "SharingPotentialReport",
    "analyze_sharing_potential",
    "collect_scans",
    "compute_cpu_breakdown",
    "format_table",
    "percent_gain",
]
