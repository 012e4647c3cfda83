"""Tunables for the scan sharing manager.

Defaults follow the paper's prototype: location updates every 16 pages
(one extent), a leader–trailer drift threshold of two prefetch extents,
and the 80 % accumulated-slowdown fairness cap.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SharingConfig:
    """All knobs of the sharing mechanism.

    Attributes:
        enabled: Master switch.  Off = vanilla engine (the paper's "Base").
        placement_enabled: New scans may start at an ongoing scan's
            position (and wrap) instead of at their range start.
        grouping_enabled: Form scan groups; prerequisite for throttling
            and prioritization.
        throttling_enabled: Insert waits into group leaders that drift
            too far ahead.
        prioritization_enabled: Leaders/trailers release pages with
            HIGH/LOW bufferpool priorities.
        update_interval_pages: Scan operators call the manager every this
            many pages (the prototype used 16 × 32 KiB pages).
        distance_threshold_extents: Throttle the leader once its distance
            to the trailer exceeds this many prefetch extents.
        target_distance_extents: Throttling aims to shrink the gap back
            to this many extents.
        max_wait_per_update: Upper bound (seconds) on a single inserted
            wait, so one update call never stalls a scan pathologically.
        slowdown_cap_fraction: Once a scan's accumulated inserted waiting
            exceeds this fraction of its estimated total scan time it is
            never throttled again (the paper's 80 % fairness rule).
        min_share_pages: Placement joins an ongoing scan only if the
            estimated number of co-read pages is at least this.
        last_finished_retention_wraps: A finished scan's end position is
            kept as a placement hint only until this many bufferpool
            turnovers of scan traffic (pages reported via location
            updates, in units of the pool capacity) have streamed past.
            Beyond that the pages the finisher left behind are certainly
            evicted, and placing a late arrival behind the cold position
            would only delay its sequential start.  The default is
            deliberately conservative — several dozen turnovers — so the
            hint is pruned only when it is overwhelmingly certain to be
            cold.
        regroup_interval: Seconds between group re-formations.
        speed_smoothing: Weight of the newest speed sample in the
            exponential moving average (1.0 = use only the latest
            interval, like the prototype).
        pool_budget_fraction: Fraction of the bufferpool the combined
            group extents may occupy during group formation.
    """

    enabled: bool = True
    placement_enabled: bool = True
    grouping_enabled: bool = True
    throttling_enabled: bool = True
    prioritization_enabled: bool = True
    update_interval_pages: int = 16
    distance_threshold_extents: float = 2.0
    target_distance_extents: float = 1.0
    max_wait_per_update: float = 0.5
    slowdown_cap_fraction: float = 0.8
    min_share_pages: int = 16
    last_finished_retention_wraps: float = 64.0
    regroup_interval: float = 0.25
    speed_smoothing: float = 0.7
    pool_budget_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.update_interval_pages < 1:
            raise ValueError(
                f"update_interval_pages must be >= 1, got {self.update_interval_pages}"
            )
        if self.distance_threshold_extents < self.target_distance_extents:
            raise ValueError(
                "distance_threshold_extents must be >= target_distance_extents "
                f"({self.distance_threshold_extents} < {self.target_distance_extents})"
            )
        if not 0.0 <= self.slowdown_cap_fraction <= 1.0:
            raise ValueError(
                f"slowdown_cap_fraction must be in [0, 1], got "
                f"{self.slowdown_cap_fraction}"
            )
        if self.max_wait_per_update < 0:
            raise ValueError(
                f"max_wait_per_update must be >= 0, got {self.max_wait_per_update}"
            )
        if not 0.0 < self.speed_smoothing <= 1.0:
            raise ValueError(
                f"speed_smoothing must be in (0, 1], got {self.speed_smoothing}"
            )
        if self.last_finished_retention_wraps <= 0:
            raise ValueError(
                f"last_finished_retention_wraps must be > 0, got "
                f"{self.last_finished_retention_wraps}"
            )
        if not 0.0 < self.pool_budget_fraction <= 1.0:
            raise ValueError(
                f"pool_budget_fraction must be in (0, 1], got "
                f"{self.pool_budget_fraction}"
            )


#: The paper's baseline: plain engine, no sharing machinery active.
BASELINE = SharingConfig(enabled=False)

#: The paper's full mechanism with prototype defaults.
FULL_SHARING = SharingConfig()
