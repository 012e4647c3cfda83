"""Switches and tunables the experiments turn on the sharing mechanism.

Defaults follow the paper's prototype: a leader–trailer drift threshold
of two prefetch extents and the 80 % accumulated-slowdown fairness cap.
The prototype's fixed tunables (one location update per extent, the
regroup period, the placement and throttling constants) are module
constants next to the code that reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fields import check_fields

#: Throttling aims to shrink the leader–trailer gap back to this many
#: prefetch extents, so the drift threshold may not lie below it.
TARGET_DISTANCE_EXTENTS = 1.0


@dataclass(frozen=True)
class SharingConfig:
    """The sharing mechanism's switches and the two swept tunables.

    Attributes:
        enabled: Master switch.  Off = vanilla engine (the paper's
            "Base"): the executor hands scans no sharing policy.
        throttling_enabled: Insert waits into group leaders that drift
            too far ahead.
        prioritization_enabled: Leaders/trailers release pages with
            HIGH/LOW bufferpool priorities.
        distance_threshold_extents: Throttle the leader once its distance
            to the trailer exceeds this many prefetch extents.
        slowdown_cap_fraction: Once a scan's accumulated inserted waiting
            exceeds this fraction of its estimated total scan time it is
            never throttled again (the paper's 80 % fairness rule).
    """

    enabled: bool = True
    throttling_enabled: bool = True
    prioritization_enabled: bool = True
    distance_threshold_extents: float = 2.0
    slowdown_cap_fraction: float = 0.8

    def __post_init__(self) -> None:
        check_fields(self, (
            ("slowdown_cap_fraction",
             0.0 <= self.slowdown_cap_fraction <= 1.0, "in [0, 1]"),
            ("distance_threshold_extents",
             self.distance_threshold_extents >= TARGET_DISTANCE_EXTENTS,
             f">= {TARGET_DISTANCE_EXTENTS:g}, the throttle target"),
        ))
