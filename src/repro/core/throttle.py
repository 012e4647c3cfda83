"""Leader throttling — drift control inside a scan group.

The group leader is the only scan ever slowed down.  When its distance to
the trailer exceeds the threshold (two prefetch extents by default), a
wait sized from the trailer's *measured* speed is inserted into the
leader's next location-update call, long enough for the gap to shrink
back to the target distance.  The wait simply makes the update call
appear slow to the scan, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import TARGET_DISTANCE_EXTENTS, SharingConfig
from repro.core.grouping import ScanGroup
from repro.core.scan_state import ScanState

#: Floor for speed values used as divisors.
_MIN_SPEED = 1e-9

#: Upper bound (seconds) on a single inserted wait, so one update call
#: never stalls a scan pathologically.
MAX_WAIT_PER_UPDATE = 0.5


@dataclass(frozen=True)
class ThrottleDecision:
    """Outcome of one throttle evaluation.

    Carries the inputs the decision was made from (``distance``,
    ``threshold``, ``allowance``) so the tracing layer can record every
    evaluation without re-deriving them.
    """

    wait: float
    capped_by_fairness: bool
    distance: int = 0
    threshold: float = 0.0
    allowance: float = 0.0

    @property
    def throttled(self) -> bool:
        """Whether any wait was inserted."""
        return self.wait > 0.0


def evaluate_throttle(
    scan: ScanState,
    group: ScanGroup,
    config: SharingConfig,
    extent_size: int,
) -> ThrottleDecision:
    """Decide how long ``scan`` should wait at this location update.

    Only a group leader with at least one follower is ever throttled.
    The fairness cap (the paper's 80 % rule) permanently exempts a scan
    whose accumulated delay has consumed its share of estimated scan
    time.
    """
    no_wait = ThrottleDecision(wait=0.0, capped_by_fairness=False)
    if not config.throttling_enabled:
        return no_wait
    if scan.throttle_exempt or scan.finished:
        return no_wait
    if group.size <= 1 or not scan.is_leader:
        return no_wait

    # Anchor the decision on the rear-most member still participating
    # in throttling.  A finished member no longer needs the leader held
    # back, and a fairness-exempted one is deliberately running free
    # (e.g. an exempted fast scan that wrapped around and now trails
    # the group circularly) — slowing others to match it is backwards.
    anchors = [
        member
        for member in group.members
        if member.scan_id != scan.scan_id
        and not member.finished
        and not member.throttle_exempt
    ]
    if not anchors:
        return no_wait
    trailer = anchors[0]
    # The leader-trailer gap is measured circularly in scan direction
    # (trailer chasing leader): a leader that has wrapped past the range
    # end sits at a *smaller* linear position than its trailer, and a
    # linear difference would go negative and silently disable
    # throttling for the rest of the scan.
    circle = group.table_pages if group.table_pages > 0 else (
        max(scan.descriptor.last_page, trailer.descriptor.last_page) + 1
    )
    distance = trailer.forward_distance_to(scan, circle)
    threshold = config.distance_threshold_extents * extent_size
    if distance <= threshold:
        return ThrottleDecision(
            wait=0.0, capped_by_fairness=False,
            distance=distance, threshold=threshold,
        )

    target = TARGET_DISTANCE_EXTENTS * extent_size
    trailer_speed = max(trailer.speed, _MIN_SPEED)
    wait = min((distance - target) / trailer_speed, MAX_WAIT_PER_UPDATE)

    # Fairness: never delay a scan beyond the cap fraction of its
    # estimated total time.
    allowance = (
        config.slowdown_cap_fraction * scan.estimated_total_time
        - scan.accumulated_delay
    )
    if allowance <= 0.0:
        scan.throttle_exempt = True
        return ThrottleDecision(
            wait=0.0, capped_by_fairness=True,
            distance=distance, threshold=threshold, allowance=allowance,
        )
    capped = wait > allowance
    if capped:
        wait = allowance
        scan.throttle_exempt = True
    return ThrottleDecision(
        wait=wait, capped_by_fairness=capped,
        distance=distance, threshold=threshold, allowance=allowance,
    )
