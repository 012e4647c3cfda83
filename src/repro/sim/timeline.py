"""Step-function timelines for utilization accounting.

A :class:`StepTimeline` records a piecewise-constant integer level over
simulated time — for example "CPUs busy" or "disk requests outstanding".
The metrics layer merges several timelines to compute iostat-style
user/system/idle/iowait breakdowns and per-bucket time series, so the
timeline exposes integrals, bucketed averages, and a merge-friendly
iterator of change points.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple


class StepTimeline:
    """Piecewise-constant level recorded as (time, level) change points."""

    __slots__ = ("_points",)

    def __init__(self, initial: int = 0, start_time: float = 0.0):
        self._points: List[Tuple[float, float]] = [(start_time, float(initial))]

    def record(self, time: float, level: float) -> None:
        """Set the level at ``time``.  Times must be non-decreasing."""
        points = self._points
        last_time, last_level = points[-1]
        if time - last_time > 1e-12:
            # Nearly every call: time moved on, so nothing can collapse.
            # (``+ 0.0`` is ``float(level)`` without the call.)
            if level != last_level:
                points.append((time, level + 0.0))
            return
        if time < last_time - 1e-12:
            raise ValueError(f"timeline time went backwards: {time} < {last_time}")
        if level == last_level:
            return
        if abs(time - last_time) <= 1e-12:
            # Collapse same-instant updates to the latest level.
            self._points[-1] = (last_time, float(level))
            # Remove a redundant point if it now matches its predecessor.
            if len(self._points) >= 2 and self._points[-2][1] == float(level):
                self._points.pop()
        else:
            self._points.append((time, float(level)))

    def pulse(self, start: float, end: float, level: float) -> None:
        """``record(start, level + 1)`` then ``record(end, level)``; a pulse
        starting where the last one ended just moves that end point."""
        points = self._points
        last_time, last_level = points[-1]
        if (
            last_level == level
            and -1e-12 <= start - last_time <= 1e-12
            and len(points) >= 2
            and points[-2][1] == level + 1
            and end - points[-2][0] > 1e-12
        ):
            points[-1] = (end, level + 0.0)
        else:
            self.record(start, level + 1)
            self.record(end, level)

    @property
    def current_level(self) -> float:
        """The most recently recorded level."""
        return self._points[-1][1]

    def level_at(self, time: float) -> float:
        """The level in effect at ``time`` (right-continuous)."""
        level = self._points[0][1]
        for point_time, point_level in self._points:
            if point_time > time:
                break
            level = point_level
        return level

    def change_points(self) -> Iterator[Tuple[float, float]]:
        """Iterate ``(time, level)`` change points in time order."""
        return iter(self._points)

    def integral(self, until: float, since: float = 0.0) -> float:
        """Integrate the level over ``[since, until]`` (level-seconds)."""
        if until < since:
            raise ValueError(f"integral bounds reversed: [{since}, {until}]")
        total = 0.0
        points = self._points
        for i, (time, level) in enumerate(points):
            seg_start = max(time, since)
            seg_end = points[i + 1][0] if i + 1 < len(points) else until
            seg_end = min(seg_end, until)
            if seg_end > seg_start:
                total += level * (seg_end - seg_start)
        return total

    def bucketed_integrals(self, until: float, bucket: float) -> List[float]:
        """Integrate the level over consecutive buckets of width ``bucket``.

        Returns one value per bucket covering ``[0, until]``; the final
        bucket may be partial.
        """
        if bucket <= 0:
            raise ValueError(f"bucket width must be positive, got {bucket}")
        buckets: List[float] = []
        start = 0.0
        while start < until:
            end = min(start + bucket, until)
            buckets.append(self.integral(end, since=start))
            start = end
        return buckets

    def time_at_or_above(self, threshold: float, until: float) -> float:
        """Total time in ``[0, until]`` during which level >= ``threshold``."""
        total = 0.0
        points = self._points
        for i, (time, level) in enumerate(points):
            if level < threshold:
                continue
            seg_end = points[i + 1][0] if i + 1 < len(points) else until
            seg_end = min(seg_end, until)
            seg_start = min(time, until)
            if seg_end > seg_start:
                total += seg_end - seg_start
        return total
