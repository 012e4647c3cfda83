"""Discrete-event simulation kernel.

This package provides the minimal, deterministic discrete-event machinery
that the rest of the reproduction runs on: a :class:`~repro.sim.kernel.Simulator`
with a time-ordered event queue, generator-based cooperative
:class:`~repro.sim.process.Process` objects, counted
:class:`~repro.sim.resource.Resource` objects (used to model CPUs and the
disk arm), and :class:`~repro.sim.timeline.StepTimeline` for recording
utilization step-functions that the metrics layer later merges into
user/system/idle/iowait breakdowns.

The kernel is intentionally simpy-like but tiny: processes ``yield`` Event
objects and are resumed when those events trigger.  All tie-breaking is by
insertion sequence number, so runs are fully deterministic for a fixed
workload and seed.
"""

from repro.sim.events import Event, EventQueue
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.resource import Resource
from repro.sim.timeline import StepTimeline

__all__ = [
    "Event",
    "EventQueue",
    "Process",
    "Resource",
    "Simulator",
    "StepTimeline",
]
