"""Generator-based cooperative processes.

A simulation process is a Python generator that ``yield``\\ s
:class:`~repro.sim.events.Event` objects.  The kernel resumes the generator
when the yielded event triggers, sending the event's value back into the
generator (or throwing the event's exception).  When the generator returns,
the process's own completion event succeeds with the returned value, so
processes can wait on each other.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Generator, Optional

from repro.sim.events import Event, Interrupt, SimulationError


class Process:
    """Wraps a generator and steps it through the simulation.

    Do not instantiate directly — use :meth:`repro.sim.kernel.Simulator.spawn`.
    """

    __slots__ = ("sim", "name", "_generator", "_completion", "_waiting_on")

    def __init__(self, sim: Any, generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}; "
                "did you call a plain function instead of a generator function?"
            )
        self.sim = sim
        self.name = name or repr(generator)
        self._generator = generator
        self._completion: Event = Event(sim)
        self._waiting_on: Optional[Event] = None
        # Kick off the process at the current simulation time.
        sim.schedule(0.0, partial(self._step, None, False))

    @property
    def completion(self) -> Event:
        """Event that succeeds with the generator's return value."""
        return self._completion

    @property
    def alive(self) -> bool:
        """Whether the process has not yet finished."""
        return not self._completion.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current wait.

        Interrupting a finished process is a silent no-op, and interrupting
        a process that has not yet had its first step is deferred until it
        would next wait.
        """
        if not self.alive:
            return
        waiting_on = self._waiting_on
        if waiting_on is None:
            # Not currently waiting (either not started or mid-step); defer
            # delivery to the next scheduler slot.
            self.sim.schedule(0.0, lambda: self.interrupt(cause))
            return
        self._waiting_on = None
        # The interrupter carries on at this instant after the call, so
        # this step may not move the clock with an inline ``Resource.hold``.
        sim = self.sim
        horizon, sim._hold_horizon = sim._hold_horizon, float("-inf")
        self._step(Interrupt(cause), throw=True)
        sim._hold_horizon = horizon

    def _step(self, value: Any, throw: bool) -> None:
        try:
            if throw:
                target = self._generator.throw(value)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self._completion.succeed(stop.value)
            return
        except BaseException as error:  # noqa: BLE001 - deliberate boundary
            # An exception escaping the process body fails its completion
            # event, so waiters (and only waiters) observe the failure
            # instead of the whole simulation crashing mid-callback.
            self._completion.fail(error)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {type(target).__name__}; "
                "processes may only yield Event objects"
            )
        self._waiting_on = target
        target.add_callback(self._resume)

    def _resume(self, event: Event) -> None:
        if self._waiting_on is not event:
            # The process was interrupted away from this event; ignore the
            # stale wakeup.
            return
        self._waiting_on = None
        if event.failed:
            self._step(event.value, throw=True)
        else:
            self._step(event.value, throw=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "done"
        return f"<Process {self.name} {state}>"
