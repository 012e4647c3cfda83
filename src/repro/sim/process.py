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
from typing import Any, Generator

from repro.sim.events import Event, SimulationError


class Process:
    """Wraps a generator and steps it through the simulation.

    Do not instantiate directly — use :meth:`repro.sim.kernel.Simulator.spawn`.
    """

    __slots__ = ("sim", "name", "_generator", "_completion")

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
        target.add_callback(self._resume)

    def _resume(self, event: Event) -> None:
        self._step(event.value, throw=event.failed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "done"
        return f"<Process {self.name} {state}>"
