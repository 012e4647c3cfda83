"""The event-queue backend's name.

There is one backend: the pure-python queue in :mod:`repro.sim.events`
drained by :meth:`repro.sim.kernel.Simulator.run`.  The module survives
because the repo benchmark's harness records this name in its reports.
"""


def backend_name() -> str:
    """Name of the event-queue backend simulators run on."""
    return "python"
