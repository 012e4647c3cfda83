"""repro.service — admission-controlled multi-stream query service.

The paper's evaluation drives the shared-scan engine from a *closed*
harness: N streams, each firing its next query the moment the previous
one finishes.  A warehouse front-end is an *open* system — requests
arrive whether or not the engine is keeping up — and the decision of
which and how many queries to admit dominates buffer-locality gains
once concurrency is open-ended.  This package adds that front-end:

* :mod:`repro.service.spec` — frozen declarative specs: named service
  classes, each a queueing contract (priority weight, per-class MPL
  cap, latency SLO, patience) plus an arrival process and a query mix
  from :mod:`repro.workloads.arrivals`; an AIMD controller
  configuration; and the :class:`ServiceSpec` that binds them to a
  horizon.
* :mod:`repro.service.queues` — per-class admission queues and a
  deterministic weighted-fair selector.
* :mod:`repro.service.controller` — the MPL/admission controller:
  throttles concurrency on live bufferpool miss-rate, pool-pressure,
  and scan-speed signals (backpressure), reopens as they recover.
* :mod:`repro.service.service` — :class:`QueryService`, the sim-time
  service loop tying arrivals → queues → admission → executor.  Open
  processes are rendered from each class's seed; a replayed
  :class:`~repro.workloads.arrivals.ArrivalPlan` (a cluster replica's
  routed share) is served as given.
* :mod:`repro.service.metrics` — per-class SLO metrics and the
  :class:`ServiceResult` / :class:`ServiceComparison` result objects.
* :mod:`repro.service.scenarios` — named scenarios (steady, overload,
  burst, soak) registered as ``sv-*`` experiments.
"""

from repro.service.spec import ControllerConfig, ServiceClass, ServiceSpec
from repro.service.service import QueryService
from repro.service.metrics import ClassMetrics, ServiceComparison, ServiceResult

__all__ = [
    "ClassMetrics",
    "ControllerConfig",
    "QueryService",
    "ServiceClass",
    "ServiceComparison",
    "ServiceResult",
    "ServiceSpec",
]
