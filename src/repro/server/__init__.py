"""Server-side scalability layer for the key service.

Everything a *fleet*-facing key service needs beyond the paper's
single-device evaluation: per-device fair queueing with bounded
queues (:mod:`repro.server.scheduler`), deadline-aware admission
control, and cross-device group commit of audited fetches
(:mod:`repro.server.frontend`).  Off by default: a frontend is built
only when ``KeypadConfig.frontend`` holds a :class:`FrontendSpec` (or a
caller installs one), and without it the key service keeps the legacy
unbounded dispatch.
"""

from repro.server.frontend import (
    DEFAULT_BYPASS,
    FrontendMetrics,
    FrontendSpec,
    ServiceFrontend,
    default_request_cost,
)
from repro.server.scheduler import (
    DrrScheduler,
    FifoScheduler,
    Request,
    make_scheduler,
)

__all__ = [
    "FrontendSpec",
    "ServiceFrontend",
    "FrontendMetrics",
    "DEFAULT_BYPASS",
    "default_request_cost",
    "Request",
    "DrrScheduler",
    "FifoScheduler",
    "make_scheduler",
]
