"""The multi-tenant service frontend: bounded workers, fair queueing,
admission control, and cross-device group commit.

The paper evaluates one device against one key service; a *fleet*
deployment changes the server's problem from latency to contention.
This frontend sits between :class:`~repro.net.rpc.RpcServer` dispatch
and the handlers and adds the three server-side mechanisms that make a
shared key service scale (see PROTOCOL.md §10):

* **Bounded concurrency + fair queueing** — requests park in per-device
  queues and ``workers`` worker processes drain them under deficit
  round robin (:mod:`repro.server.scheduler`), so one scanning laptop
  cannot starve every other tenant's ``key.fetch``.  The legacy server
  runs every request concurrently the moment it arrives (an
  infinite-capacity model); installing a frontend is what introduces a
  capacity at all.
* **Admission control / load shedding** — requests whose per-device
  queue is full, or whose deadline (threaded out of band from the
  client's :class:`~repro.core.context.OpContext`) cannot be met by the
  backlog estimate, are *shed* with
  :class:`~repro.errors.OverloadSheddedError` before any key material
  is touched.  Shed, never silently delayed: a shed request discloses
  nothing and writes nothing, while every admitted-and-served fetch is
  still durably logged before its reply — overload never creates audit
  false negatives.
* **Cross-device group commit** — when several tenants' ``key.fetch``
  requests are queued at once, one worker serves up to ``coalesce`` of
  them through :meth:`~repro.core.services.keyservice.KeyService.fetch_group`,
  amortising one durable-log write over the group (per-request escrow
  lookups and per-request audit records are preserved).  This extends
  PR 1's single-flight idea — which deduplicated one device's identical
  fetches — across tenants, where requests are *not* identical and must
  each keep their own evidence.

A :class:`FrontendSpec` holds the frontend's four settings and checks
itself once.  Nothing here is wired up by default:
``KeypadConfig.frontend`` is ``None``, and a server without
``install_frontend`` keeps the legacy unbounded dispatch byte for byte.
Deadline admission control is always on, and ``rpc.hello`` /
``key.health`` always bypass the queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Mapping, Optional

from repro.errors import (
    ConfigError,
    OverloadSheddedError,
    ServiceUnavailableError,
)
from repro.server.scheduler import Request, make_scheduler
from repro.sim import Simulation

__all__ = [
    "FrontendSpec",
    "ServiceFrontend",
    "FrontendMetrics",
    "DEFAULT_BYPASS",
    "default_request_cost",
]

#: methods never queued: version negotiation and liveness probes must
#: answer even under full load (failure detection depends on them).
DEFAULT_BYPASS = frozenset({"rpc.hello", "key.health"})

#: EWMA gain for the per-cost-unit service-time estimate.
_EST_GAIN = 0.2


def default_request_cost(method: str, payload: Mapping) -> int:
    """Abstract cost units for a request (1 unit ~ one lookup+append)."""
    if method == "key.fetch_batch":
        return max(1, len(payload.get("audit_ids") or ()))
    if method == "key.evict_notify_batch":
        return max(1, len(payload.get("notices") or ()))
    if method == "key.report_batch":
        return max(1, len(payload.get("records") or ()))
    return 1


@dataclass(frozen=True)
class FrontendSpec:
    """The server frontend's settings (PROTOCOL.md §10).

    ``workers`` concurrent worker processes (the service's capacity);
    a per-device bound of ``queue_limit`` pending requests, beyond
    which arrivals are shed; ``policy`` ``'drr'`` (deficit round robin,
    fair) or ``'fifo'`` (arrival order, the unfair baseline the fleet
    benchmark contrasts); and groups of at most ``coalesce`` cross-device
    ``key.fetch`` requests per durable-log write (1 disables grouping).
    Raises :class:`~repro.errors.ConfigError` on a bad value.
    """

    workers: int = 8
    queue_limit: int = 64
    policy: str = "drr"
    coalesce: int = 8

    def __post_init__(self) -> None:
        if self.policy not in ("drr", "fifo"):
            raise ConfigError(
                f"frontend policy must be 'drr' or 'fifo', got {self.policy!r}"
            )
        for name in ("workers", "queue_limit", "coalesce"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ConfigError(
                    f"frontend {name} must be an int >= 1, got {value!r}"
                )


@dataclass
class FrontendMetrics:
    """Aggregate counters (per frontend, i.e. per replica)."""

    admitted: int = 0
    completed: int = 0
    failed: int = 0
    shed_queue_full: int = 0
    shed_deadline: int = 0
    shed_draining: int = 0
    groups: int = 0
    grouped_requests: int = 0
    max_backlog: int = 0
    busy_hwm: int = 0

    @property
    def shed(self) -> int:
        return self.shed_queue_full + self.shed_deadline + self.shed_draining

    def as_dict(self) -> dict:
        return {
            "admitted": self.admitted,
            "completed": self.completed,
            "failed": self.failed,
            "shed": self.shed,
            "shed_queue_full": self.shed_queue_full,
            "shed_deadline": self.shed_deadline,
            "shed_draining": self.shed_draining,
            "groups": self.groups,
            "grouped_requests": self.grouped_requests,
            "max_backlog": self.max_backlog,
            "busy_hwm": self.busy_hwm,
        }


class ServiceFrontend:
    """Schedules one :class:`~repro.net.rpc.RpcServer`'s data-plane
    requests through bounded workers (install via
    ``server.install_frontend(frontend)`` or the service helpers).

    Parameters
    ----------
    spec:
        The :class:`FrontendSpec` (workers, queue limit, policy,
        group size).
    service_estimate:
        Initial per-cost-unit service time (seconds) for the admission
        estimate; refined by an EWMA of observed service times.
    group_methods:
        ``method -> generator(requests)`` group-commit handlers, where
        ``requests`` is ``[(device_id, payload), ...]`` and the
        generator returns one ``("ok", payload) | ("err", exc)`` per
        member (see ``KeyService.fetch_group``).
    """

    def __init__(
        self,
        sim: Simulation,
        server: Any,
        spec: FrontendSpec,
        service_estimate: float = 0.001,
        group_methods: Optional[Mapping[str, Callable]] = None,
    ):
        self.sim = sim
        self.server = server
        self.workers = spec.workers
        self.queue_limit = spec.queue_limit
        self.coalesce = spec.coalesce
        self._group_methods = dict(group_methods or {})
        self._sched = make_scheduler(spec.policy)
        self._busy = 0
        self._est = max(1e-9, float(service_estimate))
        self.metrics = FrontendMetrics()
        # Runtime drain flag (control channel): while set, every
        # would-be admission is shed before touching the queue, and
        # already-admitted work drains through the workers normally.
        self.draining = False

    # -- runtime drain (docs/CONTROL.md) ------------------------------------
    def drain(self) -> None:
        """Stop admitting; let queued/running requests finish."""
        self.draining = True

    def admit(self) -> None:
        """Re-open admission after a drain."""
        self.draining = False

    @property
    def policy(self) -> str:
        return self._sched.policy

    def handles(self, method: str) -> bool:
        return method not in DEFAULT_BYPASS

    # -- admission ----------------------------------------------------------
    def estimated_delay(self, device_id: str = "", cost: int = 1) -> float:
        """Deterministic, policy-aware queue-delay estimate.

        The scheduler says how many cost units it would serve before
        this request finished (``wait_units`` — the whole backlog under
        FIFO, roughly one round per quantum of *own* cost under DRR);
        spread over the workers at the observed per-unit service time,
        that is the time a truthful server should promise.  Using the
        scheduler's own arithmetic matters: a fair queue with a
        FIFO-shaped estimator would shed light tenants for a backlog
        they would never actually have waited behind.
        """
        return (
            self._sched.wait_units(device_id, cost) / self.workers
        ) * self._est

    def dispatch(self, device_id: str, method: str, payload: dict,
                 deadline: Optional[float] = None) -> Generator:
        """Admit (or shed) one request, then park until a worker serves
        it.  Runs in the calling RPC's process; the handler itself runs
        in a worker process, so a caller abandoning the wait (client
        deadline race) never cancels server-side work already admitted.
        """
        if self.draining:
            self.metrics.shed_draining += 1
            raise OverloadSheddedError(
                f"{self.server.name}: draining (admission closed by the "
                "control channel)"
            )
        if self._sched.queue_len(device_id) >= self.queue_limit:
            self.metrics.shed_queue_full += 1
            raise OverloadSheddedError(
                f"{self.server.name}: {device_id} already has "
                f"{self.queue_limit} requests queued"
            )
        cost = default_request_cost(method, payload)
        if deadline is not None:
            finish_estimate = (
                self.sim.now + self.estimated_delay(device_id, cost)
            )
            if finish_estimate > deadline:
                self.metrics.shed_deadline += 1
                raise OverloadSheddedError(
                    f"{self.server.name}: backlog estimate "
                    f"{finish_estimate - self.sim.now:.3f}s cannot meet "
                    f"the {method} deadline"
                )
        request = Request(
            device_id=device_id,
            method=method,
            payload=payload,
            deadline=deadline,
            done=self.sim.event(),
            cost=cost,
        )
        self._sched.push(request)
        self.metrics.admitted += 1
        if len(self._sched) > self.metrics.max_backlog:
            self.metrics.max_backlog = len(self._sched)
        self._kick()
        result = yield request.done
        return result

    # -- service ------------------------------------------------------------
    def _kick(self) -> None:
        """Hand queued work to idle workers (one batch per worker)."""
        while self._busy < self.workers:
            leader = self._sched.take()
            if leader is None:
                return
            batch = [leader]
            group_fn = self._group_methods.get(leader.method)
            if group_fn is not None and self.coalesce > 1:
                batch += self._sched.take_matching(
                    lambda r: r.method == leader.method,
                    self.coalesce - 1,
                )
            self._busy += 1
            if self._busy > self.metrics.busy_hwm:
                self.metrics.busy_hwm = self._busy
            self.sim.process(
                self._serve(batch, group_fn if len(batch) > 1 else None),
                name=f"frontend-{self.server.name}",
            )

    def _serve(self, batch: list[Request],
               group_fn: Optional[Callable]) -> Generator:
        started = self.sim.now
        units = sum(r.cost for r in batch)
        try:
            if not self.server.available:
                exc = ServiceUnavailableError(
                    f"{self.server.name} is unavailable"
                )
                for request in batch:
                    self._finish(request, None, exc)
                return
            if group_fn is not None:
                self.metrics.groups += 1
                self.metrics.grouped_requests += len(batch)
                try:
                    outcomes = yield from group_fn(
                        [(r.device_id, r.payload) for r in batch]
                    )
                except Exception as exc:
                    for request in batch:
                        self._finish(request, None, exc)
                else:
                    for request, (tag, value) in zip(batch, outcomes):
                        if tag == "ok":
                            self._finish(request, value, None)
                        else:
                            self._finish(request, None, value)
            else:
                for request in batch:
                    try:
                        result = yield from self.server.execute(
                            request.device_id, request.method, request.payload
                        )
                    except Exception as exc:
                        self._finish(request, None, exc)
                    else:
                        self._finish(request, result, None)
            elapsed = self.sim.now - started
            if units > 0 and elapsed > 0.0:
                self._est += _EST_GAIN * (elapsed / units - self._est)
        finally:
            self._busy -= 1
            self._kick()

    def _finish(self, request: Request, value: Any,
                exc: Optional[BaseException]) -> None:
        """Deliver an outcome; a caller that abandoned the wait (client
        deadline race) leaves a triggered-but-unwatched event, which is
        exactly the wasted-work cost of a late shed."""
        if exc is None:
            self.metrics.completed += 1
            if not request.done.triggered:
                request.done.succeed(value)
        else:
            self.metrics.failed += 1
            if not request.done.triggered:
                request.done.fail(exc)
