"""Encrypted RPC over simulated links.

Models the paper's transport: "All components are coded in C++ and
communicate using encrypted XML-RPC with persistent connections."
Both peers live in one simulation process, so the bytes of a message
are observable only through their length: every call charges the exact
size of its marshalled, HMAC-authenticated, AEAD-sealed (and, on v2,
framed) message from :func:`repro.net.wire.request_wire_form` /
:func:`~repro.net.wire.response_wire_form`, which
``tests/property/test_wire_fastpath.py`` holds to the real codec.
Requests are authenticated with a per-device secret; the server
compares it with the enrolled one, the predicate an HMAC check over the
same message decides.  Session keys ratchet every ``rekey_interval``
seconds, matching §6: "The keys must change every Texp seconds to
ensure that an attacker who extracts the current network encryption key
from the device cannot decrypt past intercepted data."

Latency per call: client marshal CPU + one-way transfer + server
handler time + return transfer + client unmarshal CPU, all charged from
the :class:`~repro.costmodel.CostModel`.

Deadlines and tracing ride in on an optional per-operation context
(:class:`repro.core.context.OpContext`): ``call(..., op_ctx=ctx)``
races the call against the context's remaining deadline budget
(raising :class:`~repro.errors.DeadlineExpiredError` uniformly, never
an ad-hoc ``RpcError``) and stamps a span per wire call (wire sizes +
simulated latency) into the context's trace tree.  A call is never
retried here; a transport failure surfaces to the caller.  With
``op_ctx=None`` the code path is exactly the legacy one.

Two transport modes share one channel class:

* **serial (protocol v1)** — the prototype's behaviour: one request
  outstanding per connection turn, bare sealed bodies on the wire.
  This is the default and is byte- and latency-identical to the
  original implementation.
* **pipelined (protocol v2)** — up to :data:`PIPELINE_WINDOW`
  concurrent requests share the connection.  Each request carries a
  64-bit request ID in a framed envelope (``FRAME_OVERHEAD`` more bytes
  each way) that keys the in-flight table; the caller parks on a
  per-request completion event while the server executes, so responses
  complete out of order.  One ``rpc.hello`` round trip on first use
  opens the mode.

The rekey ratchet is shared by both modes: it advances on wall-clock
epochs regardless of how many requests are in flight, so pipelining
never extends the lifetime of a session key.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.costmodel import DEFAULT_COSTS, CostModel
from repro.crypto.kdf import hkdf_sha256
from repro.errors import (
    AuthorizationError,
    ControlError,
    DeadlineExpiredError,
    LockedFileError,
    NetworkUnavailableError,
    OverloadSheddedError,
    RevokedError,
    RpcError,
    ServiceUnavailableError,
)
from repro.net.link import Link
from repro.net.metrics import ChannelMetrics
from repro.net.wire import (
    PROTOCOL_LATEST,
    PROTOCOL_V1,
    request_wire_form,
    response_wire_form,
)
from repro.sim import Event, Simulation
from repro.sim.kernel import abandon_handoff

__all__ = ["RpcServer", "RpcChannel", "HELLO_METHOD", "PIPELINE_WINDOW"]

# Handler exceptions that cross the wire as typed faults (anything else
# propagates on the server side).
_WIRE_FAULTS = (RpcError, RevokedError, AuthorizationError,
                ServiceUnavailableError, LockedFileError, ControlError)

# Fault names back to exception types (subclasses travel by own name).
_FAULT_TYPES: dict[str, type] = {
    "RpcError": RpcError,
    "RevokedError": RevokedError,
    "AuthorizationError": AuthorizationError,
    "ServiceUnavailableError": ServiceUnavailableError,
    "DeadlineExpiredError": DeadlineExpiredError,
    "OverloadSheddedError": OverloadSheddedError,
    "LockedFileError": LockedFileError,
    "ControlError": ControlError,
}

#: span name prefix for wire RPCs (mirrors
#: ``repro.core.context.RPC_SPAN_PREFIX``; kept literal here so the
#: transport layer never imports the core package).
_RPC_SPAN = "rpc:"

#: the hello round trip that opens a pipelined channel.
HELLO_METHOD = "rpc.hello"

#: most requests one pipelined channel keeps outstanding at once
#: (generous: the paper's serial mode bounds nothing, so a tight window
#: would *add* queuing the prototype never had).
PIPELINE_WINDOW = 32


def serve_request(server: "RpcServer", device_id: str, method: str,
                  payload: dict, deadline: Optional[float]) -> Generator:
    """The server's answer to one request, as it goes on the wire: the
    handler's result, or a ``__fault__`` payload naming its exception."""
    try:
        result = yield from server.dispatch(device_id, method, payload,
                                            deadline=deadline)
    except _WIRE_FAULTS as exc:
        result = {"__fault__": type(exc).__name__, "message": str(exc)}
    return result


def raise_if_fault(payload: Any) -> Any:
    """Return a received payload, or raise the typed exception a
    ``__fault__`` payload carries."""
    if isinstance(payload, dict) and "__fault__" in payload:
        exc_type = _FAULT_TYPES.get(payload["__fault__"], RpcError)
        raise exc_type(payload.get("message", "remote fault"))
    return payload


class RpcServer:
    """A remote service endpoint: named handlers + device registry."""

    def __init__(
        self,
        sim: Simulation,
        name: str,
        costs: CostModel = DEFAULT_COSTS,
    ):
        self.sim = sim
        self.name = name
        self.costs = costs
        self._handlers: dict[str, Callable] = {}
        self._device_secrets: dict[str, bytes] = {}
        self.available = True
        #: optional server-side scheduler (repro.server.ServiceFrontend);
        #: None keeps the legacy unbounded-concurrency dispatch path.
        self.frontend: Any = None
        self.register(HELLO_METHOD, self._handle_hello)

    def register(self, method: str, handler: Callable) -> None:
        """Register a handler.

        Handlers receive ``(device_id, payload_dict)`` and either
        return a payload directly or are generators that may yield sim
        waitables (e.g. for durable log appends) before returning.
        """
        self._handlers[method] = handler

    def _handle_hello(self, device_id: str, payload: dict) -> dict:
        client_version = int(payload.get("version", PROTOCOL_V1))
        return {"version": min(PROTOCOL_LATEST, client_version)}

    def enroll_device(self, device_id: str, device_secret: bytes) -> None:
        """Provision a device's shared authentication secret."""
        self._device_secrets[device_id] = device_secret

    def device_secret(self, device_id: str) -> bytes:
        try:
            return self._device_secrets[device_id]
        except KeyError:
            raise AuthorizationError(f"unknown device {device_id!r}") from None

    def install_frontend(self, frontend: Any) -> None:
        """Route dispatch through a server-side scheduler.

        ``frontend`` must expose ``handles(method) -> bool`` and a
        generator ``dispatch(device_id, method, payload, deadline=None)``
        that eventually drives :meth:`execute`.  Installing ``None``
        restores the legacy direct path.
        """
        self.frontend = frontend

    # -- request execution (driven by RpcChannel) ---------------------------
    def dispatch(self, device_id: str, method: str, payload: dict,
                 deadline: Optional[float] = None) -> Generator:
        """Serve one request: via the frontend scheduler when one is
        installed (and claims the method), else directly.

        ``deadline`` is the caller's absolute sim-time budget, carried
        out of band (it is part of the request envelope the cost model
        already charges for, not extra wire bytes).  Only admission
        control consumes it; without a frontend it is ignored and the
        path is byte- and latency-identical to the legacy dispatch.
        """
        frontend = self.frontend
        if frontend is not None and frontend.handles(method):
            if not self.available:
                raise ServiceUnavailableError(f"{self.name} is unavailable")
            result = yield from frontend.dispatch(
                device_id, method, payload, deadline=deadline
            )
            return result
        result = yield from self.execute(device_id, method, payload)
        return result

    def execute(self, device_id: str, method: str, payload: dict) -> Generator:
        """Resolve and run a handler (the pre-frontend dispatch body)."""
        if not self.available:
            raise ServiceUnavailableError(f"{self.name} is unavailable")
        handler = self._handlers.get(method)
        if handler is None:
            raise RpcError(f"{self.name}: no such method {method!r}")
        result = handler(device_id, payload)
        if hasattr(result, "send"):  # generator handler
            result = yield from result
        return result


class RpcChannel:
    """Client-side stub bound to (device, link, server).

    Use from sim processes as ``result = yield from channel.call(...)``.
    """

    def __init__(
        self,
        sim: Simulation,
        link: Link,
        server: RpcServer,
        device_id: str,
        device_secret: bytes,
        costs: CostModel = DEFAULT_COSTS,
        rekey_interval: float = 100.0,
        pipelining: bool = False,
        tracer: Any = None,
    ):
        self.sim = sim
        self.link = link
        self.server = server
        self.device_id = device_id
        self._device_secret = device_secret
        self.costs = costs
        self.rekey_interval = rekey_interval
        self.pipelining = pipelining
        self.metrics = ChannelMetrics()
        #: optional TraceCollector; calls made without an op context
        #: still account their spans here as orphans.
        self.tracer = tracer
        self._session_key = hkdf_sha256(
            device_secret, b"", b"rpc-session-0", 32
        )
        self._last_rekey = sim.now
        self._epoch = 0
        self._connected = False
        # Pipelining state: negotiated protocol version (None until the
        # first hello), the in-flight request table, and callers waiting
        # for a free slot in the send window.
        self._negotiated: Optional[int] = None
        self._negotiating: Optional[Event] = None
        self._next_request_id = 0
        self._inflight: dict[int, Event] = {}
        self._slot_waiters: list[Event] = []

    # -- session key ratchet ---------------------------------------------------
    def _maybe_ratchet(self) -> None:
        while self.sim.now - self._last_rekey >= self.rekey_interval:
            self._epoch += 1
            self._session_key = hkdf_sha256(
                self._session_key, b"", b"rpc-ratchet", 32
            )
            self._last_rekey += self.rekey_interval

    @property
    def negotiated_version(self) -> Optional[int]:
        return self._negotiated

    @property
    def inflight_count(self) -> int:
        return len(self._inflight)

    # -- the call itself ----------------------------------------------------------
    def call(self, method: str, op_ctx: Any = None, **params: Any) -> Generator:
        """Sim-process generator performing one authenticated RPC.

        ``op_ctx`` is an optional :class:`repro.core.context.OpContext`.
        When present, the call honours the context's deadline (raising
        :class:`DeadlineExpiredError` if the budget expires mid-flight)
        and records a per-call trace span.  ``op_ctx=None`` is the exact
        legacy path.
        """
        if op_ctx is None:
            result = yield from self._call_once(method, params, None)
        else:
            result = yield from self._call_deadlined(method, params, op_ctx)
        return result

    def _call_once(self, method: str, params: dict, op_ctx: Any) -> Generator:
        """Serial, or one hello and then pipelined."""
        if not self.pipelining:
            result = yield from self._call_serial(method, params, op_ctx)
            return result
        if self._negotiated is None:
            yield from self._negotiate(op_ctx)
        result = yield from self._call_pipelined(method, params, op_ctx)
        return result

    def _call_deadlined(self, method: str, params: dict,
                        op_ctx: Any) -> Generator:
        """One attempt, raced against the context's remaining budget."""
        op_ctx.check(f"rpc {method}")
        if op_ctx.deadline is None:
            result = yield from self._call_once(method, params, op_ctx)
            return result
        sim = self.sim
        proc = sim.process(
            self._call_once(method, params, op_ctx),
            name=f"rpc-deadlined-{self.server.name}-{method}",
        )
        done = sim.event()

        # A callback-based race instead of sim.any_of: any_of spawns two
        # watcher processes per call, which at fleet scale is hundreds of
        # thousands of generator objects that exist only to relay one
        # trigger.  The winner is identical: whichever of the call and
        # the deadline fires first (the kernel's (time, seq) order)
        # settles `done`.  The deadline is a bare scheduler entry in the
        # slot a Timeout would take, without the waitable around it.
        def _won(w, _done=done):
            if not _done.triggered:
                if w.ok:
                    _done.succeed(("call", w.value))
                else:
                    _done.fail(w.value)

        def _expired(_done=done):
            if not _done.triggered:
                _done.succeed(("deadline", None))

        proc._add_callback(_won)
        sim._schedule(op_ctx.remaining(), _expired)
        kind, value = yield done
        if kind == "call":
            return value
        proc.interrupt("deadline")
        self.metrics.deadline_expiries += 1
        if op_ctx.traced:
            op_ctx.event("deadline-expired", method=method,
                         server=self.server.name)
        raise DeadlineExpiredError(
            f"rpc {method} to {self.server.name} exceeded the operation "
            f"deadline at t={self.sim.now:.3f}"
        )

    # -- trace spans --------------------------------------------------------------
    def _span_begin(self, op_ctx: Any, method: str, transport: str):
        """Open the per-call span: on the op context when one is traced,
        else as a collector orphan, else not at all."""
        if op_ctx is not None and op_ctx.traced:
            return op_ctx.attach(_RPC_SPAN + method, transport=transport,
                                 server=self.server.name), op_ctx
        if self.tracer is not None:
            return self.tracer.start_orphan(
                _RPC_SPAN + method, self.sim.now, transport=transport,
                server=self.server.name
            ), None
        return None, None

    def _span_end(self, span: Any, owner: Any, status: str = "ok") -> None:
        if span is None:
            return
        if owner is not None:
            owner.close(span, status)
        else:
            self.tracer.finish_orphan(span, self.sim.now, status)

    # -- version negotiation ------------------------------------------------------
    def _negotiate(self, op_ctx: Any = None) -> Generator:
        """One hello round-trip; concurrent callers share the attempt.

        A failed hello leaves the version unresolved, so the next call
        says hello again.
        """
        while self._negotiating is not None:
            yield self._negotiating
            if self._negotiated is not None:
                return None
        if self._negotiated is not None:
            return None
        self._negotiating = self.sim.event()
        try:
            response = yield from self._call_serial(
                HELLO_METHOD, {"version": PROTOCOL_LATEST}, op_ctx
            )
            self._negotiated = response["version"]
        finally:
            self.metrics.handshakes += 1
            self.metrics.negotiated_version = self._negotiated
            event, self._negotiating = self._negotiating, None
            event.succeed()
        return None

    # -- serial (protocol v1) path ---------------------------------------------
    def _call_serial(self, method: str, params: dict,
                     op_ctx: Any = None) -> Generator:
        self._maybe_ratchet()
        self.metrics.calls += 1
        self.metrics.serial_calls += 1
        deadline = op_ctx.deadline if op_ctx is not None else None
        span, owner = self._span_begin(op_ctx, method, "serial")
        try:
            result = yield from self._serial_body(method, params, span, deadline)
        except BaseException as exc:
            self._span_end(span, owner, status=f"error:{type(exc).__name__}")
            raise
        self._span_end(span, owner)
        return result

    def _serial_body(self, method: str, params: dict, span: Any,
                     deadline: Optional[float] = None) -> Generator:
        # The request as the wire captures it at send: its size, and
        # the values the server's parse of those bytes would yield.
        payload_in, wire_size = request_wire_form(method, params,
                                                  self.device_id)
        # Client marshal + seal CPU.
        yield self.costs.rpc_marshal_time(wire_size)
        if not self._connected:
            # Persistent connections: only the first call (or the first
            # after an outage) pays connection setup.
            yield self.costs.rpc_connect

        yield from self._transfer(wire_size)
        self._connected = True
        self.metrics.bytes_sent += wire_size
        if span is not None:
            span.attrs["bytes_out"] = wire_size

        # Server side: verify auth, unmarshal, execute.
        self._authenticate()
        yield self.costs.rpc_marshal_time(wire_size, server=True)
        result = yield from serve_request(self.server, self.device_id,
                                          method, payload_in, deadline)

        # Response path.
        result, response_size = response_wire_form(result)
        yield from self._transfer(response_size)
        self.metrics.bytes_received += response_size
        if span is not None:
            span.attrs["bytes_in"] = response_size
        yield self.costs.rpc_marshal_time(response_size)
        return raise_if_fault(result)

    def _authenticate(self) -> None:
        """The server's request check.  HMAC is deterministic, so over
        one message the device's tag and the server's match exactly when
        the keys match: comparing the secrets is the same predicate."""
        if self.server.device_secret(self.device_id) != self._device_secret:
            raise AuthorizationError("request authentication failed")

    def _transfer(self, n_bytes: int) -> Generator:
        """One link crossing; an outage drops the persistent connection."""
        try:
            yield from self.link.transfer(n_bytes)
        except NetworkUnavailableError:
            self._connected = False
            raise

    # -- pipelined (protocol v2) path -------------------------------------------
    def _call_pipelined(self, method: str, params: dict,
                        op_ctx: Any = None) -> Generator:
        """Send one framed request and park on its completion event.

        The server side runs in its own process, so other requests may
        be issued on this channel while this one is pending; the send
        window is bounded by :data:`PIPELINE_WINDOW`.
        """
        self._maybe_ratchet()
        while len(self._inflight) >= PIPELINE_WINDOW:
            slot = self.sim.event()
            self._slot_waiters.append(slot)
            try:
                yield slot
            except BaseException:
                abandon_handoff(self._slot_waiters, slot,
                                self._wake_slot_waiter)
                raise

        request_id = self._next_request_id
        self._next_request_id += 1
        done = self.sim.event()
        self._inflight[request_id] = done
        self.metrics.calls += 1
        self.metrics.pipelined_calls += 1
        self.metrics.note_inflight(len(self._inflight))
        deadline = op_ctx.deadline if op_ctx is not None else None
        span, owner = self._span_begin(op_ctx, method, "pipelined")
        try:
            result = yield from self._pipelined_body(
                method, params, request_id, done, span, deadline
            )
        except BaseException as exc:
            self._span_end(span, owner, status=f"error:{type(exc).__name__}")
            raise
        self._span_end(span, owner)
        return result

    def _wake_slot_waiter(self) -> None:
        if self._slot_waiters:
            self._slot_waiters.pop(0).succeed()

    def _pipelined_body(self, method: str, params: dict, request_id: int,
                        done: Event, span: Any,
                        deadline: Optional[float] = None) -> Generator:
        try:
            payload_in, wire_size = request_wire_form(
                method, params, self.device_id, framed=True)
            yield self.costs.rpc_marshal_time(wire_size)
            if not self._connected:
                yield self.costs.rpc_connect
            yield from self._transfer(wire_size)
            self._connected = True
            self.metrics.bytes_sent += wire_size
            if span is not None:
                span.attrs["bytes_out"] = wire_size

            self.sim.process(
                self._serve_pipelined(method, payload_in, wire_size, done,
                                      deadline),
                name=f"rpc-serve-{self.server.name}-{request_id}",
            )
            result = yield done
        finally:
            self._inflight.pop(request_id, None)
            self._wake_slot_waiter()
        return raise_if_fault(result)

    def _serve_pipelined(self, method: str, payload_in: dict, wire_size: int,
                         done: Event,
                         deadline: Optional[float] = None) -> Generator:
        """Server-side half of a pipelined request (its own process)."""
        try:
            self._authenticate()
            yield self.costs.rpc_marshal_time(wire_size, server=True)
            result = yield from serve_request(self.server, self.device_id,
                                              method, payload_in, deadline)

            result, response_size = response_wire_form(result, framed=True)
            yield from self._transfer(response_size)
            self.metrics.bytes_received += response_size
            yield self.costs.rpc_marshal_time(response_size)
            if not done.triggered:
                done.succeed(result)
        except Exception as exc:  # delivered to the parked caller
            if not done.triggered:
                done.fail(exc)
        return None
