"""Device-side access to the audit services.

:class:`ServiceSession` is the unified client facade: it owns the RPC
channels from the client device to the key service and the metadata
service (deliberately separate channels — distinct providers see
disjoint information, §3.1), optionally routes through a paired phone
(§3.5) when one is attached, and with ``fast_transport`` on
(:attr:`KeypadConfig.fast_transport`) pipelines both channels and
layers two transport optimisations above them:

* **single-flight coalescing**: when N sim processes miss on the same
  audit ID concurrently, one RPC goes out and the rest join its
  completion event.  Joiners only share a fetch that is genuinely in
  flight, and a joiner caches the key from the leader's send
  (:meth:`ServiceSession.sent_at`), so every delivered key still has a
  service log entry inside the current Texp window — the audit
  invariant (zero false negatives) is preserved.
* **write-behind batching**: non-blocking traffic (eviction notices,
  xattr registrations) is queued and flushed as batch RPCs by a
  background process, with the original enqueue timestamps carried in
  the batch payload.

Requests are expressed as typed dataclasses (:class:`KeyFetch`,
:class:`KeyCreate`, ...), one per call: ``fetch``/``fetch_many``,
``create``, ``upload``, ``notify`` and ``register``.

Every request method accepts an optional ``ctx``
(:class:`~repro.core.context.OpContext`) threaded down from the VFS
operation that triggered it; the session forwards it to the RPC
channels (deadlines, per-call spans) and tags
session-level events — coalesced joins, write-behind flushes — as
child spans.  ``ctx=None`` is the exact legacy path.

All methods are sim-process generators unless noted otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Union

from repro.core.context import OpContext

from repro.costmodel import DEFAULT_COSTS, CostModel
from repro.crypto.ibe import IbePrivateKey
from repro.crypto.ibe.curve import Point
from repro.crypto.ibe.fp2 import Fp2
from repro.errors import NetworkUnavailableError, RpcError, ServiceUnavailableError
from repro.net.link import Link
from repro.net.metrics import SessionMetrics, merge_channel_metrics
from repro.net.rpc import RpcChannel
from repro.sim import Simulation
from repro.core.services.keyservice import KeyService
from repro.core.services.metadataservice import MetadataService

__all__ = [
    "ServiceSession",
    "KeyFetch",
    "KeyCreate",
    "KeyUpload",
    "FileRegistration",
    "DirRegistration",
    "IbeRegistration",
    "XattrRegistration",
    "EvictionNotice",
]

#: The fast transport's fixed settings: the key service's escrow-map
#: shard count and the write-behind flusher's period in sim-seconds
#: (its window is :data:`repro.net.rpc.PIPELINE_WINDOW`).
KEY_SHARDS = 4
WRITE_BEHIND_INTERVAL = 1.0


# -- typed request surface ----------------------------------------------------


@dataclass(frozen=True)
class KeyFetch:
    """Fetch the escrowed key for one audit ID (blocking, auditable)."""

    audit_id: bytes
    kind: str = "fetch"


@dataclass(frozen=True)
class KeyCreate:
    """Have the key service mint and escrow a fresh key."""

    audit_id: bytes


@dataclass(frozen=True)
class KeyUpload:
    """Escrow a device-generated key (the IBE create path)."""

    audit_id: bytes
    key: bytes


@dataclass(frozen=True)
class FileRegistration:
    """Bind an audit ID to a (directory, name) at the metadata service."""

    audit_id: bytes
    dir_id: str
    name: str


@dataclass(frozen=True)
class DirRegistration:
    """Register a directory under its parent at the metadata service."""

    dir_id: str
    parent_id: str
    name: str


@dataclass(frozen=True)
class IbeRegistration:
    """Register an IBE identity and obtain its private key."""

    identity: bytes


@dataclass(frozen=True)
class XattrRegistration:
    """Record an extended attribute with the metadata service."""

    audit_id: bytes
    name: str
    value: bytes


@dataclass(frozen=True)
class EvictionNotice:
    """Tell the key service that cached keys were discarded."""

    count: int
    reason: str


#: Requests accepted by :meth:`ServiceSession.enqueue` (write-behind).
DeferrableRequest = Union[XattrRegistration, EvictionNotice]


class ServiceSession:
    """The laptop's window onto the remote audit services."""

    def __init__(
        self,
        sim: Simulation,
        device_id: str,
        device_secret: bytes,
        key_service: KeyService,
        metadata_service: MetadataService,
        key_link: Link,
        metadata_link: Link,
        costs: CostModel = DEFAULT_COSTS,
        rekey_interval: float = 100.0,
        fast_transport: bool = False,
        tracer=None,
    ):
        self.sim = sim
        self.device_id = device_id
        self.key_service = key_service
        self.metadata_service = metadata_service
        self.tracer = tracer
        key_service.enroll_device(device_id, device_secret)
        metadata_service.enroll_device(device_id, device_secret)
        self.key_channel = RpcChannel(
            sim, key_link, key_service.server, device_id, device_secret,
            costs=costs, rekey_interval=rekey_interval,
            pipelining=fast_transport, tracer=tracer,
        )
        self.metadata_channel = RpcChannel(
            sim, metadata_link, metadata_service.server, device_id,
            device_secret, costs=costs, rekey_interval=rekey_interval,
            pipelining=fast_transport, tracer=tracer,
        )
        self.fast_transport = fast_transport
        self.metrics = SessionMetrics()
        # audit_id -> (completion Event, send time) for the single RPC
        # in flight.
        self._inflight_fetches: dict[bytes, tuple[object, float]] = {}
        self._wb_queue: list[tuple[float, DeferrableRequest]] = []
        self._flusher = None
        # When a paired phone is attached, requests route through it.
        self.phone = None  # type: Optional[object]

    def attach_phone(self, phone) -> None:
        """Route key/metadata traffic via the paired device."""
        self.phone = phone

    def detach_phone(self) -> None:
        self.phone = None

    # -- introspection -------------------------------------------------------

    def inflight_fetch_ids(self) -> set[bytes]:
        """Audit IDs with a fetch RPC currently on the wire."""
        return set(self._inflight_fetches)

    def sent_at(self, audit_id: bytes) -> float:
        """When a fetch of ``audit_id`` issued now goes out: the send
        time of the in-flight fetch it would join, else now.  A joiner
        must cache the key from the leader's send, which the service
        logged, or the key would outlive that log entry's ``Texp``."""
        pending = self._inflight_fetches.get(audit_id)
        return self.sim.now if pending is None else pending[1]

    def channel_metrics(self):
        """Aggregate counters across the key and metadata channels."""
        return merge_channel_metrics(
            [self.key_channel.metrics, self.metadata_channel.metrics]
        )

    def pending_write_behind(self) -> int:
        return len(self._wb_queue)

    # -- key service ---------------------------------------------------------

    def fetch(self, request: KeyFetch,
              ctx: Optional[OpContext] = None) -> Generator:
        """Fetch one escrowed key; coalesces with in-flight fetches."""
        if not self.fast_transport:
            key = yield from self._fetch_direct(request.audit_id,
                                                request.kind, ctx)
            return key
        pending = self._inflight_fetches.get(request.audit_id)
        if pending is not None:
            self.metrics.coalesced_hits += 1
            if ctx is not None and ctx.traced:
                with ctx.span("coalesced-wait"):
                    key = yield pending[0]
            else:
                key = yield pending[0]
            if key == b"":
                # The leader was a batch fetch and the service did not
                # know this ID; a lone fetch would have faulted.
                raise RpcError(f"unknown audit ID (coalesced): {request.audit_id!r}")
            return key
        done = self.sim.event()
        self._inflight_fetches[request.audit_id] = (done, self.sim.now)
        try:
            key = yield from self._fetch_direct(request.audit_id,
                                                request.kind, ctx)
        except BaseException as exc:
            self._inflight_fetches.pop(request.audit_id, None)
            if not done.triggered:
                done.fail(exc)
            raise
        self._inflight_fetches.pop(request.audit_id, None)
        done.succeed(key)
        return key

    def fetch_many(self, requests: list[KeyFetch],
                   ctx: Optional[OpContext] = None) -> Generator:
        """Batch fetch; in-flight IDs are joined rather than re-requested.

        Returns keys in request order; unknown IDs come back as ``b""``
        (the batch-RPC convention), matching ``key.fetch_batch``.
        """
        if not requests:
            return []
        kind = requests[0].kind
        if not self.fast_transport:
            keys = yield from self._fetch_batch_direct(
                [r.audit_id for r in requests], kind, ctx
            )
            return keys
        results: dict[bytes, bytes] = {}
        joins: list[tuple[bytes, object]] = []
        to_fetch: list[bytes] = []
        registered: dict[bytes, object] = {}
        for request in requests:
            audit_id = request.audit_id
            if audit_id in results or audit_id in registered:
                continue  # duplicate within this batch
            if any(audit_id == j[0] for j in joins):
                continue
            pending = self._inflight_fetches.get(audit_id)
            if pending is not None:
                self.metrics.coalesced_batch_hits += 1
                joins.append((audit_id, pending[0]))
            else:
                registered[audit_id] = self.sim.event()
                self._inflight_fetches[audit_id] = (registered[audit_id],
                                                    self.sim.now)
                to_fetch.append(audit_id)
        try:
            keys = []
            if to_fetch:
                keys = yield from self._fetch_batch_direct(to_fetch, kind, ctx)
        except BaseException as exc:
            for audit_id, done in registered.items():
                self._inflight_fetches.pop(audit_id, None)
                if not done.triggered:
                    done.fail(exc)
            raise
        for audit_id, key in zip(to_fetch, keys):
            results[audit_id] = key
            done = registered[audit_id]
            self._inflight_fetches.pop(audit_id, None)
            done.succeed(key)
        for audit_id, pending in joins:
            key = yield pending
            results[audit_id] = key
        return [results[r.audit_id] for r in requests]

    def create(self, request: KeyCreate,
               ctx: Optional[OpContext] = None) -> Generator:
        response = yield from self.key_channel.call(
            "key.create", op_ctx=ctx, audit_id=request.audit_id
        )
        return response["key"]

    def upload(self, request: KeyUpload,
               ctx: Optional[OpContext] = None) -> Generator:
        if self.phone is not None:
            yield from self.phone.upload(request, ctx)
            return None
        yield from self.key_channel.call(
            "key.put", op_ctx=ctx, audit_id=request.audit_id, key=request.key
        )
        return None

    def notify(self, request: EvictionNotice,
               ctx: Optional[OpContext] = None) -> Generator:
        """Blocking eviction notice (the hibernate path)."""
        yield from self.key_channel.call(
            "key.evict_notify", op_ctx=ctx, count=request.count,
            reason=request.reason
        )
        return None

    def _fetch_direct(self, audit_id: bytes, kind: str,
                      ctx: Optional[OpContext] = None) -> Generator:
        if self.phone is not None:
            key = yield from self.phone.fetch(
                KeyFetch(audit_id=audit_id, kind=kind), ctx
            )
            return key
        response = yield from self.key_channel.call(
            "key.fetch", op_ctx=ctx, audit_id=audit_id, kind=kind
        )
        return response["key"]

    def _fetch_batch_direct(self, audit_ids: list[bytes], kind: str,
                            ctx: Optional[OpContext] = None) -> Generator:
        if self.phone is not None:
            keys = yield from self.phone.fetch_many(
                [KeyFetch(audit_id=a, kind=kind) for a in audit_ids], ctx
            )
            return keys
        response = yield from self.key_channel.call(
            "key.fetch_batch", op_ctx=ctx, audit_ids=audit_ids, kind=kind
        )
        return response["keys"]

    # -- metadata service ----------------------------------------------------

    def register(self, request,
                 ctx: Optional[OpContext] = None) -> Generator:
        """Dispatch a registration request to the metadata service."""
        if isinstance(request, FileRegistration):
            if self.phone is not None:
                yield from self.phone.register(request, ctx)
                return None
            yield from self.metadata_channel.call(
                "meta.register", op_ctx=ctx, audit_id=request.audit_id,
                dir_id=request.dir_id, name=request.name,
            )
            return None
        if isinstance(request, DirRegistration):
            if self.phone is not None:
                yield from self.phone.register(request, ctx)
                return None
            yield from self.metadata_channel.call(
                "meta.register_dir", op_ctx=ctx, dir_id=request.dir_id,
                parent_id=request.parent_id, name=request.name,
            )
            return None
        if isinstance(request, IbeRegistration):
            if self.phone is not None:
                result = yield from self.phone.register(request, ctx)
                return result
            response = yield from self.metadata_channel.call(
                "meta.register_ibe", op_ctx=ctx, identity=request.identity
            )
            return self._private_key_from(response)
        if isinstance(request, XattrRegistration):
            yield from self.metadata_channel.call(
                "meta.register_xattr", op_ctx=ctx, audit_id=request.audit_id,
                name=request.name, value=request.value,
            )
            return None
        raise TypeError(f"not a registration request: {request!r}")

    # -- write-behind --------------------------------------------------------

    def enqueue(self, request: DeferrableRequest) -> None:
        """Accept a non-blocking request for batched delivery (not a generator).

        Requires ``fast_transport``; the background flusher wakes every
        ``WRITE_BEHIND_INTERVAL`` sim-seconds and folds queued items
        into batch RPCs carrying their original timestamps.
        """
        if not self.fast_transport:
            raise RpcError("write-behind needs the fast transport")
        if not isinstance(request, (XattrRegistration, EvictionNotice)):
            raise TypeError(f"not a deferrable request: {request!r}")
        self._wb_queue.append((self.sim.now, request))
        self.metrics.enqueued += 1
        if self._flusher is None or not self._flusher.alive:
            self._flusher = self.sim.process(
                self._flush_loop(), name=f"{self.device_id}-write-behind"
            )

    def flush(self) -> Generator:
        """Synchronously drain the write-behind queue (hibernate path)."""
        yield from self._flush_once()
        return None

    def _flush_loop(self) -> Generator:
        while True:
            yield self.sim.timeout(WRITE_BEHIND_INTERVAL)
            if not self._wb_queue:
                return  # idle: exit; the next enqueue restarts us
            yield from self._flush_once()

    def _flush_once(self) -> Generator:
        batch, self._wb_queue = self._wb_queue, []
        notices = [
            (ts, r) for ts, r in batch if isinstance(r, EvictionNotice)
        ]
        xattrs = [
            (ts, r) for ts, r in batch if isinstance(r, XattrRegistration)
        ]
        # Maintenance traffic carries its own non-blocking context (the
        # blocking-RPC counters exclude write-behind flushes, and the
        # span accounting must agree).  No deadline: flushes retry via
        # re-queueing, they never fail an op.
        ctx = None
        if self.tracer is not None:
            ctx = OpContext(self.sim, "write-behind-flush",
                            device_id=self.device_id, collector=self.tracer,
                            blocking=False)
        error: Optional[BaseException] = None
        if notices:
            payload = [
                {"count": r.count, "reason": r.reason, "timestamp": ts}
                for ts, r in notices
            ]
            try:
                yield from self._send_evict_batch(payload, ctx)
                self.metrics.write_behind_flushes += 1
                self.metrics.batched_messages += len(notices)
            except (NetworkUnavailableError, ServiceUnavailableError) as exc:
                self._wb_queue = notices + self._wb_queue
                error = exc
        if xattrs:
            payload = [
                {
                    "audit_id": r.audit_id,
                    "name": r.name,
                    "value": r.value,
                    "timestamp": ts,
                }
                for ts, r in xattrs
            ]
            try:
                yield from self.metadata_channel.call(
                    "meta.register_xattr_batch", op_ctx=ctx, items=payload
                )
                self.metrics.write_behind_flushes += 1
                self.metrics.batched_messages += len(xattrs)
            except (NetworkUnavailableError, ServiceUnavailableError) as exc:
                self._wb_queue = xattrs + self._wb_queue
                error = exc
        if ctx is not None:
            ctx.finish(error)
        return None

    def _send_evict_batch(self, payload: list[dict],
                          ctx: Optional[OpContext] = None) -> Generator:
        """Transport hook for one eviction-notice batch; the replicated
        session overrides this to fan the batch out across the cluster."""
        yield from self.key_channel.call(
            "key.evict_notify_batch", op_ctx=ctx, notices=payload
        )
        return None

    def _private_key_from(self, response: dict) -> IbePrivateKey:
        params = self.metadata_service.pkg.params
        point = Point(
            Fp2.from_int(response["point_x"], params.p),
            Fp2.from_int(response["point_y"], params.p),
        )
        return IbePrivateKey(identity=response["identity"], point=point)

