"""The paired-device architecture (§3.5, Fig. 4).

A phone on a short-range Bluetooth link acts as a transparent extension
of the key and metadata services:

* it **hoards** recently used keys and serves laptop key requests from
  the hoard, logging each access durably on the phone;
* on a hoard miss with connectivity, it fetches the missed key *and
  related keys* (the laptop passes sibling audit IDs as the
  directory-level hint) from the key service;
* metadata updates pass through when connected and are durably
  **deferred** when not, with everything uploaded in bulk when
  connectivity returns — so auditability survives disconnection as
  long as the phone itself is not also stolen.

The laptop talks to the phone over a real :class:`RpcChannel` on the
Bluetooth link, so latency and byte accounting work exactly as for the
direct service path.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.costmodel import DEFAULT_COSTS, CostModel
from repro.crypto.ibe import IbePrivateKey
from repro.crypto.ibe.curve import Point
from repro.crypto.ibe.fp2 import Fp2
from repro.errors import NetworkUnavailableError, RpcError, ServiceUnavailableError
from repro.net.link import Link
from repro.net.rpc import RpcChannel, RpcServer
from repro.sim import Simulation
from repro.core.client import (
    DirRegistration,
    FileRegistration,
    IbeRegistration,
    KeyFetch,
    KeyUpload,
)
from repro.core.services.keyservice import KeyService
from repro.core.services.metadataservice import MetadataService

__all__ = ["PairedPhone", "PhoneProxy"]


class PairedPhone:
    """The phone-side daemon (the paper's 431-line Python daemon)."""

    def __init__(
        self,
        sim: Simulation,
        phone_id: str,
        phone_secret: bytes,
        key_service: KeyService,
        metadata_service: MetadataService,
        key_uplink: Link,
        metadata_uplink: Link,
        costs: CostModel = DEFAULT_COSTS,
        hoard_texp: float = 600.0,
        flush_interval: float = 10.0,
        pipelining: bool = False,
        max_inflight: int = 8,
    ):
        self.sim = sim
        self.phone_id = phone_id
        self.costs = costs
        self.hoard_texp = hoard_texp
        self.key_service = key_service
        self.metadata_service = metadata_service
        key_service.enroll_device(phone_id, phone_secret)
        metadata_service.enroll_device(phone_id, phone_secret)
        self.key_uplink = key_uplink
        self.metadata_uplink = metadata_uplink
        self._key_channel = RpcChannel(
            sim, key_uplink, key_service.server, phone_id, phone_secret, costs,
            pipelining=pipelining, max_inflight=max_inflight,
        )
        self._meta_channel = RpcChannel(
            sim, metadata_uplink, metadata_service.server, phone_id,
            phone_secret, costs,
            pipelining=pipelining, max_inflight=max_inflight,
        )

        # The phone's own RPC endpoint (laptop connects over Bluetooth).
        self.server = RpcServer(sim, f"{phone_id}-daemon", costs)
        self.server.register("phone.fetch_key", self._handle_fetch_key)
        self.server.register("phone.fetch_keys", self._handle_fetch_keys)
        self.server.register("phone.put_key", self._handle_put_key)
        self.server.register("phone.register_file", self._handle_register_file)
        self.server.register("phone.register_file_ibe", self._handle_register_ibe)
        self.server.register("phone.register_dir", self._handle_register_dir)

        self._hoard: dict[bytes, tuple[bytes, float]] = {}
        # Durable local DB of access records awaiting bulk upload.
        self._pending_access: list[dict] = []
        self._pending_meta: list[dict] = []
        self.stats = {"hoard_hits": 0, "hoard_misses": 0, "uploads": 0,
                      "deferred_meta": 0}
        self._flusher = sim.process(
            self._flush_loop(flush_interval), name=f"{phone_id}-flusher"
        )

    # -- hoard --------------------------------------------------------------
    def _hoard_get(self, audit_id: bytes) -> Optional[bytes]:
        entry = self._hoard.get(audit_id)
        if entry is None:
            return None
        if entry[1] <= self.sim.now:
            # Hoard entries never expire while disconnected — keeping
            # keys through the outage is the whole point of hoarding
            # ("cache them until connectivity is restored").  Every
            # disconnected use is still durably logged.
            if self.key_uplink.available:
                self._hoard.pop(audit_id, None)
                return None
        return entry[0]

    def _hoard_put(self, audit_id: bytes, key: bytes) -> None:
        self._hoard[audit_id] = (key, self.sim.now + self.hoard_texp)

    def hoarded_ids(self) -> set[bytes]:
        """Keys a thief stealing the phone would recover.

        While disconnected the whole hoard is live (entries are pinned
        through outages), so everything counts.
        """
        if not self.key_uplink.available:
            return set(self._hoard)
        return {a for a, (_, exp) in self._hoard.items() if exp > self.sim.now}

    # -- handlers (called by the laptop over Bluetooth) ------------------------
    def _log_access(self, audit_id: bytes, kind: str) -> Generator:
        yield self.sim.timeout(self.costs.phone_db_append)
        self._pending_access.append(
            {"audit_id": audit_id, "timestamp": self.sim.now, "kind": kind}
        )
        return None

    def _handle_fetch_key(self, device_id: str, payload: dict) -> Generator:
        yield self.sim.timeout(self.costs.phone_handler)
        audit_id = payload["audit_id"]
        kind = payload.get("kind", "fetch")
        related: list[bytes] = payload.get("related_ids", [])
        yield from self._log_access(audit_id, f"paired-{kind}")

        key = self._hoard_get(audit_id)
        if key is not None:
            self.stats["hoard_hits"] += 1
            return {"key": key}

        self.stats["hoard_misses"] += 1
        if not self.key_uplink.available:
            raise ServiceUnavailableError(
                "phone hoard miss while disconnected from the key service"
            )
        # Fetch the missed key plus the directory-level hint in one
        # batch ("the phone fetches the missed key and other related
        # keys from the key service").
        wanted = [audit_id] + [r for r in related if self._hoard_get(r) is None]
        response = yield from self._key_channel.call(
            "key.fetch_batch", audit_ids=wanted, kind="paired-prefetch"
        )
        for wanted_id, fetched in zip(wanted, response["keys"]):
            if fetched:
                self._hoard_put(wanted_id, fetched)
        key = self._hoard_get(audit_id)
        if key is None:
            raise RpcError("key service did not return the requested key")
        return {"key": key}

    def _handle_fetch_keys(self, device_id: str, payload: dict) -> Generator:
        yield self.sim.timeout(self.costs.phone_handler)
        audit_ids = payload["audit_ids"]
        kind = payload.get("kind", "prefetch")
        keys: list[bytes] = []
        missing: list[bytes] = []
        for audit_id in audit_ids:
            yield from self._log_access(audit_id, f"paired-{kind}")
            hoarded = self._hoard_get(audit_id)
            if hoarded is None:
                missing.append(audit_id)
        if missing and self.key_uplink.available:
            response = yield from self._key_channel.call(
                "key.fetch_batch", audit_ids=missing, kind="paired-prefetch"
            )
            for missing_id, fetched in zip(missing, response["keys"]):
                if fetched:
                    self._hoard_put(missing_id, fetched)
        for audit_id in audit_ids:
            keys.append(self._hoard_get(audit_id) or b"")
        return {"keys": keys}

    def _handle_put_key(self, device_id: str, payload: dict) -> Generator:
        yield self.sim.timeout(self.costs.phone_handler)
        audit_id = payload["audit_id"]
        key = payload["key"]
        self._hoard_put(audit_id, key)
        if self.key_uplink.available:
            yield from self._key_channel.call(
                "key.put", audit_id=audit_id, key=key
            )
        else:
            yield self.sim.timeout(self.costs.phone_db_append)
            self._pending_meta.append(
                {"type": "put_key", "audit_id": audit_id, "key": key,
                 "timestamp": self.sim.now}
            )
            self.stats["deferred_meta"] += 1
        return {"ok": True}

    def _handle_register_file(self, device_id: str, payload: dict) -> Generator:
        yield self.sim.timeout(self.costs.phone_handler)
        if self.metadata_uplink.available:
            yield from self._meta_channel.call("meta.register", **payload)
        else:
            yield self.sim.timeout(self.costs.phone_db_append)
            self._pending_meta.append(
                {"type": "file", "timestamp": self.sim.now, **payload}
            )
            self.stats["deferred_meta"] += 1
        return {"ok": True}

    def _handle_register_ibe(self, device_id: str, payload: dict) -> Generator:
        yield self.sim.timeout(self.costs.phone_handler)
        if self.metadata_uplink.available:
            response = yield from self._meta_channel.call(
                "meta.register_ibe", **payload
            )
            return response
        # Disconnected: durably defer; the laptop unlocks from its
        # cached wrapped key, auditability provided by the phone log.
        yield self.sim.timeout(self.costs.phone_db_append)
        self._pending_meta.append(
            {"type": "ibe", "timestamp": self.sim.now, **payload}
        )
        self.stats["deferred_meta"] += 1
        return {"deferred": True}

    def _handle_register_dir(self, device_id: str, payload: dict) -> Generator:
        yield self.sim.timeout(self.costs.phone_handler)
        if self.metadata_uplink.available:
            yield from self._meta_channel.call("meta.register_dir", **payload)
        else:
            yield self.sim.timeout(self.costs.phone_db_append)
            self._pending_meta.append(
                {"type": "dir", "timestamp": self.sim.now, **payload}
            )
            self.stats["deferred_meta"] += 1
        return {"ok": True}

    # -- bulk upload -------------------------------------------------------------
    def _flush_loop(self, interval: float) -> Generator:
        while True:
            yield self.sim.timeout(interval)
            if self.key_uplink.available and self._pending_access:
                batch, self._pending_access = self._pending_access, []
                try:
                    yield from self._key_channel.call(
                        "key.report_batch", records=batch
                    )
                    self.stats["uploads"] += 1
                except (NetworkUnavailableError, ServiceUnavailableError):
                    self._pending_access = batch + self._pending_access
            if self.metadata_uplink.available and self._pending_meta:
                batch, self._pending_meta = self._pending_meta, []
                try:
                    yield from self._upload_meta(batch)
                except (NetworkUnavailableError, ServiceUnavailableError):
                    self._pending_meta = batch + self._pending_meta

    def _upload_meta(self, batch: list[dict]) -> Generator:
        for item in batch:
            kind = item.pop("type")
            timestamp = item.pop("timestamp")
            if kind == "put_key":
                yield from self._key_channel.call(
                    "key.put", audit_id=item["audit_id"], key=item["key"]
                )
            elif kind == "file":
                yield from self._meta_channel.call("meta.register", **item)
            elif kind == "ibe":
                yield from self._meta_channel.call("meta.register_ibe", **item)
            elif kind == "dir":
                yield from self._meta_channel.call("meta.register_dir", **item)
        self.stats["uploads"] += 1
        return None

    @property
    def pending_upload_count(self) -> int:
        return len(self._pending_access) + len(self._pending_meta)


class PhoneProxy:
    """Laptop-side stub: routes :class:`ServiceSession` traffic over
    Bluetooth.  Exposes the same typed request surface as the session
    (``fetch``/``fetch_many``/``upload``/``register``)."""

    def __init__(
        self,
        sim: Simulation,
        phone: PairedPhone,
        bluetooth_link: Link,
        device_id: str,
        device_secret: bytes,
        costs: CostModel = DEFAULT_COSTS,
        ibe_params=None,
        pipelining: bool = False,
        max_inflight: int = 8,
        tracer=None,
    ):
        phone.server.enroll_device(device_id, device_secret)
        self.sim = sim
        self.phone = phone
        self.channel = RpcChannel(
            sim, bluetooth_link, phone.server, device_id, device_secret, costs,
            pipelining=pipelining, max_inflight=max_inflight, tracer=tracer,
        )
        self._ibe_params = ibe_params or phone.metadata_service.pkg.params
        # Directory hint support: the FS sets this before a fetch so
        # the phone can prefetch related keys.
        self.related_hint: list[bytes] = []

    # -- typed surface -------------------------------------------------------
    # ``ctx`` is the laptop-side operation context; the Bluetooth hop
    # honours its deadline/budget and records the per-call span.  The
    # phone's own uplink traffic stays unattributed (a different trust
    # domain does not share the laptop's budget).

    def fetch(self, request: KeyFetch, ctx=None) -> Generator:
        hint, self.related_hint = self.related_hint, []
        response = yield from self.channel.call(
            "phone.fetch_key", op_ctx=ctx, audit_id=request.audit_id,
            kind=request.kind, related_ids=hint,
        )
        return response["key"]

    def fetch_many(self, requests: list[KeyFetch], ctx=None) -> Generator:
        kind = requests[0].kind if requests else "prefetch"
        response = yield from self.channel.call(
            "phone.fetch_keys", op_ctx=ctx,
            audit_ids=[r.audit_id for r in requests], kind=kind,
        )
        return response["keys"]

    def upload(self, request: KeyUpload, ctx=None) -> Generator:
        yield from self.channel.call(
            "phone.put_key", op_ctx=ctx, audit_id=request.audit_id,
            key=request.key
        )
        return None

    def register(self, request, ctx=None) -> Generator:
        if isinstance(request, FileRegistration):
            yield from self.channel.call(
                "phone.register_file", op_ctx=ctx, audit_id=request.audit_id,
                dir_id=request.dir_id, name=request.name,
            )
            return None
        if isinstance(request, DirRegistration):
            yield from self.channel.call(
                "phone.register_dir", op_ctx=ctx, dir_id=request.dir_id,
                parent_id=request.parent_id, name=request.name,
            )
            return None
        if isinstance(request, IbeRegistration):
            response = yield from self.channel.call(
                "phone.register_file_ibe", op_ctx=ctx,
                identity=request.identity
            )
            if response.get("deferred"):
                return None
            params = self._ibe_params
            return IbePrivateKey(
                identity=response["identity"],
                point=Point(
                    Fp2.from_int(response["point_x"], params.p),
                    Fp2.from_int(response["point_y"], params.p),
                ),
            )
        raise TypeError(f"not a phone-routable registration: {request!r}")

