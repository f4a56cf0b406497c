"""The Keypad key service.

Maintains the binding ``audit ID → remote key (K_R)`` and durably logs
every access before returning a key — the log *is* the audit trail.
The service sees only opaque 192-bit IDs and keys, never paths (§3.1:
"The key service sees only accesses to opaque IDs and keys"), which is
the privacy rationale for splitting it from the metadata service.

Remote control (§2, §6): keys are identified per device, so reporting a
device missing revokes every key it owns; subsequent fetches fail with
:class:`RevokedError` and are themselves logged.

Sharding (``shards > 1``): the escrow map is split by audit-ID prefix,
each shard with its own FIFO queue (a cooperative
:class:`~repro.sim.Lock`), so a batched fetch fans out one worker per
shard and the durable-log/lookup time is the *maximum* over shards
rather than the sum.  The access log stays one store with one chain and
one sequence space, whatever the shard count.  Which store it is comes
from one :class:`~repro.auditstore.AuditSpec` (``audit``).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.costmodel import DEFAULT_COSTS, CostModel
from repro.crypto.drbg import HmacDrbg
from repro.errors import ConfigError, RevokedError, RpcError
from repro.net.rpc import RpcServer
from repro.sim import Lock, Simulation
from repro.auditstore import AuditSpec
from repro.auditstore.log import DISCLOSING_KINDS, LogEntry
from repro.auditstore.views import accesses_after
from repro.server import FrontendSpec, ServiceFrontend
from repro.storage.backend import BlobStore

__all__ = ["KeyService", "AUDIT_ID_LEN", "REMOTE_KEY_LEN", "DISCLOSING_KINDS"]

AUDIT_ID_LEN = 24  # 192-bit audit IDs ("randomly generated 192-bit integer")
REMOTE_KEY_LEN = 32



class KeyService:
    """Key escrow + access logging.  Wraps an :class:`RpcServer`."""

    def __init__(
        self,
        sim: Simulation,
        costs: CostModel = DEFAULT_COSTS,
        seed: bytes = b"key-service",
        name: str = "key-service",
        shards: int = 1,
        audit: AuditSpec = AuditSpec(),
        audit_blobs: Optional[BlobStore] = None,
    ):
        if shards < 1:
            raise ValueError("key service needs at least one shard")
        self.sim = sim
        self.costs = costs
        self.shards = shards
        self.server = RpcServer(sim, name, costs)
        self._drbg = HmacDrbg(seed, b"remote-keys")
        self._key_shards: list[dict[bytes, bytes]] = [
            {} for _ in range(shards)
        ]
        self._owner: dict[bytes, str] = {}
        self._revoked_devices: set[str] = set()
        # Shard locks model per-shard worker queues; every shard appends
        # to the one access log.
        self._shard_locks: Optional[list[Lock]] = (
            None if shards == 1 else [Lock(sim) for _ in range(shards)]
        )
        # Durability seam: a durable store spills into a write-once
        # blob namespace (`audit/<service-name>/`) of ``audit_blobs``,
        # the rig's shared BlobStore; standalone services get a private
        # in-memory one.
        self.audit = audit
        self.audit_namespace = f"audit/{name}"
        if audit_blobs is None:
            audit_blobs = BlobStore("memory", costs)
        self._crashed = False
        self._entries_at_crash: Optional[int] = None
        #: set by :meth:`restart` — what the last recovery found.
        self.recovery_stats: Optional[dict] = None
        self.access_log = audit.open(
            "key-access", audit_blobs.namespace(self.audit_namespace), costs
        )

        # Retry dedup: token -> time of the entry it logged.  A retried
        # fetch carrying the same token inside its dedup window returns
        # the key without a second audit record (see _handle_fetch).
        self._fetch_tokens: dict[bytes, float] = {}

        self.server.register("key.create", self._handle_create)
        self.server.register("key.health", self._handle_health)
        self.server.register("key.put", self._handle_put)
        self.server.register("key.fetch", self._handle_fetch)
        self.server.register("key.fetch_batch", self._handle_fetch_batch)
        self.server.register("key.evict_notify", self._handle_evict_notify)
        self.server.register("key.evict_notify_batch",
                             self._handle_evict_notify_batch)
        self.server.register("key.report_batch", self._handle_report_batch)

    # -- sharding -----------------------------------------------------------
    def _shard_of(self, audit_id: bytes) -> int:
        """Audit-ID-prefix routing (IDs are uniformly random, §3.1)."""
        return audit_id[0] % self.shards if audit_id else 0

    def _shard_map(self, audit_id: bytes) -> dict[bytes, bytes]:
        return self._key_shards[self._shard_of(audit_id)]

    def _shard_queue(self, shard: int) -> Generator:
        """Enter a shard's FIFO queue (no-op with a single shard)."""
        if self._shard_locks is not None:
            yield from self._shard_locks[shard].acquire()
        return None

    def _shard_release(self, shard: int) -> None:
        if self._shard_locks is not None:
            self._shard_locks[shard].release()

    # -- audit durability ---------------------------------------------------
    def _audit_sync(self) -> Generator:
        """Charge any banked durable-flush cost to the sim timeline.

        Called by every handler right after it appends: the durable
        store's blob writes happen synchronously (log-before-disclose),
        but their simulated cost lands here, at the handler's next
        yield point.  With a non-durable log this yields nothing — the
        flags-off timeline is untouched.
        """
        if self.audit.store == "durable":
            cost = self.access_log.take_pending_cost()
            if cost > 0.0:
                yield cost
        return None

    def _require_durable(self, what: str) -> None:
        if self.audit.store != "durable":
            raise ConfigError(
                f"{what} need a durable audit store "
                "(audit_store('durable'))"
            )

    def audit_checkpoint(self) -> int:
        """Persist a view snapshot now (``ctl.audit_checkpoint``)."""
        self._require_durable("audit checkpoints")
        return self.access_log.checkpoint()

    def crash(self) -> int:
        """Simulate process death: the RPC server goes away and every
        in-memory structure that lives in the process — the audit log's
        unflushed tail, fetch-dedup tokens — is lost.  The escrow map
        models the service's durable key database and survives.
        Returns the audit entry count at the moment of death, which
        :meth:`restart` uses to report the exact loss.
        """
        self.server.available = False
        self._crashed = True
        log = self.access_log
        self._entries_at_crash = (
            log.crash() if self.audit.store == "durable" else len(log)
        )
        return self._entries_at_crash

    def restart(self) -> dict:
        """Recover from a :meth:`crash` and resume serving.

        A durable store reloads its spilled segments, re-verifies the
        full seal chain, and restores views from the checkpoint; on
        tamper or truncation it raises
        :class:`~repro.errors.AuditRecoveryError` and the service
        *stays unavailable* — a log that cannot be trusted must not
        answer forensic queries.  A non-durable log restarts empty,
        with the total loss reported.  Returns the recovery stats.
        """
        if not self._crashed:
            raise ConfigError(
                f"service {self.server.name!r} is not crashed"
            )
        before = self._entries_at_crash or 0
        if self.audit.store == "durable":
            # Raises AuditRecoveryError on damage; server.available
            # stays False in that case (refuse to serve).
            self.access_log = self.audit.recover(
                "key-access", self.access_log.blobs, self.costs,
                entries_before=before,
            )
            self.recovery_stats = dict(self.access_log.recovery)
            self.recovery_stats["durable"] = True
        else:
            self.access_log = self.audit.open("key-access")
            self.recovery_stats = {
                "durable": False,
                "recovered_entries": 0,
                "entries_before": before,
                "lost_entries": before,
                "checkpoint_used": False,
            }
        self._fetch_tokens.clear()
        self._crashed = False
        self._entries_at_crash = None
        self.server.available = True
        return self.recovery_stats

    def recover_drill(self) -> dict:
        """Dry-run recovery against the live blobs (``ctl.audit_recover``
        on a healthy service): proves the spilled state would recover,
        without touching the serving log."""
        self._require_durable("recovery drills")
        return self.access_log.verify_blobs()

    # -- server-side frontend (fleet scale; see repro.server) ---------------
    def install_frontend(self, spec: FrontendSpec = FrontendSpec()):
        """Bound this service's concurrency with a scheduler frontend.

        The legacy server runs every request the moment it arrives; a
        frontend gives the service ``spec.workers`` of real capacity,
        fair queueing across devices, deadline-aware load shedding, and
        cross-device group commit of ``key.fetch`` (one durable-log
        write amortised over the group via :meth:`fetch_group`).
        Returns the installed :class:`~repro.server.ServiceFrontend`.
        """
        frontend = ServiceFrontend(
            self.sim,
            self.server,
            spec,
            service_estimate=(
                self.costs.service_log_append + self.costs.service_key_lookup
            ),
            group_methods={"key.fetch": self.fetch_group},
        )
        self.server.install_frontend(frontend)
        return frontend

    # -- administration (out of band, by the victim / IT department) -------
    def preload_key(self, device_id: str, audit_id: bytes, key: bytes) -> None:
        """Out-of-band provisioning: bind an existing ``(ID, K_R)``.

        Used by the fleet load generator and tests to stand up a
        device's working set without an RPC per key — the binding
        models keys created before the measurement window, so no audit
        record is written (creates are only evidence when they happen
        inside the window).
        """
        if len(audit_id) != AUDIT_ID_LEN or len(key) != REMOTE_KEY_LEN:
            raise ValueError("malformed audit ID or key")
        self._shard_map(audit_id)[audit_id] = key
        self._owner[audit_id] = device_id

    def revoke_device(self, device_id: str) -> None:
        """Remote control: disable every key belonging to a device."""
        self._revoked_devices.add(device_id)
        self.access_log.append(
            self.sim.now, device_id, "revoke", reason="device reported lost"
        )

    def is_revoked(self, device_id: str) -> bool:
        return device_id in self._revoked_devices

    def enroll_device(self, device_id: str, secret: bytes) -> None:
        self.server.enroll_device(device_id, secret)

    # -- handlers -------------------------------------------------------------
    def _check_revoked(self, device_id: str) -> None:
        if device_id in self._revoked_devices:
            self.access_log.append(
                self.sim.now, device_id, "denied", reason="revoked"
            )
            raise RevokedError(f"device {device_id} reported lost or stolen")

    def _handle_create(self, device_id: str, payload: dict) -> Generator:
        """Create a fresh K_R bound to a new audit ID (blocking create)."""
        self._check_revoked(device_id)
        audit_id = payload["audit_id"]
        if len(audit_id) != AUDIT_ID_LEN:
            raise RpcError("malformed audit ID")
        shard = self._shard_of(audit_id)
        keys = self._key_shards[shard]
        if audit_id in keys:
            raise RpcError("audit ID already bound")
        key = self._drbg.generate(REMOTE_KEY_LEN)
        yield from self._shard_queue(shard)
        try:
            # Durable log BEFORE replying.
            yield self.costs.service_log_append
            self.access_log.append(
                self.sim.now, device_id, "create", audit_id=audit_id
            )
            yield from self._audit_sync()
            keys[audit_id] = key
            self._owner[audit_id] = device_id
        finally:
            self._shard_release(shard)
        return {"key": key}

    def _handle_put(self, device_id: str, payload: dict) -> Generator:
        """Bind a client-generated K_R (used by IBE-locked creates).

        Idempotent: re-uploading the same (ID, key) is a no-op, so the
        client may retry after network failures.
        """
        self._check_revoked(device_id)
        audit_id = payload["audit_id"]
        key = payload["key"]
        if len(audit_id) != AUDIT_ID_LEN or len(key) != REMOTE_KEY_LEN:
            raise RpcError("malformed key upload")
        shard = self._shard_of(audit_id)
        keys = self._key_shards[shard]
        existing = keys.get(audit_id)
        if existing is not None and existing != key:
            raise RpcError("audit ID already bound to a different key")
        yield from self._shard_queue(shard)
        try:
            yield self.costs.service_log_append
            self.access_log.append(
                self.sim.now, device_id, "create", audit_id=audit_id
            )
            yield from self._audit_sync()
            keys[audit_id] = key
            self._owner[audit_id] = device_id
        finally:
            self._shard_release(shard)
        return {"ok": True}

    def _fetch_one(self, device_id: str, audit_id: bytes, kind: str) -> bytes:
        key = self._shard_map(audit_id).get(audit_id)
        if key is None:
            raise RpcError("unknown audit ID")
        self.access_log.append(self.sim.now, device_id, kind, audit_id=audit_id)
        return key

    def _handle_health(self, device_id: str, payload: dict) -> dict:
        """Cheap liveness ping for failure-aware clients (not logged —
        it discloses no key material)."""
        return {"ok": True, "now": self.sim.now}

    def _handle_fetch(self, device_id: str, payload: dict) -> Generator:
        """The audited fetch: log durably, then return K_R.

        Idempotent under retries: the service logs *before* replying,
        so a client whose response was lost to the network retries a
        fetch the log already recorded.  A retry carrying the same
        ``token`` within ``window`` seconds of that record returns the
        key without appending a duplicate — exactly one entry per
        expiration window per logical fetch.  Tokenless fetches (the
        paper's prototype) log unconditionally, byte-for-byte as before.
        """
        self._check_revoked(device_id)
        audit_id = payload["audit_id"]
        kind = payload.get("kind", "fetch")
        token = payload.get("token")
        window = float(payload.get("window") or 0.0)
        shard = self._shard_of(audit_id)
        yield from self._shard_queue(shard)
        try:
            yield self.costs.service_log_append
            yield self.costs.service_key_lookup
            dedup = False
            if token is not None:
                logged_at = self._fetch_tokens.get(bytes(token))
                dedup = (logged_at is not None
                         and self.sim.now - logged_at <= window)
            if dedup:
                key = self._shard_map(audit_id).get(audit_id)
                if key is None:
                    raise RpcError("unknown audit ID")
            else:
                key = self._fetch_one(device_id, audit_id, kind)
                if token is not None:
                    self._fetch_tokens[bytes(token)] = self.sim.now
            yield from self._audit_sync()
        finally:
            self._shard_release(shard)
        return {"key": key}

    def _handle_fetch_batch(self, device_id: str, payload: dict) -> Generator:
        """Batched fetch used by directory-key prefetching.

        Every returned key is individually logged (prefetch entries are
        the audit log's false positives, §5.2).  With multiple shards
        the batch fans out one worker per shard, so the service time is
        the slowest shard, not the sum of all lookups.
        """
        self._check_revoked(device_id)
        audit_ids = payload["audit_ids"]
        kind = payload.get("kind", "prefetch")
        if self.shards == 1:
            yield self.costs.service_log_append
            keys = []
            for audit_id in audit_ids:
                yield self.costs.service_key_lookup
                if audit_id in self._key_shards[0]:
                    keys.append(self._fetch_one(device_id, audit_id, kind))
                else:
                    keys.append(b"")  # unknown IDs skipped, not fatal
            yield from self._audit_sync()
            return {"keys": keys}

        by_shard: dict[int, list[bytes]] = {}
        for audit_id in audit_ids:
            by_shard.setdefault(self._shard_of(audit_id), []).append(audit_id)
        results: dict[bytes, bytes] = {}
        workers = [
            self.sim.process(
                self._batch_shard_worker(device_id, shard, ids, kind, results),
                name=f"key-batch-s{shard}",
            )
            for shard, ids in by_shard.items()
        ]
        yield self.sim.all_of(workers)
        return {"keys": [results[a] for a in audit_ids]}

    def _batch_shard_worker(
        self,
        device_id: str,
        shard: int,
        audit_ids: list[bytes],
        kind: str,
        results: dict[bytes, bytes],
    ) -> Generator:
        yield from self._shard_queue(shard)
        try:
            yield self.costs.service_log_append
            for audit_id in audit_ids:
                yield self.costs.service_key_lookup
                if audit_id in self._key_shards[shard]:
                    results[audit_id] = self._fetch_one(device_id, audit_id, kind)
                else:
                    results[audit_id] = b""
            yield from self._audit_sync()
        finally:
            self._shard_release(shard)
        return None

    def fetch_group(self, requests: list[tuple[str, dict]]) -> Generator:
        """Cross-device group commit of ``key.fetch`` requests.

        Called by the server frontend, never as a wire method: when
        several tenants' fetches are queued at once, one worker serves
        the whole group and all members on a shard share one
        durable-log write (``service_log_append``), while escrow
        lookups — and, crucially, audit records — stay per request.
        Batching amortises the write, never the evidence: the log holds
        exactly the entries N individual fetches would have produced.

        ``requests`` is ``[(device_id, payload), ...]`` with
        ``key.fetch`` payloads (token dedup honoured, same as
        :meth:`_handle_fetch`).  Returns one ``("ok", {"key": K_R})``
        or ``("err", exc)`` outcome per request, in order.
        """
        outcomes: list = [None] * len(requests)
        by_shard: dict[int, list[int]] = {}
        for i, (_device_id, payload) in enumerate(requests):
            audit_id = payload.get("audit_id") or b""
            by_shard.setdefault(self._shard_of(audit_id), []).append(i)
        for shard in sorted(by_shard):
            yield from self._shard_queue(shard)
            try:
                # One durable write covers every member on this shard.
                yield self.costs.service_log_append
                records: list[tuple[float, str, str, dict]] = []
                for i in by_shard[shard]:
                    device_id, payload = requests[i]
                    yield self.costs.service_key_lookup
                    outcomes[i] = self._group_fetch_one(
                        device_id, payload, records
                    )
                self.access_log.append_many(records)
                yield from self._audit_sync()
            finally:
                self._shard_release(shard)
        return outcomes

    def _group_fetch_one(
        self,
        device_id: str,
        payload: dict,
        records: list[tuple[float, str, str, dict]],
    ) -> tuple:
        """One group member: same checks and records as a lone fetch."""
        try:
            if device_id in self._revoked_devices:
                records.append(
                    (self.sim.now, device_id, "denied", {"reason": "revoked"})
                )
                raise RevokedError(
                    f"device {device_id} reported lost or stolen"
                )
            audit_id = payload["audit_id"]
            kind = payload.get("kind", "fetch")
            token = payload.get("token")
            window = float(payload.get("window") or 0.0)
            key = self._shard_map(audit_id).get(audit_id)
            if key is None:
                raise RpcError("unknown audit ID")
            dedup = False
            if token is not None:
                logged_at = self._fetch_tokens.get(bytes(token))
                dedup = (logged_at is not None
                         and self.sim.now - logged_at <= window)
            if not dedup:
                records.append(
                    (self.sim.now, device_id, kind, {"audit_id": audit_id})
                )
                if token is not None:
                    self._fetch_tokens[bytes(token)] = self.sim.now
            return ("ok", {"key": key})
        except (RpcError, RevokedError) as exc:
            return ("err", exc)

    def _handle_evict_notify(self, device_id: str, payload: dict) -> Generator:
        """Record key evictions on hibernation (§6: "such evictions
        should be recorded on the audit servers")."""
        count = payload.get("count", 0)
        yield self.costs.service_log_append
        self.access_log.append(
            self.sim.now, device_id, "evict", count=count,
            reason=payload.get("reason", "hibernate"),
        )
        yield from self._audit_sync()
        return {"ok": True}

    def _handle_evict_notify_batch(self, device_id: str, payload: dict) -> Generator:
        """Write-behind eviction notices, one durable append per batch.

        Like ``key.report_batch``, each notice keeps the timestamp at
        which the eviction *happened* on the device, not the flush time.
        """
        notices = payload.get("notices", [])
        yield self.costs.service_log_append
        for notice in notices:
            self.access_log.append(
                float(notice["timestamp"]),
                device_id,
                "evict",
                count=int(notice.get("count", 0)),
                reason=notice.get("reason", "expired"),
            )
        yield from self._audit_sync()
        return {"accepted": len(notices)}

    def _handle_report_batch(self, device_id: str, payload: dict) -> Generator:
        """Bulk upload of a paired device's locally logged accesses.

        Records keep their phone-side timestamps: the audit trail must
        reflect when the access *happened*, not when it was uploaded.
        """
        records = payload.get("records", [])
        yield self.costs.service_log_append
        for record in records:
            self.access_log.append(
                float(record["timestamp"]),
                device_id,
                record.get("kind", "paired-fetch"),
                audit_id=record["audit_id"],
            )
        yield from self._audit_sync()
        return {"accepted": len(records)}

    # -- forensic / test access (server-side, not RPC) -------------------------
    def accesses_after(
        self, t: float, device_id: Optional[str] = None
    ) -> list[LogEntry]:
        """All key-disclosing log entries at or after time ``t``."""
        return accesses_after(self.access_log, t, device_id=device_id)

    def known_audit_ids(self) -> set[bytes]:
        out: set[bytes] = set()
        for shard in self._key_shards:
            out.update(shard)
        return out

    def key_count(self) -> int:
        return sum(len(shard) for shard in self._key_shards)
