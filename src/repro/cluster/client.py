"""Failure-aware client for the replicated key-service cluster.

:class:`ReplicatedKeyClient` owns one RPC channel per replica and turns
the single-service key protocol into a k-of-m share protocol:

* **create/upload** mint or take a whole K_R, split it with
  :func:`~repro.crypto.secretshare.split_secret`, and upload share *i*
  to replica *i* via the existing idempotent ``key.put`` — every
  replica durably logs the binding.  A create needs at least k acks;
  shares that missed a (briefly) failed replica are re-uploaded by a
  bounded background repairer.
* **fetch** gathers k shares with ``key.fetch`` and recombines.  Each
  contacted replica logs the access independently, so a completed read
  appears in ≥ k replica audit logs — strictly stronger auditing than
  one service.

The failure model, all deterministic under seeded jitter:

The client's tuning is one frozen :class:`ReplicaPolicy`:

* **per-request deadline** — each replica call races a timeout
  (:meth:`Simulation.any_of`); expiry interrupts the call and counts
  as a replica failure.
* **failover** — a failed call immediately launches the next-ranked
  replica, so one crash costs one extra round-trip, not a hang.
* **hedging** — while a gather is short of k answers, a duplicate
  request goes to the next spare replica every ``hedge_delay`` seconds,
  bounding tail latency behind lagging replicas.  Duplicates are safe:
  fetches are idempotent (retry tokens dedup the audit log) and extra
  share disclosures only add audit-log false positives, never false
  negatives.
* **retries** — a gather that still fails is retried under the shared
  :class:`repro.util.retry.RetryPolicy` (exponential backoff plus
  seeded jitter, up to ``retry.max_attempts`` times); when the caller passes
  an :class:`~repro.core.context.OpContext`, its deadline is checked
  before each attempt and shortens each per-request race, so a spent
  deadline surfaces as one uniform
  :class:`~repro.errors.DeadlineExpiredError`.
* **health tracking** — ``failure_threshold`` consecutive failures put
  a replica in a ``cooldown`` during which it ranks last; any later
  success (or an explicit ``key.health`` probe) restores it.
* **routing** — healthy replicas are tried in index order; a client
  given a ``home_region`` ranks them by live link RTT instead, so a
  device prefers its nearest healthy region and crosses regions only
  when its own degrades.

:class:`ReplicatedServiceSession` drops this client underneath the
standard :class:`~repro.core.client.ServiceSession` facade, so every
KeypadFS call path works unchanged on top of the cluster.  Its one
``fast_transport`` flag pipelines the replica channels and keeps the
facade's single-flight coalescing and write-behind batching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.costmodel import DEFAULT_COSTS, CostModel
from repro.crypto.drbg import HmacDrbg
from repro.crypto.secretshare import combine_secret, split_secret
from repro.errors import (
    AuthorizationError,
    ConfigError,
    DeadlineExpiredError,
    NetworkUnavailableError,
    RevokedError,
    RpcError,
    ServiceUnavailableError,
)
from repro.net.link import Link
from repro.net.metrics import ClusterMetrics
from repro.net.rpc import RpcChannel
from repro.sim import Simulation, SimRandom
from repro.util.retry import RetryPolicy, retrying
from repro.core.client import ServiceSession
from repro.core.services.keyservice import REMOTE_KEY_LEN
from repro.core.services.metadataservice import MetadataService
from repro.cluster.replica import ReplicaGroup

__all__ = [
    "ReplicaPolicy",
    "ReplicatedKeyClient",
    "ReplicatedServiceSession",
]

#: Failures that mean "this replica, right now" — retried elsewhere.
_REPLICA_FAILURES = (NetworkUnavailableError, ServiceUnavailableError)
#: Failures that are answers, not outages — never retried.
_FATAL_FAILURES = (RevokedError, AuthorizationError, RpcError)

#: Share repair: seconds between re-upload passes, and passes before a
#: share that keeps failing is abandoned.
_REPAIR_INTERVAL = 2.0
_REPAIR_MAX_ATTEMPTS = 6


@dataclass(frozen=True)
class ReplicaPolicy:
    """How a replicated client rides out failing replicas.

    ``deadline`` seconds per replica call; a duplicate request to a
    spare replica every ``hedge_delay`` seconds while a gather is short
    (0 disables hedging); ``failure_threshold`` consecutive failures
    start a ``cooldown`` during which the replica ranks last; and
    ``retry`` is the backoff for whole gathers.  Raises
    :class:`~repro.errors.ConfigError` on a bad value.
    """

    deadline: float = 2.0
    hedge_delay: float = 0.75
    failure_threshold: int = 2
    cooldown: float = 8.0
    retry: RetryPolicy = RetryPolicy()

    def __post_init__(self) -> None:
        retry = self.retry
        if not (self.deadline > 0 and self.cooldown > 0
                and self.hedge_delay >= 0 and self.failure_threshold >= 1):
            raise ConfigError(
                "replica policy needs deadline > 0, cooldown > 0, "
                f"hedge_delay >= 0 and failure_threshold >= 1: {self!r}"
            )
        if (not isinstance(retry, RetryPolicy) or not retry.base > 0
                or not retry.cap > 0 or retry.max_attempts < 0):
            raise ConfigError(
                "replica policy retry needs a RetryPolicy with base > 0, "
                f"cap > 0 and max_attempts >= 0, got {retry!r}"
            )


def _index_rank(endpoint: "_Endpoint", now: float) -> tuple:
    # The flat order: healthy endpoints first in stable index order,
    # cooling-down ones last (still contacted as a last resort).
    return (0 if endpoint.down_until <= now else 1, endpoint.index)


def _rtt_rank(endpoint: "_Endpoint", now: float) -> tuple:
    # Geo-routing: live RTT (microsecond-quantized for a stable total
    # order) instead of replica index, so the nearest region comes
    # first and cross-region fallback is ordered by distance.
    cooling = 0 if endpoint.down_until <= now else 1
    return (cooling, round(endpoint.link.rtt * 1e6), endpoint.index)


class _Endpoint:
    """One replica as seen by this client: channel + health state."""

    __slots__ = ("index", "service", "channel", "link", "failures",
                 "down_until", "successes")

    def __init__(self, index: int, service, channel: RpcChannel, link: Link):
        self.index = index
        self.service = service
        self.channel = channel
        self.link = link
        self.failures = 0       # consecutive failures
        self.down_until = 0.0   # cooldown horizon (sim time)
        self.successes = 0


class ReplicatedKeyClient:
    """k-of-m share transport with deadlines, hedging, and failover."""

    def __init__(
        self,
        sim: Simulation,
        device_id: str,
        device_secret: bytes,
        group: ReplicaGroup,
        links: list[Link],
        costs: CostModel = DEFAULT_COSTS,
        rekey_interval: float = 100.0,
        pipelining: bool = False,
        policy: ReplicaPolicy = ReplicaPolicy(),
        dedup_window: float = 0.0,
        rng: Optional[SimRandom] = None,
        share_seed: bytes = b"cluster-shares",
        tracer=None,
        home_region: Optional[str] = None,
    ):
        if len(links) != group.m:
            raise ValueError(f"{group.m} replicas need {group.m} links")
        if home_region is not None:
            group.topology.region_index(home_region)  # validates the name
        self.home_region = home_region
        self._rank_key = _index_rank if home_region is None else _rtt_rank
        self.sim = sim
        self.device_id = device_id
        self.group = group
        self.k = group.k
        self.m = group.m
        self.policy = policy
        self.dedup_window = dedup_window
        self.metrics = ClusterMetrics()
        group.enroll_device(device_id, device_secret)
        self.endpoints = [
            _Endpoint(
                i,
                replica,
                RpcChannel(
                    sim, links[i], replica.server, device_id, device_secret,
                    costs=costs, rekey_interval=rekey_interval,
                    pipelining=pipelining, tracer=tracer,
                ),
                links[i],
            )
            for i, replica in enumerate(group.replicas)
        ]
        self._rng = rng or SimRandom(0, "cluster-client")
        self._share_drbg = HmacDrbg(share_seed, b"share-split")
        self._token_counter = 0
        # Pending share re-uploads: [attempts, replica_index, audit_id, share].
        self._repair_queue: list[list] = []
        self._repairer = None

    # -- health tracking -----------------------------------------------------
    def _mark_ok(self, ep: _Endpoint) -> None:
        ep.failures = 0
        ep.down_until = 0.0
        ep.successes += 1

    def _mark_fail(self, ep: _Endpoint) -> None:
        ep.failures += 1
        if (ep.failures >= self.policy.failure_threshold
                and ep.down_until <= self.sim.now):
            ep.down_until = self.sim.now + self.policy.cooldown
            self.metrics.marked_down += 1

    def _ranked(self) -> list[_Endpoint]:
        now = self.sim.now
        rank = self._rank_key
        return sorted(self.endpoints, key=lambda ep: rank(ep, now))

    def health(self) -> dict[int, bool]:
        now = self.sim.now
        return {ep.index: ep.down_until <= now for ep in self.endpoints}

    def probe(self, index: int) -> Generator:
        """Explicit ``key.health`` ping; a success ends the cooldown."""
        ep = self.endpoints[index]
        self.metrics.probes += 1
        tag, payload = yield from self._guarded_call(ep, "key.health", {})
        if tag == "ok":
            self._mark_ok(ep)
            return True
        if tag == "fail":
            self._mark_fail(ep)
            return False
        raise payload

    # -- guarded transport ---------------------------------------------------
    def _raw_call(self, ep: _Endpoint, method: str, params: dict,
                  ctx=None) -> Generator:
        """One replica RPC, returned as a tagged outcome (never raises,
        so racing processes cannot crash the kernel)."""
        try:
            payload = yield from ep.channel.call(method, op_ctx=ctx, **params)
            return ("ok", payload)
        except _REPLICA_FAILURES as exc:
            return ("fail", exc)
        except _FATAL_FAILURES as exc:
            return ("fatal", exc)

    def _guarded_call(self, ep: _Endpoint, method: str, params: dict,
                      ctx=None) -> Generator:
        """A replica RPC raced against the per-request deadline.

        With an op context the race is against the *smaller* of the
        replica deadline and the context's remaining end-to-end budget
        (the channel also enforces the context deadline underneath, so
        spans attribute the expiry wherever it actually fired).
        """
        deadline = self.policy.deadline
        if ctx is not None and ctx.deadline is not None:
            deadline = min(deadline, max(0.0, ctx.remaining()))
        proc = self.sim.process(
            self._raw_call(ep, method, params, ctx),
            name=f"cluster-call-{method}-r{ep.index}",
        )
        winner, value = yield self.sim.any_of(
            [proc, self.sim.timeout(deadline)]
        )
        if winner == 0:
            return value
        proc.interrupt("deadline")
        self.metrics.deadline_expiries += 1
        return ("fail", DeadlineExpiredError(
            f"replica {ep.index} missed the {deadline:g}s deadline "
            f"for {method}"
        ))

    # -- gather machinery ----------------------------------------------------
    def _gather(self, need: int, method: str, params: dict, label: str,
                ctx=None) -> Generator:
        """Collect successful responses from ``need`` distinct replicas.

        Launches ``need`` workers against the best-ranked replicas,
        fails over immediately on error, hedges to spares while short,
        and settles as soon as ``need`` answers (or a fatal fault, or
        exhaustion) arrive.  Late responses still update health state.
        """
        state: dict = {"results": {}, "pending": 0, "fatal": None}
        done = self.sim.event()
        queue = self._ranked()

        def launch_next() -> bool:
            if not queue or done.triggered:
                return False
            ep = queue.pop(0)
            state["pending"] += 1
            self.sim.process(worker(ep), name=f"cluster-{label}-r{ep.index}")
            return True

        def worker(ep: _Endpoint) -> Generator:
            tag, payload = yield from self._guarded_call(ep, method, params,
                                                         ctx)
            state["pending"] -= 1
            if done.triggered:
                # The gather already settled; keep the health signal.
                if tag == "ok":
                    self._mark_ok(ep)
                elif tag == "fail":
                    self._mark_fail(ep)
                return
            if tag == "ok":
                self._mark_ok(ep)
                state["results"][ep.index] = payload
                if len(state["results"]) >= need:
                    done.succeed("ok")
                elif state["pending"] == 0 and not launch_next():
                    # Last worker in, still short of k, nobody left to try.
                    done.succeed("exhausted")
            elif tag == "fatal":
                state["fatal"] = payload
                done.succeed("fatal")
            else:
                self._mark_fail(ep)
                if launch_next():
                    self.metrics.failovers += 1
                elif state["pending"] == 0 and len(state["results"]) < need:
                    done.succeed("exhausted")

        if len(queue) < need:
            raise ServiceUnavailableError(
                f"{need} shares needed but only {len(queue)} replicas exist"
            )
        for _ in range(need):
            launch_next()

        hedge_delay = self.policy.hedge_delay
        if hedge_delay > 0 and queue:
            def hedger() -> Generator:
                while queue and not done.triggered:
                    yield self.sim.timeout(hedge_delay)
                    if done.triggered:
                        return
                    if launch_next():
                        self.metrics.hedged += 1

            self.sim.process(hedger(), name=f"cluster-hedge-{label}")

        outcome = yield done
        if outcome == "ok":
            return dict(state["results"])
        if outcome == "fatal":
            raise state["fatal"]
        raise ServiceUnavailableError(
            f"only {len(state['results'])}/{need} replicas answered ({label})"
        )

    def _retrying(self, need: int, method: str, params: dict, label: str,
                  ctx=None) -> Generator:
        """A gather wrapped in the shared backoff/jitter retry policy.

        The context (when present) contributes its deadline (checked
        before every attempt).
        """

        def note_retry(_attempt: int, _delay: float) -> None:
            self.metrics.retries += 1

        responses = yield from retrying(
            self.sim,
            lambda _attempt: self._gather(need, method, params, label, ctx),
            self.policy.retry,
            self._rng,
            retry_on=(ServiceUnavailableError,),
            ctx=ctx,
            on_retry=note_retry,
        )
        return responses

    # -- key operations ------------------------------------------------------
    def _next_token(self, audit_id: bytes) -> bytes:
        self._token_counter += 1
        return (self.device_id.encode() + b"|"
                + self._token_counter.to_bytes(8, "big") + audit_id)

    def fetch(self, audit_id: bytes, kind: str = "fetch",
              ctx=None) -> Generator:
        """Gather k shares and recombine K_R.

        The retry token is constant across retries of this one logical
        fetch, so replicas that already logged it inside the dedup
        window answer without a duplicate audit record.
        """
        params = {
            "audit_id": audit_id,
            "kind": kind,
            "token": self._next_token(audit_id),
            "window": self.dedup_window,
        }
        responses = yield from self._retrying(self.k, "key.fetch", params,
                                              "fetch", ctx)
        shares = {i: r["key"] for i, r in responses.items()}
        self.metrics.share_fetches += 1
        return combine_secret(shares, self.k, self.m)

    def fetch_many(self, audit_ids: list[bytes], kind: str = "prefetch",
                   ctx=None) -> Generator:
        """Batched share gather; unknown IDs come back as ``b""``.

        Each of the k chosen replicas serves the whole batch; IDs that
        came back short of k shares (e.g. a replica that missed the
        create and has not been repaired yet) fall back to individual
        fetches before being declared unknown.
        """
        if not audit_ids:
            return []
        params = {"audit_ids": list(audit_ids), "kind": kind}
        responses = yield from self._retrying(self.k, "key.fetch_batch",
                                              params, "fetch-batch", ctx)
        per_id: dict[bytes, dict[int, bytes]] = {a: {} for a in audit_ids}
        for index, payload in responses.items():
            for audit_id, share in zip(audit_ids, payload["keys"]):
                if share:
                    per_id[audit_id][index] = share
        keys: list[bytes] = []
        for audit_id in audit_ids:
            shares = per_id[audit_id]
            if len(shares) >= self.k:
                keys.append(combine_secret(shares, self.k, self.m))
                continue
            if not shares:
                keys.append(b"")
                continue
            try:
                key = yield from self.fetch(audit_id, kind, ctx)
            except (RpcError, ServiceUnavailableError):
                key = b""
            keys.append(key)
        self.metrics.share_fetches += 1
        return keys

    def put_key(self, audit_id: bytes, key: bytes, ctx=None) -> Generator:
        """Split K_R and escrow one share per replica (each logs the
        create).  Needs at least k acks; the rest are repaired."""
        if len(key) != REMOTE_KEY_LEN:
            raise RpcError("malformed remote key")
        shares = split_secret(key, self.k, self.m, self._share_drbg)
        yield from self._put_shares(audit_id, shares, ctx)
        return None

    def _put_shares(self, audit_id: bytes, shares: list[bytes],
                    ctx=None) -> Generator:
        state: dict = {"acks": 0, "pending": len(self.endpoints),
                       "fatal": None, "failed": []}
        done = self.sim.event()

        def worker(ep: _Endpoint, share: bytes) -> Generator:
            tag, payload = yield from self._guarded_call(
                ep, "key.put", {"audit_id": audit_id, "key": share}, ctx
            )
            state["pending"] -= 1
            if tag == "ok":
                self._mark_ok(ep)
                state["acks"] += 1
            elif tag == "fatal":
                state["fatal"] = payload
            else:
                self._mark_fail(ep)
                state["failed"].append(ep.index)
            if state["pending"] == 0 and not done.triggered:
                done.succeed(None)

        for ep, share in zip(self.endpoints, shares):
            self.sim.process(worker(ep, share), name=f"cluster-put-r{ep.index}")
        yield done
        if state["fatal"] is not None:
            raise state["fatal"]
        if state["acks"] < self.k:
            raise ServiceUnavailableError(
                f"create needs {self.k} acks, got {state['acks']}"
            )
        for index in state["failed"]:
            self._queue_repair(index, audit_id, shares[index])
        return None

    # -- best-effort fan-out (eviction notices etc.) -------------------------
    def broadcast(self, method: str, require: int = 1, ctx=None,
                  **params) -> Generator:
        """Send one request to every replica; need ``require`` acks."""
        state: dict = {"acks": 0, "pending": len(self.endpoints)}
        done = self.sim.event()

        def worker(ep: _Endpoint) -> Generator:
            tag, _payload = yield from self._guarded_call(ep, method, params,
                                                          ctx)
            state["pending"] -= 1
            if tag == "ok":
                self._mark_ok(ep)
                state["acks"] += 1
            elif tag == "fail":
                self._mark_fail(ep)
            if state["pending"] == 0 and not done.triggered:
                done.succeed(None)

        for ep in self.endpoints:
            self.sim.process(worker(ep), name=f"cluster-bcast-r{ep.index}")
        yield done
        self.metrics.broadcasts += 1
        if state["acks"] < require:
            raise ServiceUnavailableError(
                f"broadcast {method} got {state['acks']}/{require} acks"
            )
        return state["acks"]

    def notify_evictions(self, count: int, reason: str,
                         ctx=None) -> Generator:
        acks = yield from self.broadcast(
            "key.evict_notify", require=1, ctx=ctx, count=count, reason=reason
        )
        return acks

    # -- share repair --------------------------------------------------------

    def _queue_repair(self, index: int, audit_id: bytes, share: bytes) -> None:
        self._repair_queue.append([0, index, audit_id, share])
        if self._repairer is None or not self._repairer.alive:
            self._repairer = self.sim.process(
                self._repair_loop(), name="cluster-repair"
            )

    def _repair_loop(self) -> Generator:
        """Bounded anti-entropy: re-upload shares that missed a replica.

        ``key.put`` is idempotent, so repeats are harmless; items that
        keep failing are abandoned after ``_REPAIR_MAX_ATTEMPTS`` passes
        (the loop always terminates, keeping sim runs finite).
        """
        while self._repair_queue:
            yield self.sim.timeout(_REPAIR_INTERVAL)
            batch, self._repair_queue = self._repair_queue, []
            for attempts, index, audit_id, share in batch:
                ep = self.endpoints[index]
                tag, _payload = yield from self._guarded_call(
                    ep, "key.put", {"audit_id": audit_id, "key": share}
                )
                if tag == "ok":
                    self._mark_ok(ep)
                    self.metrics.repairs += 1
                elif attempts + 1 >= _REPAIR_MAX_ATTEMPTS:
                    self.metrics.repairs_abandoned += 1
                else:
                    self._repair_queue.append(
                        [attempts + 1, index, audit_id, share]
                    )


class ReplicatedServiceSession(ServiceSession):
    """The :class:`ServiceSession` facade over a replica cluster.

    Key-service traffic is rerouted through the failure-aware
    :class:`ReplicatedKeyClient`; metadata traffic, single-flight
    coalescing, and write-behind batching are inherited unchanged.
    ``create`` mints K_R on the device (like the IBE path) because no
    single replica may ever see the whole key.  ``home_region`` (on a
    multi-region topology) makes the transport geo-routing.
    """

    def __init__(
        self,
        sim: Simulation,
        device_id: str,
        device_secret: bytes,
        replica_group: ReplicaGroup,
        replica_links: list[Link],
        metadata_service: MetadataService,
        metadata_link: Link,
        costs: CostModel = DEFAULT_COSTS,
        rekey_interval: float = 100.0,
        fast_transport: bool = False,
        policy: ReplicaPolicy = ReplicaPolicy(),
        dedup_window: float = 0.0,
        mint_seed: bytes = b"cluster-mint",
        rng: Optional[SimRandom] = None,
        tracer=None,
        home_region: Optional[str] = None,
    ):
        super().__init__(
            sim, device_id, device_secret, replica_group.replicas[0],
            metadata_service, replica_links[0], metadata_link, costs=costs,
            rekey_interval=rekey_interval, fast_transport=fast_transport,
            tracer=tracer,
        )
        self.replica_group = replica_group
        self.cluster = ReplicatedKeyClient(
            sim, device_id, device_secret, replica_group, replica_links,
            costs=costs, rekey_interval=rekey_interval,
            pipelining=fast_transport, policy=policy,
            dedup_window=dedup_window,
            rng=rng, share_seed=mint_seed + b"|shares", tracer=tracer,
            home_region=home_region,
        )
        self._mint_drbg = HmacDrbg(mint_seed, b"cluster-remote-keys")

    def attach_phone(self, phone) -> None:
        raise ValueError(
            "a paired phone is not supported with a replicated key service"
        )

    # -- key service (rerouted through the cluster) --------------------------
    def create(self, request, ctx=None) -> Generator:
        key = self._mint_drbg.generate(REMOTE_KEY_LEN)
        yield from self.cluster.put_key(request.audit_id, key, ctx)
        return key

    def upload(self, request, ctx=None) -> Generator:
        yield from self.cluster.put_key(request.audit_id, request.key, ctx)
        return None

    def notify(self, request, ctx=None) -> Generator:
        yield from self.cluster.notify_evictions(request.count,
                                                 request.reason, ctx)
        return None

    def _fetch_direct(self, audit_id: bytes, kind: str,
                      ctx=None) -> Generator:
        key = yield from self.cluster.fetch(audit_id, kind, ctx)
        return key

    def _fetch_batch_direct(self, audit_ids: list[bytes], kind: str,
                            ctx=None) -> Generator:
        keys = yield from self.cluster.fetch_many(audit_ids, kind, ctx)
        return keys

    def _send_evict_batch(self, payload: list[dict], ctx=None) -> Generator:
        yield from self.cluster.broadcast(
            "key.evict_notify_batch", require=1, ctx=ctx, notices=payload
        )
        return None

