"""A simulated device fleet driving one shared key service.

The paper evaluates a single laptop against its key service; this
module asks the server-side question instead: what happens when
*thousands* of Keypad devices — each the paper's device, unmodified on
the wire — share one key service (or one replica cluster)?  It mints
``n`` closed-loop devices with mixed usage profiles and drives their
``key.fetch`` / ``key.fetch_batch`` traffic through real
:class:`~repro.net.rpc.RpcChannel` transports, so everything the
frontend does (fair queueing, admission control, group commit — see
:mod:`repro.server`) is exercised by the same authenticated RPC path a
real device uses.

Profiles mirror the paper's workload families:

* ``office``  — sporadic single-key fetches (document editing),
* ``compile`` — steady small batches (build trees touching few keys),
* ``filescan``— aggressive prefetch batches (virus scan / grep -r),
  the tenant that motivates fair queueing: §5's filescan workloads
  issue hundreds of fetches per second and, against a FIFO server,
  push every office user's fetch behind their own.

Everything is deterministic: device ``i`` of a fleet seeded ``s``
derives its RNG, secret, and working set from
``derive_arm_seed(s, ..., i)``, so the same seed yields the same
request sequence byte for byte regardless of fleet size or host.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Generator, Optional

from repro.auditstore import AuditSpec
from repro.cluster.client import ReplicatedKeyClient
from repro.cluster.federation import Topology
from repro.cluster.replica import ReplicaGroup
from repro.core.context import OpContext
from repro.core.services.keyservice import (
    AUDIT_ID_LEN,
    REMOTE_KEY_LEN,
    KeyService,
)
from repro.costmodel import DEFAULT_COSTS, CostModel
from repro.crypto.drbg import HmacDrbg
from repro.crypto.secretshare import split_secret
from repro.crypto.sha256 import sha256_fast
from repro.errors import (
    ConfigError,
    ControlError,
    DeadlineExpiredError,
    KeypadError,
    OverloadSheddedError,
    RevokedError,
)
from repro.net.netem import LAN, NetEnv
from repro.net.rpc import RpcChannel
from repro.server import FrontendSpec
from repro.sim import SimRandom, Simulation
from repro.storage.backend import BlobStore

__all__ = [
    "DeviceProfile",
    "OFFICE",
    "COMPILE",
    "FILESCAN",
    "profile_for_index",
    "ControlEvent",
    "DeviceStats",
    "FleetDevice",
    "FleetResult",
    "run_fleet",
]


@dataclass(frozen=True)
class ControlEvent:
    """One scripted admin action during a fleet run.

    ``verb`` is a control-channel verb without its ``ctl.`` prefix
    (``set_texp``, ``revoke``, ``drain``, ``admit``, ``update``, ...);
    ``params`` are its wire parameters (see docs/CONTROL.md).  Events
    fire at absolute sim time ``at`` over a real admin
    :class:`~repro.net.rpc.RpcChannel`, so reconfiguration contends
    with (and is costed like) the data-plane traffic it steers.
    """

    at: float
    verb: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class DeviceProfile:
    """Closed-loop behaviour of one device class."""

    name: str
    #: mean seconds between requests (uniform ±10% jitter, so per-device
    #: demand is tight and fairness ratios measure scheduling, not luck).
    think_mean: float
    #: audit IDs per request (1 => ``key.fetch``, else ``key.fetch_batch``).
    batch: int
    #: provisioned keys per device (requests draw from this set).
    working_set: int
    #: per-request budget in seconds; becomes the OpContext deadline the
    #: server's admission control sees (None = no deadline).
    deadline: Optional[float]
    #: zipf skew over the working set (hot files are fetched more).
    skew: float = 1.1


OFFICE = DeviceProfile("office", think_mean=2.5, batch=1,
                       working_set=8, deadline=1.5)
COMPILE = DeviceProfile("compile", think_mean=2.0, batch=2,
                        working_set=16, deadline=1.5)
FILESCAN = DeviceProfile("filescan", think_mean=0.4, batch=8,
                         working_set=32, deadline=6.0)


def profile_for_index(index: int, scanner_fraction: float = 0.10) -> DeviceProfile:
    """Deterministic interleaved mix.

    Scanners land on every ``1/scanner_fraction``-th device; the rest
    split 2:1 office:compile.  Interleaving (rather than blocking) keeps
    every prefix of the fleet representative, so the 100-device arm is
    a faithful miniature of the 10,000-device arm.
    """
    if scanner_fraction > 0:
        period = max(1, round(1.0 / scanner_fraction))
        if index % period == period - 1:
            return FILESCAN
    return COMPILE if index % 3 == 1 else OFFICE


@dataclass
class DeviceStats:
    """Per-device outcome counters (the fairness evidence)."""

    device_id: str
    profile: str
    requested: int = 0
    completed: int = 0
    shed: int = 0
    expired: int = 0
    failed: int = 0
    #: attempts refused because the device was revoked mid-run (the
    #: control channel's kill switch doing its job, not a failure).
    revoked: int = 0
    keys_requested: int = 0
    keys_served: int = 0
    latencies: list[float] = field(default_factory=list)
    #: home region when the fleet runs against a federation ("" = flat)
    region: str = ""

    def goodput(self, duration: float) -> float:
        """Keys actually served per second of the run."""
        return self.keys_served / duration if duration > 0 else 0.0


class FleetDevice:
    """One closed-loop simulated device.

    Issues a fetch, waits for the outcome, thinks, repeats — so offered
    load self-clocks to service capacity the way real interactive
    devices do.  Every request carries an :class:`OpContext` whose
    absolute deadline reaches the server's admission control out of
    band; a shed (:class:`OverloadSheddedError`) or a client-side
    expiry (:class:`DeadlineExpiredError`) ends the attempt, and the
    device moves on rather than retrying — the benchmark wants to see
    drops, not hide them.
    """

    def __init__(
        self,
        sim: Simulation,
        index: int,
        profile: DeviceProfile,
        fleet_seed: bytes,
        transport,
        audit_ids: list[bytes],
    ):
        from repro.harness.runner import derive_arm_seed

        self.sim = sim
        self.index = index
        self.profile = profile
        self.device_id = f"dev-{index:05d}"
        self.transport = transport
        self.audit_ids = audit_ids
        self.rand = SimRandom(
            derive_arm_seed(fleet_seed, "device", index), "fleet-device"
        )
        self.stats = DeviceStats(device_id=self.device_id,
                                 profile=profile.name)

    # -- request construction -------------------------------------------------
    def _pick_ids(self) -> list[bytes]:
        return [
            self.audit_ids[
                self.rand.zipf_index(len(self.audit_ids), self.profile.skew)
            ]
            for _ in range(self.profile.batch)
        ]

    def _think(self) -> float:
        jitter = self.rand.uniform(0.9, 1.1)
        return self.profile.think_mean * jitter

    def _fetch(self, audit_ids: list[bytes], ctx: Optional[OpContext]
               ) -> Generator:
        if isinstance(self.transport, RpcChannel):
            if len(audit_ids) == 1:
                yield from self.transport.call(
                    "key.fetch", op_ctx=ctx,
                    audit_id=audit_ids[0], kind="fetch",
                )
            else:
                yield from self.transport.call(
                    "key.fetch_batch", op_ctx=ctx,
                    audit_ids=list(audit_ids), kind="fetch",
                )
        else:  # ReplicatedKeyClient
            if len(audit_ids) == 1:
                yield from self.transport.fetch(audit_ids[0], "fetch",
                                                ctx=ctx)
            else:
                yield from self.transport.fetch_many(list(audit_ids),
                                                     "fetch", ctx=ctx)

    # -- the closed loop ------------------------------------------------------
    def run(self, until: float) -> Generator:
        # Desynchronised start: spread arrivals over one think interval.
        yield self.rand.uniform(0.0, self.profile.think_mean)
        while self.sim.now < until:
            audit_ids = self._pick_ids()
            ctx = None
            if self.profile.deadline is not None:
                ctx = OpContext(
                    self.sim, "fleet.fetch", device_id=self.device_id,
                    deadline=self.sim.now + self.profile.deadline,
                )
            started = self.sim.now
            self.stats.requested += 1
            self.stats.keys_requested += len(audit_ids)
            try:
                yield from self._fetch(audit_ids, ctx)
            except OverloadSheddedError:
                self.stats.shed += 1
            except DeadlineExpiredError:
                self.stats.expired += 1
            except RevokedError:
                self.stats.revoked += 1
            except KeypadError:
                self.stats.failed += 1
            else:
                self.stats.completed += 1
                self.stats.keys_served += len(audit_ids)
                self.stats.latencies.append(self.sim.now - started)
            yield self._think()


@dataclass
class FleetResult:
    """Everything a fleet run measured, JSON-ready via :meth:`summary`."""

    devices: int
    duration: float
    policy: str
    stats: list[DeviceStats]
    frontend_metrics: list[dict]
    #: scripted-admin outcomes, one entry per ControlEvent fired.
    control_log: list = field(default_factory=list)
    #: ``(sim_time, text)`` entries from the fault injector, when a
    #: ``faults`` plan was replayed against the replica cluster.
    fault_trace: list = field(default_factory=list)
    #: whatever ``run_fleet(inspect=...)``'s callback returned (not part
    #: of :meth:`summary`; benchmarks consume it directly).
    inspection: Optional[object] = None

    # -- aggregates -----------------------------------------------------------
    def _latencies(self) -> list[float]:
        out: list[float] = []
        for stat in self.stats:
            out.extend(stat.latencies)
        return out

    def fairness_ratio(self, profiles: tuple[str, ...] = ("office", "compile")
                       ) -> Optional[float]:
        """Worst within-profile max/min per-device goodput ratio.

        Two deliberate choices keep this number about *scheduling*:
        scanners are excluded (their demand is 50x an office user's, so
        any cross-profile ratio measures appetite, not fairness), and
        devices are compared against peers of their own profile —
        identical demand, so under a fair scheduler every peer should
        land within jitter of the same goodput.  An unfair scheduler
        shows up immediately: the devices whose fetches got stuck
        behind a scanner's backlog fall to a fraction of their peers'.
        Returns ``None`` when some device got nothing at all (an
        unbounded ratio).
        """
        worst: Optional[float] = None
        for profile in profiles:
            rates = [s.goodput(self.duration) for s in self.stats
                     if s.profile == profile]
            if not rates:
                continue
            low, high = min(rates), max(rates)
            if low <= 0.0:
                return None
            ratio = high / low
            if worst is None or ratio > worst:
                worst = ratio
        return worst

    def per_profile(self) -> dict[str, dict]:
        groups: dict[str, list[DeviceStats]] = {}
        for stat in self.stats:
            groups.setdefault(stat.profile, []).append(stat)
        out: dict[str, dict] = {}
        for name in sorted(groups):
            members = groups[name]
            requested = sum(s.requested for s in members)
            completed = sum(s.completed for s in members)
            served = sum(s.keys_served for s in members)
            out[name] = {
                "devices": len(members),
                "requested": requested,
                "completed": completed,
                "shed": sum(s.shed for s in members),
                "expired": sum(s.expired for s in members),
                "failed": sum(s.failed for s in members),
                "revoked": sum(s.revoked for s in members),
                "keys_served": served,
                "mean_goodput_keys_per_s": (
                    served / self.duration / len(members)
                    if self.duration > 0 and members else 0.0
                ),
            }
        return out

    def per_region(self) -> dict[str, dict]:
        """Per-home-region aggregates (federated fleets only)."""
        from repro.harness.runner import percentile

        groups: dict[str, list[DeviceStats]] = {}
        for stat in self.stats:
            if stat.region:
                groups.setdefault(stat.region, []).append(stat)
        out: dict[str, dict] = {}
        for name in sorted(groups):
            members = groups[name]
            latencies: list[float] = []
            for stat in members:
                latencies.extend(stat.latencies)
            out[name] = {
                "devices": len(members),
                "requested": sum(s.requested for s in members),
                "completed": sum(s.completed for s in members),
                "failed": sum(s.failed for s in members),
                "keys_served": sum(s.keys_served for s in members),
                "fetch_p50_ms": percentile(latencies, 50.0) * 1e3,
                "fetch_p99_ms": percentile(latencies, 99.0) * 1e3,
            }
        return out

    def summary(self) -> dict:
        from repro.harness.runner import percentile

        requested = sum(s.requested for s in self.stats)
        completed = sum(s.completed for s in self.stats)
        shed = sum(s.shed for s in self.stats)
        expired = sum(s.expired for s in self.stats)
        failed = sum(s.failed for s in self.stats)
        revoked = sum(s.revoked for s in self.stats)
        served = sum(s.keys_served for s in self.stats)
        latencies = self._latencies()
        return {
            "devices": self.devices,
            "duration_s": self.duration,
            "policy": self.policy,
            "requested": requested,
            "completed": completed,
            "shed": shed,
            "expired": expired,
            "failed": failed,
            "revoked": revoked,
            "shed_rate": shed / requested if requested else 0.0,
            "keys_served": served,
            "throughput_keys_per_s": (
                served / self.duration if self.duration > 0 else 0.0
            ),
            "fetch_p50_ms": percentile(latencies, 50.0) * 1e3,
            "fetch_p99_ms": percentile(latencies, 99.0) * 1e3,
            "fairness_nonscanner": self.fairness_ratio(),
            "per_profile": self.per_profile(),
            "frontend": self.frontend_metrics,
            "control": list(self.control_log),
        } | (
            # Region block only for federated fleets, so flat-fleet
            # summaries stay byte-identical.
            {"per_region": self.per_region()}
            if any(s.region for s in self.stats) else {}
        )


def _derive_working_set(fleet_seed: bytes, index: int, count: int
                        ) -> list[tuple[bytes, bytes]]:
    """Deterministic (audit_id, key) pairs for device ``index``."""
    pairs = []
    for k in range(count):
        tag = b"%s|dev%d|key%d" % (fleet_seed, index, k)
        pairs.append((
            sha256_fast(b"fleet-audit|" + tag)[:AUDIT_ID_LEN],
            sha256_fast(b"fleet-key|" + tag)[:REMOTE_KEY_LEN],
        ))
    return pairs


def _install_control(sim, net, seed, costs, service, group, frontends,
                     events, control_log):
    """Stand up the control plane and return the scripted-admin process
    body.  Shared verbatim by the single-process and sharded runners so
    the admin channel's traffic is identical in both."""
    from repro.control.server import ControlServer
    from repro.core.policy import KeypadConfig, PolicyEpoch
    from repro.harness.runner import derive_arm_seed

    # The fleet has no mounted FS; the policy epoch is the
    # service-side source of truth the events reconfigure.
    epoch = PolicyEpoch(KeypadConfig())
    ctl = ControlServer(
        sim, epoch,
        key_services=() if service is None else (service,),
        replica_group=group,
        frontends=tuple(frontends),
        name="fleet-ctl",
        costs=costs,
    )
    admin_secret = derive_arm_seed(seed, "ctl-admin")
    ctl.enroll_admin("fleet-admin", admin_secret)
    ctl_link = net.make_link(sim, label="fleet-ctl")
    channel = RpcChannel(sim, ctl_link, ctl.rpc, "fleet-admin",
                         admin_secret, costs=costs)

    def _admin() -> Generator:
        for event in events:
            if event.at > sim.now:
                yield event.at - sim.now
            entry = {"at": sim.now, "verb": event.verb}
            try:
                result = yield from channel.call(
                    "ctl." + event.verb, **event.params
                )
            except (ControlError, KeypadError) as exc:
                entry["error"] = f"{type(exc).__name__}: {exc}"
            else:
                entry["result"] = result
            control_log.append(entry)

    return _admin()


def run_fleet(
    devices: int = 100,
    duration: float = 30.0,
    seed: bytes = b"fleet",
    scanner_fraction: float = 0.10,
    network: Optional[NetEnv] = None,
    costs: CostModel = DEFAULT_COSTS,
    frontend: Optional[dict] = None,
    replicas: int = 1,
    threshold: int = 1,
    shards: int = 1,
    control: Optional[list] = None,
    audit_store: str = "flat",
    segment_entries: int = 1024,
    audit_durable: bool = False,
    audit_flush_policy: str = "every-seal",
    audit_flush_every: int = 64,
    faults=None,
    inspect: Optional[Callable] = None,
    fleet_shards: Optional[int] = None,
    topology=None,
    geo_routing: bool = True,
) -> FleetResult:
    """Provision and drive a fleet; returns the measured result.

    ``frontend`` is ``None`` for the legacy unbounded server (every
    request served concurrently on arrival — the paper's one-device
    model scaled naively), or a dict of
    :class:`~repro.server.FrontendSpec` knobs (``workers``, ``policy``,
    ``queue_limit``, ``coalesce``), built into the spec once here.
    A cluster (``replicas``/``threshold`` or ``topology``, below) runs
    the fleet against a :class:`ReplicaGroup` with k-of-m secret
    sharing instead of a single service; keys are pre-split so each
    replica escrows one share, exactly as ``put_key`` would have left
    them.

    Devices are pre-provisioned out of band (``preload_key``): the
    benchmark measures the steady-state fetch path, not enrolment.

    ``control`` is an optional list of :class:`ControlEvent` — scripted
    mid-run admin actions (Texp policy change, device revocation,
    frontend drain, ...) issued through a live control channel while
    the fleet hammers the same service.  Outcomes land in
    ``FleetResult.control_log``; ``None``/empty keeps the run identical
    to the pre-control fleet.

    ``inspect`` is an optional callable invoked once after the run with
    the provisioned key service (or the :class:`ReplicaGroup` of a
    cluster run); whatever it returns lands in
    ``FleetResult.inspection``.  The simulated world is torn down with
    the call frame, so this is the only supported way for benchmarks to
    examine server-side state (audit log contents, store stats, ...)
    once :func:`run_fleet` returns.

    ``audit_durable=True`` with ``audit_store="segmented"`` (or
    ``audit_store="durable"``) persists each
    service's audit log through a write-once blob store, with
    ``audit_flush_policy``/``audit_flush_every`` setting the group
    commit cadence; the audit knobs become one
    :class:`~repro.auditstore.AuditSpec` here.  ``faults`` is an optional
    :class:`~repro.cluster.faults.FaultPlan` replayed against the
    replica group mid-run — including ``kill`` events, whose
    auto-revert restarts the replica through real audit recovery.

    ``fleet_shards`` (or the ``KEYPAD_FLEET_SHARDS`` environment
    variable, when the argument is None) partitions the simulated
    *devices* across forked worker processes while the service stays in
    this process; the returned tables are byte-identical at any shard
    count.  See :mod:`repro.workloads.fleet_shard` for the
    synchronization contract and the configurations that fall back to
    the single-process path.

    ``topology`` runs the fleet against a
    :class:`~repro.cluster.replica.ReplicaGroup` over that
    :class:`~repro.cluster.federation.Topology` (mutually exclusive with
    ``replicas``/``threshold``, which build a one-region topology).  On
    a multi-region topology devices are homed round-robin across the
    regions, their per-replica links carry the access RTT plus the
    topology's inter-region RTT, and ``geo_routing=True`` gives each
    client its home region so it ranks replicas by live RTT (``False``
    keeps the index-order client, for A/B latency comparisons over
    identical links).  ``region:<name>`` partition targets in
    ``faults`` are wired automatically to every link crossing that
    region's boundary, gossip mesh included.
    """
    from repro.harness.runner import derive_arm_seed

    if devices < 1:
        raise ValueError("fleet needs at least one device")
    net = network or LAN

    if topology is not None:
        if replicas != 1 or threshold != 1:
            raise ValueError(
                "pass either topology=... or replicas/threshold, not both")
    elif replicas > 1:
        topology = Topology.symmetric(
            regions=("local",), replicas_per_region=replicas,
            threshold=threshold)

    spec = FrontendSpec(**frontend) if frontend is not None else None
    if audit_durable and audit_store not in ("segmented", "durable"):
        raise ConfigError("audit_durable=True needs audit_store='segmented'")
    audit = AuditSpec(
        store="durable" if audit_durable else audit_store,
        segment_entries=segment_entries,
        flush_policy=audit_flush_policy,
        flush_every=audit_flush_every,
    )

    requested = fleet_shards
    if requested is None:
        requested = int(os.environ.get("KEYPAD_FLEET_SHARDS", "1") or "1")
    n_shards = max(1, min(int(requested), devices))
    if (n_shards > 1 and topology is None and audit.store != "durable"
            and faults is None):
        from repro.workloads import fleet_shard

        if fleet_shard.available(net):
            return fleet_shard.run_fleet_sharded(
                devices=devices, duration=duration, seed=seed,
                scanner_fraction=scanner_fraction, network=net,
                costs=costs, frontend=spec, shards=shards,
                control=control, audit=audit, inspect=inspect,
                n_shards=n_shards,
            )
        # Unsupported (zero-latency link, no fork): run single-process
        # rather than fail — the result is identical either way.

    sim = Simulation()
    frontends: list = []

    if topology is not None:
        group = ReplicaGroup(
            sim, topology, costs=costs, seed=derive_arm_seed(seed, "cluster"),
            shards=shards, audit=audit, audit_blobs=BlobStore("memory", costs),
        )
        if topology.multi_region:
            group.start_gossip()
        if spec is not None:
            frontends = group.install_frontends(spec)
        share_drbg = HmacDrbg(derive_arm_seed(seed, "shares"),
                              b"fleet-shares")
        service = None
    else:
        service = KeyService(
            sim, costs=costs, seed=derive_arm_seed(seed, "ks"),
            name="fleet-keys", shards=shards, audit=audit,
        )
        if spec is not None:
            frontends = [service.install_frontend(spec)]
        group = None
        share_drbg = None

    fleet: list[FleetDevice] = []
    fault_links: dict = {}      # device links by name, for fault plans
    region_boundary: dict = {}  # region -> cross-region device links
    for index in range(devices):
        profile = profile_for_index(index, scanner_fraction)
        device_id = f"dev-{index:05d}"
        secret = derive_arm_seed(seed, "secret", index)
        pairs = _derive_working_set(seed, index, profile.working_set)
        home = ""
        if group is not None:
            if topology.multi_region:
                home = topology.region_names[
                    index % len(topology.region_names)]
            links = group.device_links(net, home or None, f"fleet-{index}")
            for j, link in enumerate(links):
                fault_links[link.name] = link
                far = topology.region_of(j)
                if home and far != home:
                    # A cross-region device link sits on both
                    # regions' partition boundaries.
                    region_boundary.setdefault(home, []).append(link)
                    region_boundary.setdefault(far, []).append(link)
            transport = ReplicatedKeyClient(
                sim, device_id, secret, group, links, costs=costs,
                rng=SimRandom(derive_arm_seed(seed, "rng", index),
                              "fleet-client"),
                share_seed=derive_arm_seed(seed, "client-shares", index),
                home_region=(home or None) if geo_routing else None,
            )
            for audit_id, key in pairs:
                shares = split_secret(key, group.k, group.m, share_drbg)
                for j, replica in enumerate(group.replicas):
                    replica.preload_key(device_id, audit_id, shares[j])
        else:
            service.enroll_device(device_id, secret)
            link = net.make_link(sim, label=f"fleet-{index}")
            transport = RpcChannel(sim, link, service.server, device_id,
                                   secret, costs=costs)
            for audit_id, key in pairs:
                service.preload_key(device_id, audit_id, key)
        device = FleetDevice(sim, index, profile, seed, transport,
                             [audit_id for audit_id, _ in pairs])
        device.stats.region = home
        fleet.append(device)

    procs = [
        sim.process(device.run(duration), name=device.device_id)
        for device in fleet
    ]

    control_log: list[dict] = []
    events = sorted(control or (), key=lambda e: (e.at, e.verb))
    if events:
        procs.append(sim.process(
            _install_control(sim, net, seed, costs, service, group,
                             frontends, events, control_log),
            name="fleet-admin",
        ))

    injector = None
    if faults is not None and len(faults):
        if group is None:
            raise ValueError("a fault plan needs a replica cluster "
                             "(replicas/threshold or topology)")
        from repro.cluster.faults import FaultInjector

        injector = FaultInjector(
            sim, links={**fault_links, **group.gossip_links}, group=group)
        if topology.multi_region:
            for name in topology.region_names:
                injector.register_region(
                    name,
                    region_boundary.get(name, [])
                    + group.gossip_links_crossing(name),
                )
        procs.extend(injector.run(faults))

    sim.run_until(sim.all_of(procs))

    policy = frontends[0].policy if frontends else "unbounded"
    return FleetResult(
        devices=devices,
        duration=duration,
        policy=policy,
        stats=[device.stats for device in fleet],
        frontend_metrics=[f.metrics.as_dict() for f in frontends],
        control_log=control_log,
        fault_trace=list(injector.trace) if injector is not None else [],
        inspection=(
            inspect(service if group is None else group)
            if inspect is not None else None
        ),
    )
