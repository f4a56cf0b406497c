"""A group of key-service replicas holding secret shares of K_R.

Each replica is a full :class:`~repro.core.services.keyservice.KeyService`
— same wire protocol, same durable-log-before-reply discipline, same
revocation support — whose escrow map stores *one share* of each remote
key instead of the key itself (shares are exactly ``REMOTE_KEY_LEN``
bytes; the Shamir evaluation point is the replica's index, carried
implicitly).  A thief must therefore appear in at least
``threshold`` replicas' logs to reconstruct any key, which is strictly
stronger auditing than the single-service design.

The group's shape is a :class:`~repro.cluster.federation.Topology`.
On a topology with more than one region the replicas also carry region
labels and host :class:`~repro.cluster.gossip.GossipAgent` membership
daemons with per-shard leader leases; a one-region topology is the
flat k-of-m cluster and builds none of that.

The group is pure server-side state; the failure-aware transport lives
in :class:`~repro.cluster.client.ReplicatedKeyClient`.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional

from repro.auditstore import AuditSpec
from repro.costmodel import DEFAULT_COSTS, CostModel
from repro.net.link import Link
from repro.net.netem import LAN, NetEnv
from repro.net.rpc import RpcChannel
from repro.server import FrontendSpec
from repro.sim import Simulation, SimRandom
from repro.core.services.keyservice import KeyService
from repro.cluster.election import LeaseManager
from repro.cluster.federation import Topology
from repro.cluster.gossip import GossipAgent

__all__ = ["ReplicaGroup"]


class ReplicaGroup:
    """m key-service replicas with a k-of-m share threshold, laid out
    over a :class:`~repro.cluster.federation.Topology`."""

    def __init__(
        self,
        sim: Simulation,
        topology: Topology,
        costs: CostModel = DEFAULT_COSTS,
        seed: bytes = b"replica-group",
        shards: int = 1,
        audit: AuditSpec = AuditSpec(),
        audit_blobs=None,
    ):
        self.sim = sim
        self.topology = topology
        self.m = m = topology.total_replicas
        self.k = topology.threshold
        #: region name per flat replica index; None for one region
        self.region_labels: Optional[List[str]] = (
            [topology.region_of(i) for i in range(m)]
            if topology.multi_region else None
        )
        self._costs = costs
        self._seed = seed
        self.agents: List[GossipAgent] = []
        #: gossip mesh links by name, for fault plans
        self.gossip_links: Dict[str, Link] = {}
        self._gossip_procs: List[Any] = []
        self.replicas = [
            KeyService(
                sim,
                costs=costs,
                seed=seed + b"|r%d" % i,
                name=f"key-replica-{i}",
                shards=shards,
                audit=audit,
                # Each replica spills into its own namespace on the
                # shared store (audit/key-replica-<i>/...).
                audit_blobs=audit_blobs,
            )
            for i in range(m)
        ]

    def __len__(self) -> int:
        return self.m

    # -- administration (fans out to every replica) -------------------------
    def enroll_device(self, device_id: str, secret: bytes) -> None:
        for replica in self.replicas:
            replica.enroll_device(device_id, secret)

    def revoke_device(self, device_id: str) -> None:
        """Remote control: a report of loss disables the device's keys
        on every replica (each logs the revocation independently)."""
        for replica in self.replicas:
            replica.revoke_device(device_id)

    def install_frontends(self, spec: FrontendSpec) -> list:
        """Install a scheduler frontend built from ``spec`` on every
        replica (fleet scale).

        Each replica gets its own independent scheduler (fair queueing
        and group commit are per-replica concerns — shares of one fetch
        still land on k distinct logs).  Returns the frontends.
        """
        return [replica.install_frontend(spec) for replica in self.replicas]

    # -- introspection -------------------------------------------------------
    def available_count(self) -> int:
        return sum(1 for r in self.replicas if r.server.available)

    def crash(self, index: int) -> None:
        """Test/fault hook: take one replica's server down.

        A *transient* outage (network flap, overload) — in-process
        state survives and :meth:`recover` simply resumes serving.
        For process death with audit-log loss, use :meth:`kill`.
        """
        self.replicas[index].server.available = False

    def recover(self, index: int) -> None:
        self.replicas[index].server.available = True

    def kill(self, index: int) -> int:
        """Fault hook: process death for one replica.

        Unlike :meth:`crash`, the replica's in-memory audit state dies
        with it; :meth:`restart` runs real recovery from the spilled
        blobs.  Returns the audit entry count at death.
        """
        return self.replicas[index].crash()

    def restart(self, index: int) -> dict:
        """Bring a killed replica back through audit recovery.

        Returns the replica's recovery stats; raises
        :class:`~repro.errors.AuditRecoveryError` (leaving the replica
        unavailable) if its spilled log fails verification.
        """
        return self.replicas[index].restart()

    def recovery_stats(self) -> list:
        """Each replica's last recovery outcome (``None`` if never
        restarted) — surfaced by ``ctl.audit_stats`` and consumed by
        the merge layer's divergence report."""
        return [r.recovery_stats for r in self.replicas]

    # -- membership / election mesh ----------------------------------------
    def member_id(self, index: int) -> str:
        return f"key-replica-{index}"

    def install_gossip(self, intra_rtt: float = LAN.rtt) -> List[GossipAgent]:
        """Build one gossip agent per replica plus the full mesh of
        authenticated channels between them (intra-region links at
        ``intra_rtt``, cross-region links add the topology's RTT).
        Idempotent."""
        if self.agents:
            return self.agents
        topo = self.topology
        labels = [topo.region_of(i) for i in range(self.m)]
        names = [self.member_id(i) for i in range(self.m)]
        secrets = [
            hashlib.sha256(
                self._seed + b"|gossip-secret|" + names[i].encode()
            ).digest()
            for i in range(self.m)
        ]
        for i in range(self.m):
            self.agents.append(
                GossipAgent(
                    self.sim,
                    names[i],
                    labels[i],
                    self.replicas[i].server,
                    rng=SimRandom(self._seed, f"gossip-{i}"),
                    interval=topo.gossip_interval,
                    fanout=topo.gossip_fanout,
                    suspect_after=topo.suspect_after,
                    dead_after=topo.dead_after,
                    leases=LeaseManager(
                        names[i], topo.election_shards, topo.lease_duration
                    ),
                )
            )
        for i in range(self.m):
            for j in range(self.m):
                if i == j:
                    continue
                rtt = intra_rtt + topo.rtt_s(labels[i], labels[j])
                link = Link(self.sim, rtt=rtt, name=f"gossip-{i}-{j}")
                self.gossip_links[link.name] = link
                self.replicas[j].enroll_device(
                    f"gossip:{names[i]}", secrets[i]
                )
                channel = RpcChannel(
                    self.sim, link, self.replicas[j].server,
                    f"gossip:{names[i]}", secrets[i], costs=self._costs,
                )
                self.agents[i].connect(names[j], channel, labels[j])
        return self.agents

    def start_gossip(self) -> List[GossipAgent]:
        """Spawn the anti-entropy loops (installs the mesh if needed)."""
        agents = self.install_gossip()
        if not self._gossip_procs:
            self._gossip_procs = [
                self.sim.process(a.run(), name=f"gossip-{a.member_id}")
                for a in agents
            ]
        return agents

    def gossip_links_crossing(self, region: str) -> List[Link]:
        """Mesh links with exactly one endpoint inside ``region`` —
        the links a region partition severs."""
        topo = self.topology
        topo.region_index(region)
        crossing = []
        for i in range(self.m):
            for j in range(self.m):
                link = self.gossip_links.get(f"gossip-{i}-{j}")
                if link is None:
                    continue
                if ((topo.region_of(i) == region)
                        != (topo.region_of(j) == region)):
                    crossing.append(link)
        return crossing

    # -- device-side wiring --------------------------------------------------
    def device_links(
        self,
        net: NetEnv,
        home_region: Optional[str],
        label_prefix: str,
    ) -> List[Link]:
        """Per-replica links ``<label_prefix>-r<j>`` for a device homed
        in ``home_region`` (None: the first region): the access
        network's RTT plus the inter-region RTT to each replica's
        region (zero on a one-region topology)."""
        topo = self.topology
        home = home_region or topo.region_names[0]
        topo.region_index(home)
        return [
            Link(
                self.sim,
                rtt=net.rtt + topo.rtt_s(home, topo.region_of(j)),
                bandwidth_bps=net.bandwidth_bps,
                name=f"{label_prefix}-r{j}",
            )
            for j in range(self.m)
        ]

    # -- introspection -------------------------------------------------------
    def region_status(self) -> dict:
        """The ``ctl.region_status`` payload: per-region availability,
        the membership view of a live observer, and the per-shard
        leaders (highest-term lease across live observers)."""
        now = self.sim.now
        regions: Dict[str, dict] = {}
        for name in self.topology.region_names:
            idxs = self.topology.replica_indices(name)
            regions[name] = {
                "replicas": len(idxs),
                "available": sum(
                    1 for i in idxs if self.replicas[i].server.available
                ),
            }
        observers = [
            agent
            for agent, replica in zip(self.agents, self.replicas)
            if replica.server.available
        ]
        members: Dict[str, str] = {}
        leaders: Dict[str, Optional[str]] = {}
        if observers:
            members = observers[0].statuses()
            best: Dict[int, Any] = {}
            for agent in observers:
                if agent.leases is None:
                    continue
                for shard, lease in agent.leases.table.items():
                    cur = best.get(shard)
                    if cur is None or lease._order() > cur._order():
                        best[shard] = lease
            leaders = {
                str(shard): (
                    lease.holder if lease.expires_at > now else None
                )
                for shard, lease in sorted(best.items())
            }
        return {
            "at": now,
            "regions": regions,
            "members": members,
            "leaders": leaders,
            "gossip_rounds": [a.rounds for a in self.agents],
            "topology": self.topology.to_dict(),
        }
