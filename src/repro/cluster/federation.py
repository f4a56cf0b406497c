"""Multi-region key-service federation behind a declarative topology.

PR 2's cluster is a static k-of-m :class:`ReplicaGroup` behind one
client; this module makes it self-organizing and geo-aware.  The whole
shape of a federation is one frozen value object:

    topo = Topology.symmetric(regions=("us", "eu", "ap"),
                              replicas_per_region=2, threshold=2,
                              rtt_ms=80.0)
    config = KeypadConfig.builder().federation(topology=topo).build()

* :class:`Region` / :class:`Topology` — regions, replicas-per-region,
  the k/m share threshold, and the inter-region RTT matrix, plus the
  gossip/lease protocol knobs.  Hashable and comparable, so it rides
  inside the frozen :class:`~repro.core.policy.KeypadConfig`.
* :class:`FederationGroup` — a :class:`ReplicaGroup` whose replicas
  carry region labels and host :class:`~repro.cluster.gossip.GossipAgent`
  membership daemons with piggybacked per-shard leader leases
  (:mod:`repro.cluster.election`).
* :class:`FederatedKeyClient` — geo-routing: endpoints are ranked by
  live link RTT, so a device prefers its nearest healthy region and
  falls back across regions through the inherited deadline / hedging /
  retry machinery when the local region degrades.

Everything is flag-gated: without ``builder().federation(...)`` none of
this is constructed and the single-service and plain-cluster paths are
untouched.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.costmodel import DEFAULT_COSTS, CostModel
from repro.net.link import Link
from repro.net.netem import LAN, NetEnv
from repro.net.rpc import RpcChannel
from repro.sim import Simulation, SimRandom
from repro.cluster.client import (
    ReplicatedKeyClient,
    ReplicatedServiceSession,
)
from repro.cluster.election import LeaseManager
from repro.cluster.gossip import GossipAgent
from repro.cluster.replica import ReplicaGroup

__all__ = [
    "Region",
    "Topology",
    "FederationGroup",
    "FederatedKeyClient",
    "FederatedServiceSession",
]


@dataclass(frozen=True)
class Region:
    """One region: a name and how many full replicas it hosts."""

    name: str
    replicas: int = 2

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ValueError("region name must be a non-empty string")
        if self.replicas < 1:
            raise ValueError(
                f"region {self.name!r} needs at least one replica"
            )


@dataclass(frozen=True)
class Topology:
    """The declarative shape of a federation.

    ``rtt_ms`` is the symmetric inter-region round-trip matrix in
    milliseconds (zero diagonal), indexed like ``regions``.  The
    remaining fields are the gossip/lease protocol knobs; defaults suit
    the simulated second-scale experiments.  Instances are immutable
    and hashable so they can live inside a frozen ``KeypadConfig``.
    """

    regions: Tuple[Region, ...]
    threshold: int = 2
    rtt_ms: Tuple[Tuple[float, ...], ...] = ()
    gossip_interval: float = 0.5
    gossip_fanout: int = 2
    suspect_after: float = 2.0
    dead_after: float = 5.0
    lease_duration: float = 5.0
    election_shards: int = 4

    def __post_init__(self):
        # Coerce sequences so list-built topologies stay hashable.
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(
            self,
            "rtt_ms",
            tuple(tuple(float(v) for v in row) for row in self.rtt_ms),
        )

    # -- construction ------------------------------------------------------
    @classmethod
    def symmetric(
        cls,
        regions: Sequence[str] | int = ("us", "eu", "ap"),
        replicas_per_region: int = 2,
        threshold: int = 2,
        rtt_ms: float = 80.0,
        **knobs: Any,
    ) -> "Topology":
        """All-pairs-equal RTT topology, the common experiment shape."""
        if isinstance(regions, int):
            names: Tuple[str, ...] = tuple(
                f"r{i}" for i in range(regions)
            )
        else:
            names = tuple(regions)
        n = len(names)
        matrix = tuple(
            tuple(0.0 if i == j else float(rtt_ms) for j in range(n))
            for i in range(n)
        )
        return cls(
            regions=tuple(
                Region(name, replicas_per_region) for name in names
            ),
            threshold=threshold,
            rtt_ms=matrix,
            **knobs,
        )

    # -- validation --------------------------------------------------------
    def validate(self) -> None:
        if not self.regions:
            raise ValueError("topology needs at least one region")
        names = [r.name for r in self.regions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate region names: {names}")
        total = self.total_replicas
        if not 1 <= self.threshold <= total:
            raise ValueError(
                f"need 1 <= threshold <= {total} replicas, "
                f"got threshold={self.threshold}"
            )
        n = len(self.regions)
        if len(self.rtt_ms) != n or any(len(row) != n for row in self.rtt_ms):
            raise ValueError(
                f"rtt_ms must be a {n}x{n} matrix matching regions"
            )
        for i in range(n):
            if self.rtt_ms[i][i] != 0.0:
                raise ValueError(
                    f"rtt_ms diagonal must be zero (region {names[i]!r})"
                )
            for j in range(n):
                if self.rtt_ms[i][j] < 0:
                    raise ValueError("rtt_ms entries cannot be negative")
                if self.rtt_ms[i][j] != self.rtt_ms[j][i]:
                    raise ValueError(
                        f"rtt_ms must be symmetric "
                        f"({names[i]!r} <-> {names[j]!r})"
                    )
        if self.gossip_interval <= 0:
            raise ValueError("gossip_interval must be positive")
        if self.gossip_fanout < 1:
            raise ValueError("gossip_fanout must be at least 1")
        if not 0 < self.suspect_after < self.dead_after:
            raise ValueError(
                "need 0 < suspect_after < dead_after "
                f"(got {self.suspect_after} / {self.dead_after})"
            )
        if self.lease_duration <= 0:
            raise ValueError("lease_duration must be positive")
        if self.election_shards < 1:
            raise ValueError("need at least one election shard")

    # -- shape -------------------------------------------------------------
    @property
    def total_replicas(self) -> int:
        return sum(r.replicas for r in self.regions)

    @property
    def region_names(self) -> Tuple[str, ...]:
        return tuple(r.name for r in self.regions)

    def region_index(self, name: str) -> int:
        for i, region in enumerate(self.regions):
            if region.name == name:
                return i
        raise ValueError(
            f"unknown region {name!r}; topology has {self.region_names}"
        )

    def region_of(self, replica_index: int) -> str:
        """Region name for a flat replica index (regions in order)."""
        i = replica_index
        for region in self.regions:
            if i < region.replicas:
                return region.name
            i -= region.replicas
        raise IndexError(
            f"replica index {replica_index} out of range "
            f"({self.total_replicas} replicas)"
        )

    def replica_indices(self, name: str) -> Tuple[int, ...]:
        start = 0
        for region in self.regions:
            if region.name == name:
                return tuple(range(start, start + region.replicas))
            start += region.replicas
        raise ValueError(f"unknown region {name!r}")

    def rtt_s(self, a: str, b: str) -> float:
        """Inter-region RTT in seconds (zero within a region)."""
        return self.rtt_ms[self.region_index(a)][self.region_index(b)] / 1000.0

    # -- wire --------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "regions": [
                {"name": r.name, "replicas": r.replicas}
                for r in self.regions
            ],
            "threshold": self.threshold,
            "rtt_ms": [list(row) for row in self.rtt_ms],
            "gossip_interval": self.gossip_interval,
            "gossip_fanout": self.gossip_fanout,
            "suspect_after": self.suspect_after,
            "dead_after": self.dead_after,
            "lease_duration": self.lease_duration,
            "election_shards": self.election_shards,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Topology":
        return cls(
            regions=tuple(
                Region(str(r["name"]), int(r["replicas"]))
                for r in data["regions"]
            ),
            threshold=int(data["threshold"]),
            rtt_ms=tuple(tuple(row) for row in data["rtt_ms"]),
            gossip_interval=float(data.get("gossip_interval", 0.5)),
            gossip_fanout=int(data.get("gossip_fanout", 2)),
            suspect_after=float(data.get("suspect_after", 2.0)),
            dead_after=float(data.get("dead_after", 5.0)),
            lease_duration=float(data.get("lease_duration", 5.0)),
            election_shards=int(data.get("election_shards", 4)),
        )


class FederationGroup(ReplicaGroup):
    """A replica group whose members carry region labels and gossip.

    Server-side only, like its base: the geo-routing transport lives in
    :class:`FederatedKeyClient`.  ``install_gossip()`` wires the full
    inter-replica mesh (intra-region links at LAN RTT, cross-region
    links at the topology matrix RTT) and ``start_gossip()`` spawns the
    anti-entropy processes.
    """

    def __init__(
        self,
        sim: Simulation,
        topology: Topology,
        costs: CostModel = DEFAULT_COSTS,
        seed: bytes = b"federation",
        **replica_knobs: Any,
    ):
        topology.validate()
        super().__init__(
            sim,
            topology.total_replicas,
            topology.threshold,
            costs=costs,
            seed=seed,
            **replica_knobs,
        )
        self.topology = topology
        #: region name per flat replica index
        self.region_labels: List[str] = [
            topology.region_of(i) for i in range(self.m)
        ]
        self._costs = costs
        self._seed = seed
        self.agents: List[GossipAgent] = []
        #: gossip mesh links by name, for fault plans
        self.gossip_links: Dict[str, Link] = {}
        self._gossip_procs: List[Any] = []

    # -- membership / election mesh ----------------------------------------
    def member_id(self, index: int) -> str:
        return f"key-replica-{index}"

    def install_gossip(self, intra_rtt: float = LAN.rtt) -> List[GossipAgent]:
        """Build one gossip agent per replica plus the full mesh of
        authenticated channels between them.  Idempotent."""
        if self.agents:
            return self.agents
        topo = self.topology
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
                    self.region_labels[i],
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
                rtt = intra_rtt + topo.rtt_s(
                    self.region_labels[i], self.region_labels[j]
                )
                link = Link(self.sim, rtt=rtt, name=f"gossip-{i}-{j}")
                self.gossip_links[link.name] = link
                self.replicas[j].enroll_device(
                    f"gossip:{names[i]}", secrets[i]
                )
                channel = RpcChannel(
                    self.sim, link, self.replicas[j].server,
                    f"gossip:{names[i]}", secrets[i], costs=self._costs,
                )
                self.agents[i].connect(
                    names[j], channel, self.region_labels[j]
                )
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
        self.topology.region_index(region)
        crossing = []
        for i in range(self.m):
            for j in range(self.m):
                if i == j:
                    continue
                name = f"gossip-{i}-{j}"
                link = self.gossip_links.get(name)
                if link is None:
                    continue
                inside = (self.region_labels[i] == region,
                          self.region_labels[j] == region)
                if inside[0] != inside[1]:
                    crossing.append(link)
        return crossing

    # -- device-side wiring --------------------------------------------------
    def device_links(
        self,
        net: NetEnv,
        home_region: str,
        label_prefix: str,
    ) -> List[Link]:
        """Per-replica links for a device homed in ``home_region``:
        the access-network RTT plus the inter-region RTT to each
        replica's region."""
        self.topology.region_index(home_region)
        links = []
        for j in range(self.m):
            rtt = net.rtt + self.topology.rtt_s(
                home_region, self.region_labels[j]
            )
            links.append(
                Link(
                    self.sim,
                    rtt=rtt,
                    bandwidth_bps=net.bandwidth_bps,
                    name=f"{label_prefix}-r{j}",
                )
            )
        return links

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


class FederatedKeyClient(ReplicatedKeyClient):
    """Geo-routing transport: nearest healthy region first.

    Endpoint ranking swaps PR 2's stable index order for live link RTT
    (cooling-down endpoints still sort last), so a device homed in
    ``eu`` gathers its k shares from the ``eu`` replicas and only
    crosses an ocean when the home region is degraded — at which point
    the inherited deadline race, hedging, and retry/backoff machinery
    drive the cross-region fallback.
    """

    def __init__(
        self,
        sim: Simulation,
        device_id: str,
        device_secret: bytes,
        group: FederationGroup,
        links: List[Link],
        home_region: Optional[str] = None,
        **kwargs: Any,
    ):
        topology = getattr(group, "topology", None)
        if topology is None:
            raise ValueError(
                "FederatedKeyClient needs a FederationGroup built from "
                "a Topology; for a flat ReplicaGroup use "
                "ReplicatedKeyClient"
            )
        if home_region is None:
            home_region = topology.region_names[0]
        topology.region_index(home_region)  # validates the name
        super().__init__(sim, device_id, device_secret, group, links,
                         **kwargs)
        self.topology = topology
        self.home_region = home_region

    def _rank_key(self, endpoint, now) -> tuple:
        # Live RTT (microsecond-quantized for a stable total order)
        # instead of replica index: nearest region first, cross-region
        # fallback ordered by distance, cooling endpoints last.
        cooling = 0 if endpoint.down_until <= now else 1
        return (cooling, round(endpoint.link.rtt * 1e6), endpoint.index)


class FederatedServiceSession(ReplicatedServiceSession):
    """The device-facing session facade over a federation: the
    :class:`ReplicatedServiceSession` surface with the cluster transport
    swapped for a geo-routing :class:`FederatedKeyClient`."""

    def __init__(self, *args: Any, home_region: Optional[str] = None,
                 **kwargs: Any):
        super().__init__(
            *args,
            cluster_cls=FederatedKeyClient,
            cluster_kwargs={"home_region": home_region},
            **kwargs,
        )
        self.home_region = self.cluster.home_region
