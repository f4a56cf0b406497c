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
labels; a one-region topology is the flat k-of-m cluster.  Liveness is
each replica's ``server.available`` flag: clients see it as failed
calls, and :meth:`ReplicaGroup.region_status` reads it directly.

The group is pure server-side state; the failure-aware transport lives
in :class:`~repro.cluster.client.ReplicatedKeyClient`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.auditstore import AuditSpec
from repro.costmodel import DEFAULT_COSTS, CostModel
from repro.net.link import Link
from repro.net.netem import NetEnv
from repro.server import FrontendSpec
from repro.sim import Simulation
from repro.core.services.keyservice import KeyService
from repro.cluster.federation import Topology

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
        """The ``ctl.region_status`` payload: per-region availability
        (each replica's ``server.available``) and the topology."""
        regions: Dict[str, dict] = {}
        for name in self.topology.region_names:
            idxs = self.topology.replica_indices(name)
            regions[name] = {
                "replicas": len(idxs),
                "available": sum(
                    1 for i in idxs if self.replicas[i].server.available
                ),
            }
        return {
            "at": self.sim.now,
            "regions": regions,
            "topology": self.topology.to_dict(),
        }
