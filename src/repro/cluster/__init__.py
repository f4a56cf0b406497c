"""Replicated key-service cluster (high availability + stronger audit).

Implements the paper's "Improving Availability / Multiple Key Services"
direction: K_R is secret-shared k-of-m across a :class:`ReplicaGroup`
of key services, so a fetch needs k shares and *every* contacted
share-holder independently logs the access.  The failure-aware
:class:`ReplicatedKeyClient` adds per-request deadlines, exponential
backoff with jitter, hedged requests, and health-tracking failover;
:mod:`repro.cluster.faults` injects deterministic outages to prove it
out, and :mod:`repro.cluster.merge` folds the per-replica audit logs
back into one forensic timeline with divergence detection.

On top of the flat cluster, :mod:`repro.cluster.federation` adds the
multi-region layer: a declarative :class:`Topology` (regions,
replicas-per-region, k/m, inter-region RTT matrix), gossip-based
membership (:mod:`repro.cluster.gossip`), per-shard leader leases
(:mod:`repro.cluster.election`), and a geo-routing
:class:`FederatedKeyClient` that prefers the nearest healthy region.

Everything here is flag-gated: ``KeypadConfig(replicas=1)`` (the
default) never touches this package.
"""

from repro.cluster.client import (
    ReplicatedKeyClient,
    ReplicatedServiceSession,
)
from repro.cluster.faults import FaultEvent, FaultInjector, FaultPlan
from repro.cluster.federation import (
    FederatedKeyClient,
    FederatedServiceSession,
    FederationGroup,
    Region,
    Topology,
)
from repro.cluster.merge import ClusterAuditLog, Divergence, MergedAccess
from repro.cluster.replica import ReplicaGroup

__all__ = [
    "ReplicaGroup",
    "ReplicatedKeyClient",
    "ReplicatedServiceSession",
    "Region",
    "Topology",
    "FederationGroup",
    "FederatedKeyClient",
    "FederatedServiceSession",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "ClusterAuditLog",
    "MergedAccess",
    "Divergence",
]
