"""Replicated key-service cluster (high availability + stronger audit).

Implements the paper's "Improving Availability / Multiple Key Services"
direction: K_R is secret-shared k-of-m across a :class:`ReplicaGroup`
of key services, so a fetch needs k shares and *every* contacted
share-holder independently logs the access.  The failure-aware
:class:`ReplicatedKeyClient` adds per-request deadlines, exponential
backoff with jitter, hedged requests, and health-tracking failover,
all tuned by one frozen :class:`ReplicaPolicy`;
:mod:`repro.cluster.faults` injects deterministic outages to prove it
out, and :mod:`repro.cluster.merge` folds the per-replica audit logs
back into one forensic timeline with divergence detection.

The group's shape is one declarative :class:`Topology`
(:mod:`repro.cluster.federation`: regions, replicas-per-region, k/m,
inter-region RTT matrix).  A flat k-of-m cluster is a one-region
topology; with several regions the same group labels its replicas by
region, and a client given a home region prefers the nearest healthy
one.

Everything here is flag-gated: a ``KeypadConfig`` whose ``cluster`` is
``None`` (the default) never touches this package.
"""

from repro.cluster.client import (
    ReplicaPolicy,
    ReplicatedKeyClient,
    ReplicatedServiceSession,
)
from repro.cluster.faults import FaultEvent, FaultInjector, FaultPlan
from repro.cluster.federation import Region, Topology
from repro.cluster.merge import ClusterAuditLog, Divergence, MergedAccess
from repro.cluster.replica import ReplicaGroup

__all__ = [
    "ReplicaGroup",
    "ReplicaPolicy",
    "ReplicatedKeyClient",
    "ReplicatedServiceSession",
    "Region",
    "Topology",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "ClusterAuditLog",
    "MergedAccess",
    "Divergence",
]
