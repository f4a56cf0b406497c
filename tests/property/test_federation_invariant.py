"""Federation under arbitrary partition/crash schedules: the audit
invariant, post-heal convergence, and recovery.

Hypothesis draws random fault schedules — whole-region partitions and
replica crashes, every window auto-healing before the run ends — while
one geo-routed device per region keeps fetching fresh keys.  After the
world settles the merged cross-region timeline must still satisfy:

* zero false negatives — every fetch the device *completed* appears in
  the merged timeline with at least k witnessing replicas;
* convergence — every entry appended on either side of a split appears
  exactly once (no missing entries, no duplicate groups, nothing lost);
* recovery — the region status shows every replica of every region
  available again.
"""

from __future__ import annotations

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    FaultPlan,
    ReplicaGroup,
    ReplicatedKeyClient,
    Topology,
)
from repro.cluster.faults import FaultEvent, FaultInjector
from repro.cluster.merge import ClusterAuditLog
from repro.crypto.drbg import HmacDrbg
from repro.crypto.secretshare import split_secret
from repro.errors import ReproError
from repro.net.netem import WLAN
from repro.sim import Simulation

#: one replica per region so a severed region is always under the
#: k=2 threshold: in-region fetch attempts leave split-confined entries
TOPO = Topology.symmetric(
    regions=("us", "eu", "ap"), replicas_per_region=1, threshold=2,
    rtt_ms=40.0,
)

FETCH_EVERY = 2.0
N_FETCHES = 15          # last fetch starts at t=28
SETTLE_UNTIL = 60.0     # all fault windows end by 28 + 8 = 36

fault_schedules = st.lists(
    st.tuples(
        st.sampled_from(["region:us", "region:eu", "region:ap",
                         "replica:0", "replica:1", "replica:2"]),
        st.floats(min_value=0.5, max_value=25.0),
        st.floats(min_value=1.0, max_value=8.0),
    ),
    max_size=4,
)


def _ids(region: str) -> list[bytes]:
    """Distinct audit ids per logical fetch, so merge groups are 1:1
    with fetch attempts."""
    return [
        hashlib.sha256(b"fed-prop|%s|%d" % (region.encode(), i)).digest()[:24]
        for i in range(N_FETCHES)
    ]


def _key_for(audit_id: bytes) -> bytes:
    return hashlib.sha256(b"fed-prop-key|" + audit_id).digest()


def _run_world(schedule):
    sim = Simulation()
    group = ReplicaGroup(sim, TOPO, seed=b"fed-prop")

    share_drbg = HmacDrbg(b"fed-prop-shares", b"fleet-shares")
    clients, completed = {}, {}
    fault_links: dict = {}
    boundary: dict = {}
    for region in TOPO.region_names:
        device_id = f"dev-{region}"
        # 2 ms access network on top of the inter-region matrix
        links = group.device_links(WLAN, region, f"{device_id}-keys")
        for j, link in enumerate(links):
            fault_links[link.name] = link
            far = group.region_labels[j]
            if far != region:
                boundary.setdefault(region, []).append(link)
                boundary.setdefault(far, []).append(link)
        clients[region] = ReplicatedKeyClient(
            sim, device_id, b"secret-" + region.encode(), group, links,
            home_region=region, dedup_window=30.0,
        )
        completed[region] = []
        for audit_id in _ids(region):
            shares = split_secret(_key_for(audit_id), TOPO.threshold,
                                  TOPO.total_replicas, share_drbg)
            for j, replica in enumerate(group.replicas):
                replica.preload_key(device_id, audit_id, shares[j])

    injector = FaultInjector(sim, links=fault_links, group=group)
    for region in TOPO.region_names:
        injector.register_region(region, boundary.get(region, []))
    plan = FaultPlan([
        FaultEvent(at, "partition" if target.startswith("region") else
                   "crash", target, duration)
        for target, at, duration in schedule
    ])
    injector.run(plan)

    def driver(region):
        client = clients[region]
        for audit_id in _ids(region):
            try:
                key = yield from client.fetch(audit_id)
                assert key == _key_for(audit_id)
                completed[region].append(audit_id)
            except ReproError:
                pass  # under-threshold inside a fault window
            yield sim.timeout(FETCH_EVERY)

    def settle():
        yield sim.timeout(SETTLE_UNTIL)

    procs = [sim.process(driver(region), name=f"drive-{region}")
             for region in TOPO.region_names]
    procs.append(sim.process(settle(), name="settle"))
    sim.run_until(sim.all_of(procs))
    return group, completed


@given(schedule=fault_schedules)
@settings(max_examples=10, deadline=None)
def test_partition_schedules_never_violate_the_audit_invariant(schedule):
    group, completed = _run_world(schedule)
    log = ClusterAuditLog(group, TOPO.threshold, window=30.0)

    # Zero false negatives: every completed fetch is in the merged
    # timeline with at least k witnesses.
    witnessed = {}
    for access in log.merged():
        if access.kind == "fetch":
            witnessed[(access.device_id, access.audit_id)] = access.witnesses
    for region, ids in completed.items():
        for audit_id in ids:
            count = witnessed.get((f"dev-{region}", audit_id), 0)
            assert count >= TOPO.threshold, (
                f"completed fetch of {audit_id.hex()[:12]} by dev-{region} "
                f"has only {count} witnesses")

    # Post-heal convergence: nothing missing, duplicated, or lost.
    report = log.convergence_report()
    assert report["converged"], report
    # Any split the merge classified names a real region.
    for divergence in log.divergences():
        if divergence.kind == "region-split":
            assert divergence.detail.split()[1].rstrip(":") in TOPO.region_names

    # Recovered: every replica of every region is available again.
    for name, row in group.region_status()["regions"].items():
        assert row["available"] == row["replicas"], (name, row)
