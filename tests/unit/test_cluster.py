"""Replicated key-service cluster: failover, hedging, merge, forensics."""

from __future__ import annotations

import pytest

from repro.cluster import (
    ClusterAuditLog,
    ReplicaGroup,
    ReplicaPolicy,
    ReplicatedServiceSession,
    Topology,
)
from repro.api import KeypadConfig, LAN, Link
from repro.core.client import KeyCreate, KeyFetch
from repro.core.services.metadataservice import MetadataService
from repro.errors import RevokedError, ServiceUnavailableError
from repro.forensics.audit import AuditTool
from repro.harness import build_keypad_rig
from repro.harness.experiment import DEVICE_ID
from repro.sim import Simulation
from repro.util.retry import RetryPolicy

AUDIT_ID = bytes(range(24))
SECRET = b"device-secret-tests-0123"


def _cluster(m=3, k=2, rtt=0.03, **knobs):
    """A session over a k-of-m group; ``knobs`` tune its ReplicaPolicy."""
    sim = Simulation()
    group = ReplicaGroup(sim, Topology.symmetric(("local",), m, k))
    links = [Link(sim, rtt, name=f"keys-r{i}") for i in range(m)]
    services = ReplicatedServiceSession(
        sim, DEVICE_ID, SECRET, group, links,
        MetadataService(sim), Link(sim, rtt, name="meta"),
        policy=ReplicaPolicy(**knobs),
    )
    return sim, group, links, services


def test_create_splits_key_across_all_replicas():
    sim, group, _links, services = _cluster()
    key = sim.run_process(services.create(KeyCreate(audit_id=AUDIT_ID)))
    assert len(key) == 32
    stored = [r._shard_map(AUDIT_ID).get(AUDIT_ID) for r in group.replicas]
    assert all(s is not None for s in stored)
    # No replica holds the key itself, and all shares differ.
    assert key not in stored
    assert len(set(stored)) == 3
    # Every replica logged the create.
    for replica in group.replicas:
        assert [e.kind for e in replica.access_log] == ["create"]


def test_fetch_recombines_and_logs_on_threshold_replicas():
    sim, group, _links, services = _cluster()
    key = sim.run_process(services.create(KeyCreate(audit_id=AUDIT_ID)))
    got = sim.run_process(services.fetch(KeyFetch(audit_id=AUDIT_ID)))
    assert got == key
    logged = sum(
        1 for r in group.replicas
        if any(e.kind == "fetch" for e in r.access_log)
    )
    assert logged >= 2


def test_failover_survives_any_single_crashed_replica():
    for down in range(3):
        sim, group, _links, services = _cluster()
        key = sim.run_process(services.create(KeyCreate(audit_id=AUDIT_ID)))
        group.crash(down)
        got = sim.run_process(services.fetch(KeyFetch(audit_id=AUDIT_ID)))
        assert got == key
        assert services.cluster.metrics.failovers >= (1 if down < 2 else 0)


def test_fetch_fails_below_threshold_with_retries_counted():
    sim, group, _links, services = _cluster(
        retry=RetryPolicy(base=0.01, max_attempts=2))
    sim.run_process(services.create(KeyCreate(audit_id=AUDIT_ID)))
    group.crash(0)
    group.crash(1)

    def attempt():
        try:
            yield from services.fetch(KeyFetch(audit_id=AUDIT_ID))
        except ServiceUnavailableError:
            return "unavailable"
        return "ok"

    assert sim.run_process(attempt()) == "unavailable"
    assert services.cluster.metrics.retries == 2


def test_hedging_beats_a_lagging_replica():
    sim, group, links, services = _cluster(hedge_delay=0.05, deadline=10.0)
    sim.run_process(services.create(KeyCreate(audit_id=AUDIT_ID)))
    # Replica 0 suddenly becomes very slow (congested path).
    links[0].rtt = 5.0
    start = sim.now
    sim.run_process(services.fetch(KeyFetch(audit_id=AUDIT_ID)))
    # The hedge to replica 2 answers long before replica 0 would.
    assert sim.now - start < 1.0
    assert services.cluster.metrics.hedged >= 1


def test_deadline_expiry_counts_and_fails_over():
    sim, group, links, services = _cluster(deadline=0.2, hedge_delay=0.0)
    sim.run_process(services.create(KeyCreate(audit_id=AUDIT_ID)))
    links[1].rtt = 5.0  # replica 1 can never answer inside the deadline
    key = sim.run_process(services.fetch(KeyFetch(audit_id=AUDIT_ID)))
    assert len(key) == 32
    assert services.cluster.metrics.deadline_expiries >= 1


def test_repeated_failures_mark_replica_down_then_cooldown_expires():
    sim, group, _links, services = _cluster(
        failure_threshold=2, cooldown=5.0, hedge_delay=0.0
    )
    sim.run_process(services.create(KeyCreate(audit_id=AUDIT_ID)))
    group.crash(0)

    def drive():
        for _ in range(3):
            yield from services.fetch(KeyFetch(audit_id=AUDIT_ID))
        return services.cluster.health()

    health = sim.run_process(drive())
    assert health[0] is False
    assert services.cluster.metrics.marked_down == 1
    group.recover(0)

    def later():
        yield sim.timeout(6.0)  # cooldown expires
        return services.cluster.health()

    assert sim.run_process(later())[0] is True


def test_probe_restores_a_recovered_replica_early():
    sim, group, _links, services = _cluster(failure_threshold=1, cooldown=100.0)
    sim.run_process(services.create(KeyCreate(audit_id=AUDIT_ID)))
    group.crash(0)
    sim.run_process(services.fetch(KeyFetch(audit_id=AUDIT_ID)))
    assert services.cluster.health()[0] is False
    group.recover(0)
    assert sim.run_process(services.cluster.probe(0)) is True
    assert services.cluster.health()[0] is True


def test_create_with_one_replica_down_repairs_the_missed_share():
    sim, group, _links, services = _cluster()
    group.crash(2)
    key = sim.run_process(services.create(KeyCreate(audit_id=AUDIT_ID)))
    assert group.replicas[2]._shard_map(AUDIT_ID).get(AUDIT_ID) is None
    group.recover(2)

    def wait():
        yield sim.timeout(30.0)

    sim.run_process(wait())
    # The background repairer re-uploaded the missed share.
    assert group.replicas[2]._shard_map(AUDIT_ID).get(AUDIT_ID) is not None
    assert services.cluster.metrics.repairs == 1
    got = sim.run_process(services.fetch(KeyFetch(audit_id=AUDIT_ID)))
    assert got == key


def test_revocation_is_fatal_not_retried():
    sim, group, _links, services = _cluster()
    sim.run_process(services.create(KeyCreate(audit_id=AUDIT_ID)))
    group.revoke_device(DEVICE_ID)

    def attempt():
        yield from services.fetch(KeyFetch(audit_id=AUDIT_ID))

    with pytest.raises(RevokedError):
        sim.run_process(attempt())
    assert services.cluster.metrics.retries == 0


def test_merge_dedups_witnesses_and_detects_divergence():
    sim, group, _links, services = _cluster()
    sim.run_process(services.create(KeyCreate(audit_id=AUDIT_ID)))
    sim.run_process(services.fetch(KeyFetch(audit_id=AUDIT_ID)))
    log = ClusterAuditLog(group, threshold=2)
    merged = log.merged()
    # One create (3 witnesses) + one fetch (>= 2 witnesses), not 5 rows.
    assert [m.kind for m in merged] == ["create", "fetch"]
    assert merged[0].witnesses == 3
    assert merged[1].witnesses >= 2
    assert log.divergences(DEVICE_ID) == []

    # A key disclosed on only one replica cannot come from a correct
    # k=2 client: flag it.
    rogue = bytes(reversed(range(24)))
    group.replicas[1].access_log.append(
        sim.now, DEVICE_ID, "fetch", audit_id=rogue
    )
    (divergence,) = log.divergences(DEVICE_ID)
    assert divergence.kind == "under-replicated"
    assert divergence.describe() == f"under-replicated: {divergence.detail}"

    # Revocation on a strict subset of replicas diverges too.
    group.replicas[0].revoke_device(DEVICE_ID)
    kinds = [d.kind for d in log.divergences(DEVICE_ID)]
    assert "revocation-divergence" in kinds


def test_merge_separates_fetches_in_different_windows():
    sim, group, _links, services = _cluster()
    sim.run_process(services.create(KeyCreate(audit_id=AUDIT_ID)))

    def twice():
        yield from services.fetch(KeyFetch(audit_id=AUDIT_ID))
        yield sim.timeout(60.0)  # far beyond the merge window
        yield from services.fetch(KeyFetch(audit_id=AUDIT_ID))

    sim.run_process(twice())
    merged = ClusterAuditLog(group, threshold=2).merged()
    assert [m.kind for m in merged] == ["create", "fetch", "fetch"]


def test_audit_tool_runs_unchanged_over_cluster_log():
    config = (KeypadConfig.builder().texp(5.0).prefetch("none")
              .ibe(False).replication(2, 3).build())
    rig = build_keypad_rig(network=LAN, config=config, n_blocks=1 << 14)

    def usage():
        yield from rig.fs.mkdir("/home")
        yield from rig.fs.write_file("/home/secret.txt", b"top secret")
        yield rig.sim.timeout(50.0)

    rig.run(usage())
    t_loss = rig.sim.now
    rig.replica_group.crash(1)  # thief reads with a replica down

    def thief():
        yield from rig.fs.read_all("/home/secret.txt")

    rig.run(thief())
    tool = AuditTool(rig.cluster_audit_log(), rig.metadata_service)
    report = tool.report(t_loss=t_loss, texp=config.texp, device_id=DEVICE_ID)
    assert report.logs_intact
    assert "/home/secret.txt" in report.compromised_paths().values()


def test_hibernate_notifies_every_replica():
    """Flags off, a replicated mount's hibernation notice goes out as
    one blocking broadcast and every replica logs the eviction."""
    config = (KeypadConfig.builder().texp(1000.0).prefetch("none")
              .ibe(False).replication(2, 3).build())
    rig = build_keypad_rig(network=LAN, config=config, n_blocks=1 << 14)

    def usage():
        yield from rig.fs.write_file("/f", b"data")
        yield from rig.fs.hibernate()
        yield rig.sim.timeout(1.0)

    rig.run(usage())
    assert len(rig.fs.key_cache.snapshot()) == 0
    for replica in rig.replica_group.replicas:
        assert [e.fields["reason"] for e in replica.access_log
                if e.kind == "evict"] == ["hibernate"]


def test_replicated_session_refuses_a_paired_phone():
    _sim, _group, _links, services = _cluster()
    with pytest.raises(ValueError, match="paired phone"):
        services.attach_phone(object())
    assert services.phone is None


def test_rig_guards_phone_and_seed_path_is_untouched():
    config = KeypadConfig.builder().replication(2, 3).build()
    with pytest.raises(ValueError):
        build_keypad_rig(network=LAN, config=config, with_phone=True)
    with pytest.raises(ValueError):
        KeypadConfig.builder().replication(4, 3)
    # Default config builds the classic single-service world.
    rig = build_keypad_rig(network=LAN, n_blocks=1 << 14)
    assert rig.replica_group is None
    with pytest.raises(ValueError):
        rig.cluster_audit_log()
