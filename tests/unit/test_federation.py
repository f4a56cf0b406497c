"""Multi-region federation: topology, gossip, election, geo-routing,
region partitions, and the config/control surface."""

from __future__ import annotations

import pytest

from repro.cluster import (
    FaultPlan,
    FederatedServiceSession,
    FederationGroup,
    Region,
    Topology,
)
from repro.cluster.gossip import ALIVE, DEAD
from repro.core.client import KeyCreate, KeyFetch
from repro.core.policy import KeypadConfig, PolicyEpoch
from repro.core.services.metadataservice import MetadataService
from repro.errors import ConfigError, ControlError
from repro.harness import build_keypad_rig
from repro.net.link import Link
from repro.net.netem import LAN, WLAN
from repro.sim import Simulation

AUDIT_ID = bytes(range(24))
SECRET = b"device-secret-tests-0123"

#: one small federation shape shared by most tests: 3 regions x 2,
#: k=2, 60 ms between regions, second-scale protocol timers.
TOPO = Topology.symmetric(
    regions=("us", "eu", "ap"), replicas_per_region=2, threshold=2,
    rtt_ms=60.0, gossip_interval=0.5, suspect_after=2.0, dead_after=5.0,
    lease_duration=4.0, election_shards=4,
)


def _sleep(sim, seconds):
    yield sim.timeout(seconds)


def _federation(topo=TOPO, home="eu", **session_knobs):
    sim = Simulation()
    group = FederationGroup(sim, topo)
    group.start_gossip()
    links = group.device_links(LAN, home, "keys")
    services = FederatedServiceSession(
        sim, "laptop", SECRET, group, links,
        MetadataService(sim), Link(sim, LAN.rtt, name="meta"),
        home_region=home, **session_knobs,
    )
    return sim, group, services


# -- Topology ----------------------------------------------------------------

def test_topology_validates_shape():
    with pytest.raises(ValueError):
        Topology(regions=(), threshold=1).validate()
    with pytest.raises(ValueError):
        Topology.symmetric(regions=("us", "us")).validate()
    with pytest.raises(ValueError):
        Topology.symmetric(regions=("us", "eu"), replicas_per_region=2,
                           threshold=5).validate()
    with pytest.raises(ValueError):  # non-square matrix
        Topology(regions=(Region("us"), Region("eu")), threshold=2,
                 rtt_ms=((0.0,),)).validate()
    with pytest.raises(ValueError):  # asymmetric
        Topology(regions=(Region("us"), Region("eu")), threshold=2,
                 rtt_ms=((0.0, 10.0), (20.0, 0.0))).validate()
    with pytest.raises(ValueError):  # non-zero diagonal
        Topology(regions=(Region("us"), Region("eu")), threshold=2,
                 rtt_ms=((1.0, 10.0), (10.0, 0.0))).validate()
    TOPO.validate()  # the shared shape is well-formed


def test_topology_indexing_roundtrip_and_hashability():
    assert TOPO.total_replicas == 6
    assert TOPO.region_names == ("us", "eu", "ap")
    assert [TOPO.region_of(i) for i in range(6)] == [
        "us", "us", "eu", "eu", "ap", "ap"]
    assert TOPO.replica_indices("eu") == (2, 3)
    assert TOPO.rtt_s("us", "ap") == pytest.approx(0.060)
    assert TOPO.rtt_s("eu", "eu") == 0.0
    with pytest.raises(ValueError):
        TOPO.region_index("mars")
    assert Topology.from_dict(TOPO.to_dict()) == TOPO
    # Hashable, so it can ride inside the frozen KeypadConfig.
    assert hash(TOPO) == hash(Topology.from_dict(TOPO.to_dict()))


def test_region_labels_and_device_link_rtts():
    sim = Simulation()
    group = FederationGroup(sim, TOPO)
    assert group.region_labels == ["us", "us", "eu", "eu", "ap", "ap"]
    links = group.device_links(WLAN, "eu", "dev")
    assert [link.name for link in links] == [f"dev-r{j}" for j in range(6)]
    rtts = [round(link.rtt, 4) for link in links]
    assert rtts == [0.062, 0.062, 0.002, 0.002, 0.062, 0.062]


# -- gossip membership -------------------------------------------------------

def test_gossip_converges_then_decays_crash_then_recovers():
    sim = Simulation()
    group = FederationGroup(sim, TOPO)
    group.start_gossip()
    observer = group.agents[3]

    sim.run_process(_sleep(sim, 5.0))
    assert set(observer.statuses().values()) == {ALIVE}

    group.crash(0)
    sim.run_process(_sleep(sim, 3 * TOPO.dead_after))
    statuses = observer.statuses()
    assert statuses["key-replica-0"] == DEAD
    assert all(s == ALIVE for m, s in statuses.items()
               if m != "key-replica-0")

    group.recover(0)
    sim.run_process(_sleep(sim, 3.0))
    assert observer.statuses()["key-replica-0"] == ALIVE


def test_gossip_transitions_are_seed_deterministic():
    def run_once():
        sim = Simulation()
        group = FederationGroup(sim, TOPO)
        group.start_gossip()

        def scenario():
            yield sim.timeout(3.0)
            group.crash(5)
            yield sim.timeout(2 * TOPO.dead_after)
            group.recover(5)
            yield sim.timeout(5.0)

        sim.run_process(scenario())
        return [agent.transitions for agent in group.agents]

    first, second = run_once(), run_once()
    assert first == second
    # The crash was actually observed somewhere.
    assert any(
        (member, status) == ("key-replica-5", DEAD)
        for transitions in first
        for _, member, status in transitions
    )


# -- leader election ---------------------------------------------------------

def test_leaders_elected_deterministically_and_reelected_on_crash():
    def run_once():
        sim = Simulation()
        group = FederationGroup(sim, TOPO)
        group.start_gossip()
        sim.run_process(_sleep(sim, 6.0))
        before = dict(group.region_status()["leaders"])
        victim = int(before["0"].rsplit("-", 1)[1])
        group.crash(victim)
        sim.run_process(_sleep(sim, 3 * TOPO.dead_after))
        after = dict(group.region_status()["leaders"])
        events = list(group.agents[(victim + 1) % 6].leases.events)
        return before, victim, after, events

    before, victim, after, events = run_once()
    assert set(before) == {"0", "1", "2", "3"}
    assert all(holder for holder in before.values())
    # Shard 0 moved off the crashed holder; the others keep a leader.
    assert after["0"] is not None
    assert after["0"] != before["0"]
    assert all(after[s] is not None for s in after)
    assert any(event.startswith("claim shard=0 term=")
               for _, event in events)
    # Same seed, same world: the whole election replays identically.
    assert run_once() == (before, victim, after, events)


# -- geo-routing -------------------------------------------------------------

def test_geo_routing_fetches_from_home_region():
    sim, group, services = _federation(home="eu")
    assert services.home_region == "eu"
    ranked = services.cluster._ranked()
    assert [ep.index for ep in ranked] == [2, 3, 0, 1, 4, 5]
    key = sim.run_process(services.create(KeyCreate(audit_id=AUDIT_ID)))
    got = sim.run_process(services.fetch(KeyFetch(audit_id=AUDIT_ID)))
    assert got == key
    witnesses = [
        i for i, replica in enumerate(group.replicas)
        if any(e.kind == "fetch" for e in replica.access_log)
    ]
    assert witnesses == [2, 3]  # both shares came from eu


def test_geo_routing_falls_back_across_regions():
    sim, group, services = _federation(home="eu")
    key = sim.run_process(services.create(KeyCreate(audit_id=AUDIT_ID)))
    group.crash(2)
    group.crash(3)
    got = sim.run_process(services.fetch(KeyFetch(audit_id=AUDIT_ID)))
    assert got == key
    witnesses = [
        i for i, replica in enumerate(group.replicas)
        if any(e.kind == "fetch" for e in replica.access_log)
    ]
    assert witnesses and not set(witnesses) & {2, 3}


# -- region partitions in the fleet ------------------------------------------

def test_fleet_region_partition_is_seed_deterministic():
    from repro.workloads.fleet import run_fleet

    topo = Topology.symmetric(regions=("us", "eu", "ap"),
                              replicas_per_region=2, threshold=3,
                              rtt_ms=60.0)
    plan = FaultPlan.region_partition("eu", at=3.0, duration=3.0)

    def run_once():
        result = run_fleet(devices=9, duration=9.0, seed=b"fed-test",
                           topology=topo, faults=plan)
        return result.fault_trace, result.summary()

    (trace, summary), (trace2, summary2) = run_once(), run_once()
    assert (trace, summary) == (trace2, summary2)
    assert [what for _, what in trace] == [
        "partition region:eu", "heal region:eu"]
    assert set(summary["per_region"]) == {"us", "eu", "ap"}


def test_fleet_rejects_topology_plus_replica_args():
    from repro.workloads.fleet import run_fleet

    with pytest.raises(ValueError, match="not both"):
        run_fleet(devices=2, duration=1.0, topology=TOPO, replicas=3)


# -- config surface ----------------------------------------------------------

def test_builder_federation_sets_replication_from_topology():
    config = (KeypadConfig.builder()
              .federation(regions=("us", "eu"), replicas_per_region=2,
                          k=2, rtt_ms=40.0)
              .build())
    assert config.federation.total_replicas == 4
    assert config.replicas == 4 and config.replica_threshold == 2
    # An invalid hand-built topology fails as ConfigError at the step.
    with pytest.raises(ConfigError):
        KeypadConfig.builder().federation(
            topology=Topology(regions=(Region("us"),), threshold=9))


def test_validate_config_catches_inconsistent_federation():
    from dataclasses import replace

    config = KeypadConfig.builder().federation(topology=TOPO).build()
    with pytest.raises(ConfigError, match="federation"):
        KeypadConfig.builder(replace(config, replicas=3)).build()


def test_federation_is_mount_frozen():
    epoch = PolicyEpoch(KeypadConfig())
    with pytest.raises(ConfigError, match="mount-frozen"):
        epoch.update(federation=TOPO)


# -- control plane -----------------------------------------------------------

def test_ctl_region_verbs_over_a_federated_rig():
    from repro.control.server import open_control

    config = KeypadConfig.builder().federation(topology=TOPO).build()
    rig = build_keypad_rig(network=LAN, config=config, home_region="ap")
    ctl = open_control(rig)

    def scenario():
        yield from rig.fs.mkdir("/home")
        yield from rig.fs.write_file("/home/a.txt", b"payload")
        yield rig.sim.timeout(6.0)  # let gossip settle and leases claim
        status = yield from ctl.region_status()
        report = yield from ctl.region_partition_report()
        return status, report

    status, report = rig.run(scenario())
    assert status["regions"]["ap"] == {"replicas": 2, "available": 2}
    assert set(status["members"]) == {f"key-replica-{i}" for i in range(6)}
    assert set(status["leaders"]) == {"0", "1", "2", "3"}
    assert report["split_count"] == 0
    assert report["convergence"]["converged"]


def test_ctl_region_verbs_refuse_flat_clusters():
    from repro.control.server import open_control

    config = KeypadConfig.builder().replication(2, 3).build()
    rig = build_keypad_rig(network=LAN, config=config)
    ctl = open_control(rig)

    def scenario():
        result = yield from ctl.region_status()
        return result

    with pytest.raises(ControlError, match="federated"):
        rig.run(scenario())


# -- CLI ---------------------------------------------------------------------

def test_cli_region_status_exit_codes():
    from repro.cli import main

    assert main(["ctl", "region-status"]) == 0
    assert main(["ctl", "region-status", "--crash-region", "eu"]) == 4


def test_cli_partition_report_detects_split_and_converges(capsys):
    from repro.cli import main

    assert main(["ctl", "partition-report", "--duration", "10"]) == 0
    out = capsys.readouterr().out
    assert "partition region:us" in out
    assert "witnessed only inside us" in out
    assert "converged" in out
