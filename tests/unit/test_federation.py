"""Multi-region federation: topology, geo-routing, region partitions,
and the config/control surface — plus the one-region topology that is
the flat k-of-m cluster."""

from __future__ import annotations

import pytest

from repro.cluster import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    Region,
    ReplicaGroup,
    ReplicatedKeyClient,
    ReplicatedServiceSession,
    Topology,
)
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
#: k=2, 60 ms between regions.
TOPO = Topology.symmetric(
    regions=("us", "eu", "ap"), replicas_per_region=2, threshold=2,
    rtt_ms=60.0,
)


def _sleep(sim, seconds):
    yield sim.timeout(seconds)


def _federation(topo=TOPO, home="eu", **session_knobs):
    sim = Simulation()
    group = ReplicaGroup(sim, topo)
    links = group.device_links(LAN, home, "keys")
    services = ReplicatedServiceSession(
        sim, "laptop", SECRET, group, links,
        MetadataService(sim), Link(sim, LAN.rtt, name="meta"),
        home_region=home, **session_knobs,
    )
    return sim, group, services


# -- Topology ----------------------------------------------------------------

def test_topology_validates_shape():
    # A topology checks itself once, at construction.
    with pytest.raises(ConfigError):
        Topology(regions=(), threshold=1)
    with pytest.raises(ValueError):
        Topology.symmetric(regions=("us", "us"))
    with pytest.raises(ValueError):
        Topology.symmetric(regions=("us", "eu"), replicas_per_region=2,
                           threshold=5)
    with pytest.raises(ValueError):  # non-square matrix
        Topology(regions=(Region("us"), Region("eu")), threshold=2,
                 rtt_ms=((0.0,),))
    with pytest.raises(ValueError):  # asymmetric
        Topology(regions=(Region("us"), Region("eu")), threshold=2,
                 rtt_ms=((0.0, 10.0), (20.0, 0.0)))
    with pytest.raises(ValueError):  # non-zero diagonal
        Topology(regions=(Region("us"), Region("eu")), threshold=2,
                 rtt_ms=((1.0, 10.0), (10.0, 0.0)))
    assert TOPO.multi_region  # the shared shape is well-formed


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
    # Hashable, so it can ride inside the frozen KeypadConfig.
    twin = Topology.symmetric(regions=("us", "eu", "ap"),
                              replicas_per_region=2, threshold=2,
                              rtt_ms=60.0)
    assert twin == TOPO and hash(twin) == hash(TOPO)


def test_region_labels_and_device_link_rtts():
    sim = Simulation()
    group = ReplicaGroup(sim, TOPO)
    assert group.region_labels == ["us", "us", "eu", "eu", "ap", "ap"]
    links = group.device_links(WLAN, "eu", "dev")
    assert [link.name for link in links] == [f"dev-r{j}" for j in range(6)]
    rtts = [round(link.rtt, 4) for link in links]
    assert rtts == [0.062, 0.062, 0.002, 0.002, 0.062, 0.062]


# -- geo-routing -------------------------------------------------------------

def test_geo_routing_fetches_from_home_region():
    sim, group, services = _federation(home="eu")
    assert services.cluster.home_region == "eu"
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
    topo = Topology.symmetric(regions=("us", "eu"), replicas_per_region=2,
                              threshold=2, rtt_ms=40.0)
    config = KeypadConfig.builder().federation(topology=topo).build()
    assert config.cluster is topo
    built = (KeypadConfig.builder()
             .federation(regions=("us", "eu"), replicas_per_region=2,
                         k=2, rtt_ms=40.0)
             .build())
    assert built.cluster == topo
    # An invalid hand-built topology fails as ConfigError at the step.
    with pytest.raises(ConfigError):
        KeypadConfig.builder().federation(
            topology=Topology(regions=(Region("us"),), threshold=9))


def test_federation_is_mount_frozen():
    epoch = PolicyEpoch(KeypadConfig())
    with pytest.raises(ConfigError, match="mount-frozen"):
        epoch.update(cluster=TOPO)


# -- control plane -----------------------------------------------------------

def test_ctl_region_verbs_over_a_federated_rig():
    from repro.control.server import open_control

    config = KeypadConfig.builder().federation(topology=TOPO).build()
    rig = build_keypad_rig(network=LAN, config=config, home_region="ap")
    ctl = open_control(rig)

    def scenario():
        yield from rig.fs.mkdir("/home")
        yield from rig.fs.write_file("/home/a.txt", b"payload")
        yield rig.sim.timeout(6.0)
        status = yield from ctl.region_status()
        report = yield from ctl.region_partition_report()
        return status, report

    status, report = rig.run(scenario())
    assert status["regions"]["ap"] == {"replicas": 2, "available": 2}
    assert report["split_count"] == 0
    assert report["convergence"]["converged"]


def _delay_first_choice(sim, links, index, seconds=0.5):
    """Delay one replica link by ``seconds`` through a fault plan."""
    injector = FaultInjector(sim, {link.name: link for link in links})
    injector.run(FaultPlan([FaultEvent(
        0.0, "delay", f"link:{links[index].name}", duration=60.0,
        value=seconds)]))
    sim.run_process(_sleep(sim, 1.0))
    assert injector.trace == [(0.0, f"delay link:{links[index].name} "
                                    f"+{seconds:g}")]


def test_one_region_topology_is_the_flat_cluster():
    config = KeypadConfig.builder().replication(2, 3).build()
    assert not config.cluster.multi_region
    rig = build_keypad_rig(network=LAN, config=config)
    group = rig.replica_group
    # No region labels: the flat cluster.
    assert group.region_labels is None
    assert rig.services.cluster.home_region is None
    # Device links match NetEnv.make_link's, name and RTT.
    assert [link.name for link in rig.replica_links] == [
        f"LAN-keys-r{j}" for j in range(3)]
    assert all(link.rtt == LAN.rtt for link in rig.replica_links)

    # A delayed replica 0 is still asked first: index order, not RTT.
    _delay_first_choice(rig.sim, rig.replica_links, 0)
    assert rig.replica_links[0].rtt > rig.replica_links[1].rtt
    assert [ep.index for ep in rig.services.cluster._ranked()] == [0, 1, 2]

    # The same delay on a three-region client homed in eu: RTT order.
    sim, _group, services = _federation(home="eu")
    _delay_first_choice(
        sim, [ep.link for ep in services.cluster.endpoints], 2)
    assert [ep.index for ep in services.cluster._ranked()] == [
        3, 0, 1, 4, 5, 2]


def test_flat_fleet_has_no_regions():
    from repro.workloads.fleet import run_fleet

    result = run_fleet(devices=6, duration=2.0, seed=b"flat",
                       replicas=3, threshold=2)
    assert {stat.region for stat in result.stats} == {""}
    summary = result.summary()
    assert summary["completed"] > 0
    assert "per_region" not in summary


def test_replica_client_rejects_unknown_home_region():
    sim = Simulation()
    group = ReplicaGroup(sim, TOPO)
    links = group.device_links(LAN, None, "dev")
    with pytest.raises(ValueError, match="mars"):
        ReplicatedKeyClient(sim, "dev", SECRET, group, links,
                            home_region="mars")


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
