"""Fault injection is deterministic: same seed, same event traces."""

from __future__ import annotations

import pytest

from repro.cluster import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    ReplicaGroup,
    ReplicatedServiceSession,
)
from repro.core.client import KeyCreate, KeyFetch
from repro.core.services.metadataservice import MetadataService
from repro.errors import KeypadError
from repro.net.link import Link
from repro.sim import Simulation, SimRandom, SimulationError

AUDIT_ID = bytes(range(24))


def test_fault_event_validation_and_roundtrip():
    event = FaultEvent(4.0, "crash", "replica:1", duration=6.0)
    assert FaultEvent.from_dict(event.to_dict()) == event
    with pytest.raises(ValueError):
        FaultEvent(1.0, "meteor-strike", "replica:0")
    with pytest.raises(ValueError):
        FaultEvent(-1.0, "crash", "replica:0")


def test_plan_sorts_events_and_serializes():
    plan = FaultPlan([
        FaultEvent(9.0, "link-up", "link:a"),
        FaultEvent(2.0, "link-down", "link:a"),
    ])
    assert [e.at for e in plan] == [2.0, 9.0]
    assert FaultPlan.from_list(plan.to_list()).to_list() == plan.to_list()


def test_random_outages_are_seed_deterministic():
    def generate(seed):
        return FaultPlan.random_outages(
            SimRandom(seed, "fault-plan"), horizon=200.0, replica_count=3,
            link_names=["keys-r0", "keys-r1", "keys-r2"],
        )

    plan_a, plan_b = generate(42), generate(42)
    assert plan_a.to_list() == plan_b.to_list()
    assert len(plan_a) > 0
    assert generate(43).to_list() != plan_a.to_list()


def test_unknown_targets_are_rejected():
    sim = Simulation()
    injector = FaultInjector(sim, {})
    with pytest.raises(SimulationError):
        injector._apply(FaultEvent(0.0, "link-down", "link:nope"))
    with pytest.raises(SimulationError):
        injector._apply(FaultEvent(0.0, "crash", "replica:0"))


def _run_once(seed: int) -> tuple[list, list, list, int]:
    """A replicated client under a seeded random outage schedule.

    Returns (injector trace, per-link traces, completed-read times,
    failure count) — everything that could differ between runs.
    """
    sim = Simulation()
    group = ReplicaGroup(sim, 3, 2)
    links = [Link(sim, 0.03, name=f"keys-r{i}") for i in range(3)]
    services = ReplicatedServiceSession(
        sim, "laptop-1", b"device-secret-tests-0123", group, links,
        MetadataService(sim), Link(sim, 0.03, name="meta"),
        backoff=0.05, rng=SimRandom(seed, "cluster-client"),
    )
    plan = FaultPlan.random_outages(
        SimRandom(seed, "fault-plan"), horizon=60.0, replica_count=3,
        link_names=[link.name for link in links], rate=0.2,
    )
    injector = FaultInjector(
        sim, {link.name: link for link in links}, group,
        jitter_rng=SimRandom(seed, "fault-jitter"),
    )
    injector.run(plan)

    completed: list[float] = []
    failures = 0

    def workload():
        nonlocal failures
        yield from services.create(KeyCreate(audit_id=AUDIT_ID))
        for _ in range(12):
            yield sim.timeout(5.0)
            try:
                yield from services.fetch(KeyFetch(audit_id=AUDIT_ID))
            except KeypadError:
                failures += 1
            else:
                completed.append(sim.now)

    sim.run_process(workload())
    return injector.trace, [link.trace for link in links], completed, failures


def test_same_seed_runs_produce_identical_event_traces():
    first = _run_once(7)
    second = _run_once(7)
    assert first == second
    # The schedule actually exercised outage windows.
    assert len(first[0]) > 0
    assert any(trace for trace in first[1])


def test_different_seeds_diverge():
    assert _run_once(7)[0] != _run_once(8)[0]


def test_windowed_faults_revert_and_are_traced():
    sim = Simulation()
    group = ReplicaGroup(sim, 3, 2)
    link = Link(sim, 0.03, name="keys-r0")
    injector = FaultInjector(sim, {"keys-r0": link}, group)
    injector.run(FaultPlan([
        FaultEvent(1.0, "crash", "replica:1", duration=2.0),
        FaultEvent(1.5, "link-down", "link:keys-r0", duration=1.0),
        FaultEvent(2.0, "delay", "link:keys-r0", duration=1.0, value=0.5),
    ]))
    sim.run(until=10.0)
    assert group.replicas[1].server.available
    assert link.available
    assert link.rtt == pytest.approx(0.03)
    assert injector.trace == [
        (1.0, "crash replica:1"),
        (1.5, "down link:keys-r0"),
        (2.0, "delay link:keys-r0 +0.5"),
        (2.5, "up link:keys-r0"),
        (3.0, "recover replica:1"),
        (3.0, "delay link:keys-r0 -0.5"),
    ]
    assert [(t, e) for t, e in link.trace] == [(1.5, "down"), (2.5, "up")]
