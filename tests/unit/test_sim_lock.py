"""Tests for the cooperative Lock and Semaphore primitives."""

import pytest

from repro.sim import Lock, Semaphore, Simulation, SimulationError


def test_uncontended_acquire_is_immediate():
    sim = Simulation()
    lock = Lock(sim)

    def proc():
        yield from lock.acquire()
        acquired_at = sim.now
        lock.release()
        return acquired_at

    assert sim.run_process(proc()) == 0.0
    assert not lock.locked


def test_mutual_exclusion():
    sim = Simulation()
    lock = Lock(sim)
    inside = []

    def worker(tag, hold):
        yield from lock.acquire()
        try:
            inside.append(tag)
            assert len(inside) == 1, "two holders inside the lock"
            yield sim.timeout(hold)
        finally:
            inside.remove(tag)
            lock.release()

    for i in range(5):
        sim.process(worker(i, 1.0))
    sim.run()
    assert inside == []
    assert sim.now == pytest.approx(5.0)  # fully serialized


def test_fifo_ordering():
    sim = Simulation()
    lock = Lock(sim)
    order = []

    def worker(tag):
        yield from lock.acquire()
        order.append(tag)
        yield sim.timeout(1.0)
        lock.release()

    for tag in "abcd":
        sim.process(worker(tag))
    sim.run()
    assert order == ["a", "b", "c", "d"]


def test_release_unheld_rejected():
    sim = Simulation()
    lock = Lock(sim)
    with pytest.raises(SimulationError):
        lock.release()


def test_handoff_keeps_lock_held():
    sim = Simulation()
    lock = Lock(sim)
    states = []

    def first():
        yield from lock.acquire()
        yield sim.timeout(1.0)
        lock.release()
        states.append(("after-first-release", lock.locked))

    def second():
        yield from lock.acquire()
        states.append(("second-acquired", lock.locked))
        lock.release()

    sim.process(first())
    sim.process(second())
    sim.run()
    # Ownership passed directly: the lock never appeared free between
    # the two holders.
    assert ("after-first-release", True) in states
    assert ("second-acquired", True) in states
    assert not lock.locked


def _abandoned_waiter_world(sim, primitive, kill_at):
    """A holder keeps ``primitive`` for 1 s; a waiter queued behind it is
    interrupted at ``kill_at``; a late acquirer arrives at 0.7 s.
    Returns the list the late acquirer appends to once it gets in."""
    got_in = []

    def killer():
        yield sim.timeout(kill_at)
        doomed.interrupt("gone")

    def holder():
        yield from primitive.acquire()
        yield sim.timeout(1.0)
        primitive.release()

    def waiter():
        yield from primitive.acquire()
        got_in.append("doomed")
        primitive.release()

    def late():
        yield sim.timeout(0.7)
        yield from primitive.acquire()
        got_in.append(sim.now)
        primitive.release()

    # The killer starts first so that, at kill_at == 1.0, its interrupt
    # is issued before the holder's release at the same instant.
    sim.process(killer())
    sim.process(holder())
    doomed = sim.process(waiter())
    sim.process(late())
    sim.run()
    return got_in


@pytest.mark.parametrize("kill_at", [0.5, 1.0])
def test_interrupted_waiter_does_not_keep_the_lock(kill_at):
    sim = Simulation()
    lock = Lock(sim)
    assert _abandoned_waiter_world(sim, lock, kill_at) == [1.0]
    assert not lock.locked


@pytest.mark.parametrize("kill_at", [0.5, 1.0])
def test_interrupted_waiter_does_not_keep_the_semaphore_slot(kill_at):
    sim = Simulation()
    sem = Semaphore(sim, capacity=1)
    assert _abandoned_waiter_world(sim, sem, kill_at) == [1.0]
    assert sem.in_use == 0
    assert sem.waiting == 0
