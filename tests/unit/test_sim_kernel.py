"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import Interrupt, Simulation, SimulationError


def test_timeout_advances_clock():
    sim = Simulation()

    def proc():
        yield sim.timeout(1.5)
        return sim.now

    assert sim.run_process(proc()) == pytest.approx(1.5)


def test_timeouts_fire_in_order():
    sim = Simulation()
    fired = []

    def waiter(delay, tag):
        yield sim.timeout(delay)
        fired.append((sim.now, tag))

    sim.process(waiter(3.0, "c"))
    sim.process(waiter(1.0, "a"))
    sim.process(waiter(2.0, "b"))
    sim.run()
    assert fired == [(1.0, "a"), (2.0, "b"), (3.0, "c")]


def test_same_time_events_fifo():
    sim = Simulation()
    fired = []

    def waiter(tag):
        yield sim.timeout(1.0)
        fired.append(tag)

    for tag in "abcd":
        sim.process(waiter(tag))
    sim.run()
    assert fired == ["a", "b", "c", "d"]


def test_negative_timeout_rejected():
    sim = Simulation()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_event_succeed_delivers_value():
    sim = Simulation()
    ev = sim.event()

    def setter():
        yield sim.timeout(2.0)
        ev.succeed("payload")

    def getter():
        value = yield ev
        return (sim.now, value)

    sim.process(setter())
    assert sim.run_process(getter()) == (2.0, "payload")


def test_event_fail_raises_in_waiter():
    sim = Simulation()
    ev = sim.event()

    def setter():
        yield sim.timeout(1.0)
        ev.fail(ValueError("boom"))

    def getter():
        try:
            yield ev
        except ValueError as exc:
            return str(exc)

    sim.process(setter())
    assert sim.run_process(getter()) == "boom"


def test_event_double_trigger_rejected():
    sim = Simulation()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_yield_already_triggered_event():
    sim = Simulation()
    ev = sim.event().succeed("early")

    def getter():
        value = yield ev
        return value

    assert sim.run_process(getter()) == "early"


def test_process_join_returns_value():
    sim = Simulation()

    def child():
        yield sim.timeout(5.0)
        return 42

    def parent():
        value = yield sim.process(child())
        return (sim.now, value)

    assert sim.run_process(parent()) == (5.0, 42)


def test_process_join_propagates_exception():
    sim = Simulation()

    def child():
        yield sim.timeout(1.0)
        raise RuntimeError("child died")

    def parent():
        with pytest.raises(RuntimeError, match="child died"):
            yield sim.process(child())
        return "handled"

    assert sim.run_process(parent()) == "handled"


def test_unhandled_process_exception_surfaces_from_run():
    sim = Simulation()

    def crasher():
        yield sim.timeout(1.0)
        raise RuntimeError("unhandled")

    sim.process(crasher())
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_yielding_non_waitable_is_an_error():
    sim = Simulation()

    def bad():
        yield "nope"

    with pytest.raises(SimulationError):
        sim.run_process(bad())


def test_yielding_negative_delay_is_an_error():
    sim = Simulation()

    def bad():
        yield -1.0

    with pytest.raises(SimulationError):
        sim.run_process(bad())


def test_bare_delay_sleep_matches_timeout():
    """`yield d` sleeps exactly like `yield sim.timeout(d)`."""
    sim = Simulation()
    trace = []

    def sleeper(delay, label):
        yield delay
        trace.append((label, sim.now))
        yield sim.timeout(delay)
        trace.append((label + "'", sim.now))

    sim.process(sleeper(1.0, "a"))
    sim.process(sleeper(0.5, "b"))
    sim.process(sleeper(0.0, "c"))
    sim.run()
    # At t=1.0 "a"'s wakeup (scheduled at t=0) precedes "b'"'s
    # (scheduled at t=0.5) — the same-instant FIFO rule, exactly as if
    # both had used sim.timeout().
    assert trace == [("c", 0.0), ("c'", 0.0), ("b", 0.5), ("a", 1.0),
                     ("b'", 1.0), ("a'", 2.0)]


def test_interrupt_cancels_bare_delay_sleep():
    sim = Simulation()

    def sleeper():
        try:
            yield 100.0
        except Interrupt as exc:
            # Sleep again after the interrupt: the stale wakeup from the
            # first sleep must not resume us early.
            yield 5.0
            return ("interrupted", sim.now, exc.cause)

    proc = sim.process(sleeper())

    def interrupter():
        yield 3.0
        proc.interrupt("now")

    sim.process(interrupter())
    sim.run()
    assert proc.value == ("interrupted", 8.0, "now")


def test_interrupt_wakes_sleeping_process():
    sim = Simulation()

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt as exc:
            return ("interrupted", sim.now, exc.cause)

    def interrupter(target):
        yield sim.timeout(3.0)
        target.interrupt("theft")

    target = sim.process(sleeper())
    sim.process(interrupter(target))
    assert sim.run_until(target) == ("interrupted", 3.0, "theft")


def test_uncaught_interrupt_terminates_quietly():
    sim = Simulation()

    def sleeper():
        yield sim.timeout(100.0)

    target = sim.process(sleeper())

    def interrupter():
        yield sim.timeout(1.0)
        target.interrupt()

    sim.process(interrupter())
    sim.run()
    assert target.triggered and not target.ok


def test_interrupt_after_completion_is_noop():
    sim = Simulation()

    def quick():
        yield sim.timeout(1.0)
        return "done"

    proc = sim.process(quick())
    sim.run()
    proc.interrupt()  # must not raise
    assert proc.value == "done"


def test_queue_fifo_and_blocking():
    sim = Simulation()
    q = sim.queue()
    got = []

    def consumer():
        for _ in range(3):
            item = yield q.get()
            got.append((sim.now, item))

    def producer():
        q.put("x")  # consumer not yet waiting at t=0? it is; either way FIFO
        yield sim.timeout(2.0)
        q.put("y")
        yield sim.timeout(2.0)
        q.put("z")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert [item for _, item in got] == ["x", "y", "z"]
    assert got[-1][0] == 4.0


def test_all_of_collects_values():
    sim = Simulation()

    def child(delay, value):
        yield sim.timeout(delay)
        return value

    def parent():
        procs = [sim.process(child(d, d * 10)) for d in (3.0, 1.0, 2.0)]
        values = yield sim.all_of(procs)
        return (sim.now, values)

    assert sim.run_process(parent()) == (3.0, [30.0, 10.0, 20.0])


def test_all_of_empty():
    sim = Simulation()

    def parent():
        values = yield sim.all_of([])
        return values

    assert sim.run_process(parent()) == []


def test_run_until_deadlock_detected():
    sim = Simulation()
    ev = sim.event()

    def getter():
        yield ev

    proc = sim.process(getter())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until(proc)


def test_run_with_until_stops_clock():
    sim = Simulation()

    def ticker():
        while True:
            yield sim.timeout(10.0)

    sim.process(ticker())
    assert sim.run(until=35.0) == 35.0
    assert sim.now == 35.0


def test_nested_processes_compose():
    sim = Simulation()

    def leaf(n):
        yield sim.timeout(1.0)
        return n * 2

    def mid(n):
        value = yield sim.process(leaf(n))
        return value + 1

    def top():
        a = yield sim.process(mid(5))
        b = yield sim.process(mid(a))
        return b

    assert sim.run_process(top()) == 23


def test_any_of_returns_first_winner_index_and_value():
    sim = Simulation()

    def racer():
        winner = yield sim.any_of(
            [sim.timeout(5.0, value="slow"), sim.timeout(1.0, value="fast")]
        )
        return winner

    assert sim.run_process(racer()) == (1, "fast")
    assert sim.now == pytest.approx(1.0)


def test_any_of_with_processes_discards_the_loser():
    sim = Simulation()
    finished = []

    def worker(delay, tag):
        yield sim.timeout(delay)
        finished.append(tag)
        return tag

    def racer():
        procs = [sim.process(worker(2.0, "a")), sim.process(worker(1.0, "b"))]
        index, value = yield sim.any_of(procs)
        return index, value

    proc = sim.run_process(racer())
    assert proc == (1, "b")
    sim.run()  # the loser keeps running to completion
    assert finished == ["b", "a"]


def test_any_of_first_failure_wins():
    sim = Simulation()

    def failing():
        yield sim.timeout(0.5)
        raise ValueError("boom")

    def racer():
        yield sim.any_of([sim.timeout(10.0), sim.process(failing())])

    with pytest.raises(ValueError, match="boom"):
        sim.run_process(racer())
    assert sim.now == pytest.approx(0.5)


def test_any_of_rejects_empty_input():
    sim = Simulation()
    with pytest.raises(SimulationError):
        sim.any_of([])


def test_any_of_loser_can_be_interrupted():
    sim = Simulation()
    state = {}

    def slow():
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            state["interrupted_at"] = sim.now
            return "stopped"

    def racer():
        proc = sim.process(slow())
        index, _value = yield sim.any_of([proc, sim.timeout(1.0)])
        if index == 1:
            proc.interrupt("deadline")
        return index

    assert sim.run_process(racer()) == 1
    sim.run()
    assert state["interrupted_at"] == pytest.approx(1.0)
