"""The calendar scheduler is trace-equivalent to the heap oracle.

Random fleets of interacting processes — timeouts, bare-delay sleeps,
shared events, a queue, child joins, cross-process interrupts — run once
on the calendar queue ``Simulation`` builds and once with the heap
oracle patched in for it.  The full observable trace (resume times,
delivered values, interrupt causes, final process outcomes) must match
exactly: same floats, same order.

Delay pools deliberately include duplicates (same-instant FIFO ties),
zeros (the now-deque fast path), sub-microsecond values, and far-future
magnitudes (the far heap + wheel rebase), so the structural edge cases
of the calendar queue all get traffic.
"""

import contextlib
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Interrupt, Simulation, kernel
from tests.sim_oracle import HeapScheduler


def _simulation(scheduler: str, direct: bool = True) -> Simulation:
    """A Simulation on the calendar queue, or on the heap oracle.

    ``direct=False`` reports every instant as busy to the kernel's
    "anything else due now" check, so every bare sleep re-queues its
    resume instead of running it directly."""
    with contextlib.ExitStack() as stack:
        if scheduler == "heap":
            stack.enter_context(mock.patch.object(
                kernel, "_CalendarScheduler", HeapScheduler))
        if not direct:
            stack.enter_context(mock.patch.object(
                kernel._CalendarScheduler, "busy_at", _always_busy))
            stack.enter_context(mock.patch.object(
                HeapScheduler, "busy_at", _always_busy))
        return Simulation()


def _always_busy(_scheduler, _t: float) -> bool:
    return True


# Duplicates force (time, seq) ties; the spread forces bucket reuse,
# far-heap promotion, and wheel rebase.
_DELAYS = st.sampled_from(
    [0.0, 0.0, 1e-6, 0.001, 0.25, 0.5, 1.0, 1.0, 3.7, 100.0, 1e5]
)
_N_EVENTS = 3
_MAX_PROCS = 4

_OP = st.one_of(
    st.tuples(st.just("timeout"), _DELAYS),
    st.tuples(st.just("bare"), _DELAYS),
    st.tuples(st.just("set"), st.integers(0, _N_EVENTS - 1),
              st.integers(0, 5)),
    st.tuples(st.just("wait"), st.integers(0, _N_EVENTS - 1)),
    st.tuples(st.just("put"), st.integers(0, 5)),
    st.tuples(st.just("get")),
    st.tuples(st.just("join"), _DELAYS),
    st.tuples(st.just("interrupt"), st.integers(0, _MAX_PROCS - 1)),
)

_SCRIPTS = st.lists(
    st.lists(_OP, min_size=1, max_size=6),
    min_size=1, max_size=_MAX_PROCS,
)


def _run_world(scheduler: str, scripts,
               direct: bool = True) -> tuple[list, list]:
    sim = _simulation(scheduler, direct)
    trace: list = []
    events = [sim.event() for _ in range(_N_EVENTS)]
    queue = sim.queue()
    procs: list = []

    def body(pid: int, script):
        for i, op in enumerate(script):
            tag = op[0]
            try:
                if tag == "timeout":
                    yield sim.timeout(op[1])
                elif tag == "bare":
                    yield op[1]
                elif tag == "set":
                    if not events[op[1]].triggered:
                        events[op[1]].succeed(op[2])
                elif tag == "wait":
                    value = yield events[op[1]]
                    trace.append(("got", pid, i, value, sim.now))
                elif tag == "put":
                    queue.put(op[1])
                elif tag == "get":
                    value = yield queue.get()
                    trace.append(("item", pid, i, value, sim.now))
                elif tag == "join":
                    def child(delay=op[1]):
                        yield sim.timeout(delay)
                        return delay

                    value = yield sim.process(child())
                    trace.append(("join", pid, i, value, sim.now))
                elif tag == "interrupt":
                    target = op[1]
                    if target < len(procs):
                        procs[target].interrupt(("by", pid, i))
            except Interrupt as exc:
                trace.append(("intr", pid, i, exc.cause, sim.now))
                continue
            trace.append(("step", pid, i, sim.now))
        return ("done", pid)

    for pid, script in enumerate(scripts):
        procs.append(sim.process(body(pid, script), name=f"p{pid}"))
    sim.run()
    final = [(p.triggered, p.ok, repr(p.value) if p.triggered else None)
             for p in procs]
    return trace, final


@settings(max_examples=80, deadline=None)
@given(scripts=_SCRIPTS)
def test_calendar_matches_heap_trace(scripts):
    heap_trace, heap_final = _run_world("heap", scripts)
    cal_trace, cal_final = _run_world("calendar", scripts)
    assert cal_trace == heap_trace
    assert cal_final == heap_final


def test_heap_oracle_is_patched_in():
    assert type(_simulation("heap")._q) is HeapScheduler
    assert type(_simulation("calendar")._q) is kernel._CalendarScheduler


@settings(max_examples=30, deadline=None)
@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
        min_size=1, max_size=60,
    )
)
def test_calendar_pops_arbitrary_float_delays_in_order(delays):
    """Pure scheduling: arbitrary float delays come back time-sorted and
    FIFO within ties, matching the heap exactly."""
    def fire_order(scheduler: str) -> list:
        sim = _simulation(scheduler)
        out: list = []

        def waiter(k: int, d: float):
            yield sim.timeout(d)
            out.append((sim.now, k))

        for k, d in enumerate(delays):
            sim.process(waiter(k, d))
        sim.run()
        return out

    assert fire_order("calendar") == fire_order("heap")
