"""A bare sleep that resumes its process directly is invisible.

When a ``yield d`` sleep fires and nothing else is due at that instant,
the kernel runs the process's resume on the spot instead of queueing it
at the tail of the now-queue: the queued resume would have been the
very next entry popped.  The random worlds of
``test_kernel_equivalence.py`` run twice on each scheduler — with the
"anything else due now" check as it is, and with it forced to say
"busy" (every sleep re-queues its resume, as the kernel used to) — and
the full traces must match.  A check that missed the now-queue or the
wheel would reorder same-instant wakeups; the targeted case pins one.
"""

import pytest
from hypothesis import given, settings

from tests.property.test_kernel_equivalence import (
    _SCRIPTS,
    _run_world,
    _simulation,
)

_SCHEDULERS = ("calendar", "heap")


@settings(max_examples=80, deadline=None)
@given(scripts=_SCRIPTS)
def test_direct_resume_matches_requeued_resume(scripts):
    for scheduler in _SCHEDULERS:
        assert _run_world(scheduler, scripts, direct=True) == \
            _run_world(scheduler, scripts, direct=False)


def _same_instant_order(scheduler: str, direct: bool, timer: bool) -> list:
    """Two processes sleep to t=1; the first then sets an event whose
    listener wakes with a zero-delay resume, after the second sleeper.
    With ``timer``, a timeout queued before the sleeps also fires at t=1
    and its waiter's zero-delay resume must come before both."""
    sim = _simulation(scheduler, direct)
    order: list = []
    event = sim.event()

    def waiter():
        value = yield sim.timeout(1.0, "timer")
        order.append((value, sim.now))

    def sleeper(name: str):
        yield 1.0
        order.append((name, sim.now))
        if not event.triggered:
            event.succeed("set")

    def listener():
        value = yield event
        order.append((value, sim.now))

    if timer:
        sim.process(waiter())
    sim.process(sleeper("first"))
    sim.process(sleeper("second"))
    sim.process(listener())
    sim.run()
    return order


@pytest.mark.parametrize("timer", (True, False))
@pytest.mark.parametrize("scheduler", _SCHEDULERS)
def test_same_instant_sleepers_keep_fifo_order(scheduler, timer):
    expected = [("first", 1.0), ("second", 1.0), ("set", 1.0)]
    if timer:
        expected.insert(0, ("timer", 1.0))
    assert _same_instant_order(scheduler, False, timer) == expected
    assert _same_instant_order(scheduler, True, timer) == expected
