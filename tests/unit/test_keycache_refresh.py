"""Key-cache refresh-lead semantics (the movie-playback guarantee)."""

import pytest

from repro.errors import NetworkUnavailableError
from repro.sim import Simulation
from repro.core.keycache import KeyCache


def _refresher(sim, rtt=0.3, log=None, fail=False):
    def refresh(audit_id):
        if log is not None:
            log.append((sim.now, audit_id))
        yield sim.timeout(rtt)
        if fail:
            raise NetworkUnavailableError("offline")
        return b"R" * 32

    return refresh


class TestRefreshLead:
    def test_in_use_key_never_misses(self):
        """Continuous use across many expirations: zero cache misses."""
        sim = Simulation()
        cache = KeyCache(sim, refresh_fn=_refresher(sim), refresh_lead=2.0)
        cache.put(b"id", b"r" * 32, b"d" * 32, texp=10.0)

        misses = []

        def reader():
            for _ in range(300):  # 60 s of 0.2 s frames, texp = 10 s
                entry = cache.get(b"id")
                if entry is None:
                    misses.append(sim.now)
                yield sim.timeout(0.2)

        sim.run_until(sim.process(reader()))
        assert misses == []
        assert cache.refreshes >= 4

    def test_refresh_starts_before_expiry(self):
        sim = Simulation()
        calls = []
        cache = KeyCache(sim, refresh_fn=_refresher(sim, log=calls),
                         refresh_lead=2.0)
        cache.put(b"id", b"r" * 32, b"d" * 32, texp=10.0)
        cache.get(b"id")  # mark used
        sim.run(until=9.0)
        assert calls and calls[0][0] == pytest.approx(8.0)  # texp - lead

    def test_unrefreshable_entry_expires_even_in_use(self):
        """In-flight (IBE-locked) keys must die on schedule."""
        sim = Simulation()
        cache = KeyCache(sim, refresh_fn=_refresher(sim), refresh_lead=2.0)
        cache.put(b"id", b"r" * 32, b"d" * 32, texp=1.0, refreshable=False)

        def reader():
            for _ in range(20):
                cache.get(b"id")
                yield sim.timeout(0.1)

        sim.run_until(sim.process(reader()))
        assert cache.refreshes == 0
        assert cache.get(b"id") is None

    def test_restrict_disables_refresh(self):
        sim = Simulation()
        cache = KeyCache(sim, refresh_fn=_refresher(sim))
        cache.put(b"id", b"r" * 32, b"d" * 32, texp=100.0)
        cache.get(b"id")
        cache.restrict(b"id", 1.0)
        sim.run(until=5.0)
        assert cache.refreshes == 0
        assert cache.get(b"id") is None

    def test_extend_reenables_refresh(self):
        sim = Simulation()
        cache = KeyCache(sim, refresh_fn=_refresher(sim))
        cache.put(b"id", b"r" * 32, b"d" * 32, texp=10.0, refreshable=False)
        cache.extend(b"id", 10.0)
        cache.get(b"id")
        sim.run(until=12.0)
        assert cache.refreshes == 1
        assert cache.get(b"id") is not None

    def test_refresh_failure_evicts(self):
        sim = Simulation()
        cache = KeyCache(sim, refresh_fn=_refresher(sim, fail=True))
        cache.put(b"id", b"r" * 32, b"d" * 32, texp=10.0)
        cache.get(b"id")
        sim.run(until=15.0)
        assert cache.get(b"id") is None

    def test_short_texp_uses_proportional_lead(self):
        """texp=1s must not trigger an immediate refresh loop."""
        sim = Simulation()
        calls = []
        cache = KeyCache(sim, refresh_fn=_refresher(sim, log=calls),
                         refresh_lead=2.0)
        cache.put(b"id", b"r" * 32, b"d" * 32, texp=1.0)
        cache.get(b"id")
        sim.run(until=0.9)
        # The lead is capped at texp/4: refresh no earlier than 0.75 s.
        assert all(t >= 0.74 for t, _ in calls)

    def test_unused_entry_still_evicted_at_expiry(self):
        sim = Simulation()
        cache = KeyCache(sim, refresh_fn=_refresher(sim), refresh_lead=2.0)
        cache.put(b"id", b"r" * 32, b"d" * 32, texp=10.0)
        sim.run(until=11.0)
        assert cache.get(b"id") is None
        assert cache.refreshes == 0
        assert cache.expirations == 1

    def test_use_during_lead_window_triggers_late_refresh(self):
        sim = Simulation()
        cache = KeyCache(sim, refresh_fn=_refresher(sim), refresh_lead=2.0)
        cache.put(b"id", b"r" * 32, b"d" * 32, texp=10.0)

        def late_reader():
            yield sim.timeout(9.0)  # after the early wake at t=8
            cache.get(b"id")

        sim.process(late_reader())
        sim.run(until=12.0)
        assert cache.refreshes == 1
        assert cache.get(b"id") is not None


class TestLifetimeStartsAtTheSend:
    """The service logs an access when the request arrives, which is
    after the device sent it; a lifetime counted from the reply would
    outlive ``Texp`` after the log entry by the reply's trip."""

    def test_put_counts_from_issued_at(self):
        sim = Simulation()
        cache = KeyCache(sim)
        sim.run(until=3.0)
        cache.put(b"id", b"r" * 32, b"d" * 32, texp=10.0, issued_at=2.7)
        assert cache.peek(b"id").expires_at == pytest.approx(12.7)
        sim.run(until=12.8)
        assert cache.get(b"id") is None

    def test_refreshed_entry_counts_from_the_refresh_send(self):
        sim = Simulation()
        calls = []
        cache = KeyCache(sim, refresh_fn=_refresher(sim, log=calls),
                         refresh_lead=2.0)
        cache.put(b"id", b"r" * 32, b"d" * 32, texp=10.0)
        cache.get(b"id")
        sim.run(until=9.0)
        assert calls[0][0] == pytest.approx(8.0)
        # Sent at 8.0, answered at 8.3: alive until 18.0, not 18.3.
        assert cache.peek(b"id").expires_at == pytest.approx(18.0)
