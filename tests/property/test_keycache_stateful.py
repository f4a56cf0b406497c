"""Stateful property test: the key cache against a reference model.

Hypothesis drives arbitrary interleavings of put/get/restrict/extend/
evict/advance-time and checks the cache against a simple timestamp
model:

* an entry is visible iff its modelled expiry is in the future,
* ``extend`` restores Texp from the put, never from now, and evicts an
  entry whose window has passed,
* secure erasure: evicted key material is zeroed,
* occupancy accounting never goes negative and matches the live count.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.sim import Simulation
from repro.core.keycache import KeyCache

IDS = [bytes([i]) * 24 for i in range(5)]


class KeyCacheMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulation()
        # No refresh function: expiry semantics are purely time-based,
        # which is what the model can mirror exactly.
        self.cache = KeyCache(self.sim, refresh_fn=None)
        self.model_expiry: dict[bytes, float] = {}
        self.model_vouched: dict[bytes, float] = {}

    ids = Bundle("ids")

    @rule(target=ids, index=st.integers(min_value=0, max_value=len(IDS) - 1))
    def pick_id(self, index):
        return IDS[index]

    @rule(audit_id=ids, texp=st.floats(min_value=0.5, max_value=50.0))
    def put(self, audit_id, texp):
        self.cache.put(audit_id, b"r" * 32, b"d" * 32, texp=texp)
        self.model_expiry[audit_id] = self.sim.now + texp
        self.model_vouched[audit_id] = self.sim.now

    @rule(audit_id=ids)
    def get(self, audit_id):
        entry = self.cache.get(audit_id)
        expected_alive = self.model_expiry.get(audit_id, 0.0) > self.sim.now
        assert (entry is not None) == expected_alive

    @rule(audit_id=ids, remaining=st.floats(min_value=0.1, max_value=10.0))
    def restrict(self, audit_id, remaining):
        self.cache.restrict(audit_id, remaining)
        if audit_id in self.model_expiry:
            self.model_expiry[audit_id] = min(
                self.model_expiry[audit_id], self.sim.now + remaining
            )

    @rule(audit_id=ids, texp=st.floats(min_value=0.5, max_value=50.0))
    def extend(self, audit_id, texp):
        present = self.cache.peek(audit_id) is not None
        self.cache.extend(audit_id, texp)
        # extend only affects entries still physically present (watchers
        # may not have purged an expired one yet).  The new life runs
        # from the put; an entry already past it is evicted, never
        # revived.
        if present:
            expiry = self.model_vouched[audit_id] + texp
            if expiry > self.sim.now:
                self.model_expiry[audit_id] = expiry
            else:
                self.model_expiry.pop(audit_id)
                assert self.cache.peek(audit_id) is None

    @rule(audit_id=ids)
    def evict(self, audit_id):
        entry = self.cache.peek(audit_id)
        self.cache.evict(audit_id)
        self.model_expiry.pop(audit_id, None)
        if entry is not None:
            assert entry.data_key == b"\x00" * 32  # securely erased

    @rule(dt=st.floats(min_value=0.1, max_value=30.0))
    def advance(self, dt):
        self.sim.run(until=self.sim.now + dt)

    @invariant()
    def snapshot_matches_model(self):
        visible = set(self.cache.snapshot())
        expected = {
            a for a, exp in self.model_expiry.items() if exp > self.sim.now
        }
        assert visible == expected

    @invariant()
    def occupancy_sane(self):
        assert self.cache.occupancy.current == len(self.cache._entries)
        assert self.cache.occupancy.peak >= self.cache.occupancy.current


TestKeyCacheStateful = KeyCacheMachine.TestCase
TestKeyCacheStateful.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
