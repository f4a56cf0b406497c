"""Stateful property test: the key cache against a reference model.

Hypothesis drives arbitrary interleavings of put/get/restrict/extend/
evict/advance-time and checks the cache against a simple timestamp
model:

* an entry is visible iff its modelled expiry is in the future,
* ``extend`` restores Texp from the put, never from now, and evicts an
  entry whose window has passed,
* secure erasure: evicted or expired key material is zeroed and no
  wrapped data key stays on the entry,
* a wrapped data key is opened once, by its first read, and
  ``snapshot()`` yields the true K_D without keeping it on the entry,
* occupancy accounting never goes negative and matches the live count.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.sim import Simulation
from repro.core import keycache as keycache_module
from repro.core.header import wrap_data_key
from repro.core.keycache import KeyCache
from repro.crypto.drbg import HmacDrbg

IDS = [bytes([i]) * 24 for i in range(5)]
ZERO = b"\x00" * 32


class KeyCacheMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulation()
        # No refresh function: expiry semantics are purely time-based,
        # which is what the model can mirror exactly.
        self.cache = KeyCache(self.sim, refresh_fn=None)
        self.model_expiry: dict[bytes, float] = {}
        self.model_vouched: dict[bytes, float] = {}
        # The true (K_R, K_D) of every put, and every entry object the
        # cache handed out (a re-put updates the same object).
        self.model_keys: dict[bytes, tuple[bytes, bytes]] = {}
        self.entries: dict[int, object] = {}
        self.drbg = HmacDrbg(b"keycache-stateful")

    ids = Bundle("ids")

    @rule(target=ids, index=st.integers(min_value=0, max_value=len(IDS) - 1))
    def pick_id(self, index):
        return IDS[index]

    @rule(audit_id=ids, texp=st.floats(min_value=0.5, max_value=50.0))
    def put(self, audit_id, texp):
        entry = self.cache.put(audit_id, b"r" * 32, b"d" * 32, texp=texp)
        self._model_put(entry, (b"r" * 32, b"d" * 32), texp)

    @rule(audit_id=ids, texp=st.floats(min_value=0.5, max_value=50.0),
          remote_key=st.binary(min_size=32, max_size=32),
          data_key=st.binary(min_size=32, max_size=32))
    def wrapped_put(self, audit_id, texp, remote_key, data_key):
        """A prefetched key: K_R plus the header's E_K_R(K_D)."""
        wrapped = wrap_data_key(data_key, remote_key, self.drbg)
        entry = self.cache.put(audit_id, remote_key, wrapped_kd=wrapped,
                               texp=texp)
        assert entry.wrapped_kd == wrapped and entry.opened_kd == b""
        self._model_put(entry, (remote_key, data_key), texp)

    def _model_put(self, entry, keys, texp):
        self.entries[id(entry)] = entry
        self.model_keys[entry.audit_id] = keys
        self.model_expiry[entry.audit_id] = self.sim.now + texp
        self.model_vouched[entry.audit_id] = self.sim.now

    @rule(audit_id=ids)
    def read_twice(self, audit_id):
        """K_D reads: the first opens a wrapped key, later ones reuse it."""
        entry = self.cache.get(audit_id)
        if entry is None:
            return
        opens = [0]
        real = keycache_module.unwrap_data_key

        def counting(*args, **kwargs):
            opens[0] += 1
            return real(*args, **kwargs)

        was_wrapped = entry.wrapped_kd is not None
        with mock.patch.object(keycache_module, "unwrap_data_key", counting):
            first, second = entry.data_key, entry.data_key
        assert first == second == self.model_keys[audit_id][1]
        assert opens[0] == (1 if was_wrapped else 0)
        assert entry.wrapped_kd is None

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
            self._assert_erased(entry)

    @staticmethod
    def _assert_erased(entry):
        assert entry.remote_key == ZERO
        assert entry.opened_kd == ZERO and entry.data_key == ZERO
        assert entry.wrapped_kd is None

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
    def snapshot_holds_true_keys(self):
        still_wrapped = {a for a, e in self.cache._entries.items()
                         if e.wrapped_kd is not None}
        snapshot = self.cache.snapshot()
        for audit_id, keys in snapshot.items():
            assert keys == self.model_keys[audit_id]
        # The snapshot opened nothing onto the entries.
        assert still_wrapped == {a for a, e in self.cache._entries.items()
                                 if e.wrapped_kd is not None}
        for audit_id in still_wrapped:
            assert self.cache._entries[audit_id].opened_kd == b""

    @invariant()
    def gone_entries_erased(self):
        """Evicted or expired: K_R and K_D zeroed, no wrapped blob."""
        live = {id(e) for e in self.cache._entries.values()}
        for key, entry in self.entries.items():
            if key not in live:
                self._assert_erased(entry)

    @invariant()
    def occupancy_sane(self):
        assert self.cache.occupancy.current == len(self.cache._entries)
        assert self.cache.occupancy.peak >= self.cache.occupancy.current


TestKeyCacheStateful = KeyCacheMachine.TestCase
TestKeyCacheStateful.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
