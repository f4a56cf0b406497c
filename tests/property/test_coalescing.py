"""Property: single-flight coalescing keeps audit granularity honest.

When N sim processes miss on the same audit ID concurrently, the
session sends one RPC and the rest join it.  The audited behaviour must
be indistinguishable from one access: exactly one key-service log entry
per concurrency window, and every joiner receives identical key bytes
(no joiner ever gets a key without a fresh in-window log entry).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    KeypadConfig,
    KeyService,
    MetadataService,
    ServiceSession,
    THREE_G,
    Link,
)
from repro.core.client import KeyCreate, KeyFetch
from repro.harness import build_keypad_rig
from repro.sim import Simulation

AUDIT_ID = b"\x42" * 24


def _session(rtt: float) -> tuple[Simulation, KeyService, ServiceSession]:
    sim = Simulation()
    key_service = KeyService(sim)
    metadata_service = MetadataService(sim)
    session = ServiceSession(
        sim, "laptop-1", b"secret" * 6, key_service, metadata_service,
        Link(sim, rtt=rtt), Link(sim, rtt=rtt),
        fast_transport=True,
    )
    return sim, key_service, session


@given(
    n_readers=st.integers(min_value=2, max_value=12),
    rounds=st.integers(min_value=1, max_value=3),
    rtt=st.sampled_from([0.0015, 0.025, 0.3]),
)
@settings(max_examples=40, deadline=None)
def test_concurrent_fetches_log_exactly_once_per_window(
    n_readers, rounds, rtt
):
    sim, key_service, session = _session(rtt)

    def setup():
        yield from session.create(KeyCreate(AUDIT_ID))
        return None

    sim.run_process(setup())

    for _ in range(rounds):
        keys: list[bytes] = []

        def reader():
            key = yield from session.fetch(KeyFetch(AUDIT_ID))
            keys.append(key)
            return None

        def burst():
            procs = [sim.process(reader()) for _ in range(n_readers)]
            yield sim.all_of(procs)
            return None

        before = len(key_service.access_log.entries(kind="fetch"))
        sim.run_process(burst())
        after = len(key_service.access_log.entries(kind="fetch"))

        # One wire fetch — hence one audit record — per burst...
        assert after - before == 1
        # ...and every concurrent reader got the same key bytes.
        assert len(keys) == n_readers
        assert len(set(keys)) == 1
    assert key_service.access_log.verify_chain()


def test_fs_level_concurrent_reads_share_one_audit_entry():
    """The fast transport: 8 processes re-reading an expired file
    produce 8 blocking key fetches at the FS layer but one RPC (and one
    log entry) on the wire, with identical plaintext for every reader."""
    config = (KeypadConfig.builder().texp(50.0).prefetch("none")
              .ibe(False).fast_transport().build())
    rig = build_keypad_rig(network=THREE_G, config=config, n_blocks=1 << 14)
    path = "/home/doc"

    def setup():
        yield from rig.fs.mkdir("/home")
        yield from rig.fs.create(path)
        yield from rig.fs.write(path, 0, b"secret data")
        yield rig.sim.timeout(200.0)  # the cached key expires
        return None

    rig.run(setup())
    audit_id = rig.run(rig.fs.audit_id_of(path))
    fetches_before = rig.fs.stats["blocking_key_fetches"]

    def entries_for(aid):
        return [
            e for e in rig.key_service.access_log.entries(kind="fetch")
            if e.fields.get("audit_id") == aid
        ]

    log_before = len(entries_for(audit_id))
    datas: list[bytes] = []

    def reader():
        data = yield from rig.fs.read(path, 0, 6)
        datas.append(data)
        return None

    def burst():
        procs = [rig.sim.process(reader()) for _ in range(8)]
        yield rig.sim.all_of(procs)
        return None

    rig.run(burst())
    assert datas == [b"secret"] * 8
    assert rig.fs.stats["blocking_key_fetches"] - fetches_before == 8
    assert len(entries_for(audit_id)) - log_before == 1
    assert rig.key_service.access_log.verify_chain()
