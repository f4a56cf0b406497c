"""Tests for the pipelined transport: versioned envelopes, request-ID
framing, the hello handshake, coalescing, write-behind, and sharding."""

import pytest

from repro.core.context import OpContext
from repro.errors import DeadlineExpiredError, RpcError
from repro.api import Link, KeyService, MetadataService, ServiceSession
from repro.net.rpc import PIPELINE_WINDOW, RpcChannel, RpcServer
from repro.net.wire import (
    FRAME_OVERHEAD,
    PROTOCOL_V1,
    PROTOCOL_V2,
    pack_envelope,
    unpack_envelope,
)
from repro.sim import Simulation
from repro.core.client import (
    KEY_SHARDS,
    EvictionNotice,
    KeyCreate,
    KeyFetch,
    XattrRegistration,
)


class TestEnvelope:
    def test_v1_envelope_is_bare_body(self):
        assert pack_envelope(PROTOCOL_V1, None, b"body") == b"body"

    def test_v2_roundtrip(self):
        frame = pack_envelope(PROTOCOL_V2, 42, b"sealed-bytes")
        assert len(frame) == FRAME_OVERHEAD + len(b"sealed-bytes")
        version, request_id, body = unpack_envelope(frame)
        assert (version, request_id, body) == (PROTOCOL_V2, 42, b"sealed-bytes")

    def test_bare_body_parses_as_v1(self):
        version, request_id, body = unpack_envelope(b"<?xml version='1.0'?>")
        assert version == PROTOCOL_V1
        assert request_id is None
        assert body == b"<?xml version='1.0'?>"

    def test_truncated_frame_rejected(self):
        frame = pack_envelope(PROTOCOL_V2, 1, b"x")
        with pytest.raises(RpcError):
            unpack_envelope(frame[: FRAME_OVERHEAD - 2])

    def test_v2_requires_request_id(self):
        with pytest.raises(RpcError):
            pack_envelope(PROTOCOL_V2, None, b"x")


def _make_rig(rtt=0.3, pipelining=False):
    sim = Simulation()
    link = Link(sim, rtt=rtt)
    server = RpcServer(sim, "key-service")
    secret = b"s" * 32
    server.enroll_device("laptop-1", secret)
    channel = RpcChannel(
        sim, link, server, device_id="laptop-1", device_secret=secret,
        pipelining=pipelining,
    )
    return sim, link, server, channel


class TestPipelinedCalls:
    def test_pipelined_call_returns_same_result_as_serial(self):
        for pipelining in (False, True):
            sim, _link, server, channel = _make_rig(pipelining=pipelining)
            server.register(
                "echo", lambda device, payload: {"device": device, **payload}
            )

            def proc():
                result = yield from channel.call("echo", value=7, blob=b"\x00\xff")
                return result

            assert sim.run_process(proc()) == {
                "device": "laptop-1", "value": 7, "blob": b"\x00\xff"
            }

    def test_negotiation_happens_once_and_upgrades(self):
        sim, _link, server, channel = _make_rig(pipelining=True)
        server.register("ping", lambda device, payload: {})

        def caller():
            yield from channel.call("ping")
            return None

        procs = [sim.process(caller()) for _ in range(4)]

        def joiner():
            yield sim.all_of(procs)
            return None

        sim.run_process(joiner())
        assert channel.negotiated_version == PROTOCOL_V2
        assert channel.metrics.handshakes == 1
        assert channel.metrics.pipelined_calls == 4
        # hello itself rides the serial path.
        assert channel.metrics.serial_calls == 1

    def test_out_of_order_completion(self):
        sim, _link, server, channel = _make_rig(rtt=0.01, pipelining=True)
        order = []

        def slow(device, payload):
            yield sim.timeout(0.5)
            return {"name": "slow"}

        def fast(device, payload):
            yield sim.timeout(0.001)
            return {"name": "fast"}

        server.register("slow", slow)
        server.register("fast", fast)

        def caller(method):
            result = yield from channel.call(method)
            order.append(result["name"])
            return None

        def driver():
            # Negotiate first so both real calls pipeline.
            yield from channel.call("fast")
            procs = [
                sim.process(caller("slow")),
                sim.process(caller("fast")),
            ]
            yield sim.all_of(procs)
            return None

        sim.run_process(driver())
        assert order == ["fast", "slow"]
        assert channel.metrics.inflight_hwm == 2

    def test_max_inflight_bounds_window(self):
        # One caller more than the window: it waits for a free slot.
        sim, _link, server, channel = _make_rig(rtt=0.01, pipelining=True)

        def handler(device, payload):
            yield sim.timeout(0.2)
            return {}

        server.register("work", handler)

        def caller():
            yield from channel.call("work")
            return None

        def driver():
            yield from channel.call("work")  # negotiate + prime
            procs = [sim.process(caller())
                     for _ in range(PIPELINE_WINDOW + 1)]
            yield sim.all_of(procs)
            return None

        sim.run_process(driver())
        assert channel.metrics.inflight_hwm == PIPELINE_WINDOW
        assert channel.metrics.pipelined_calls == PIPELINE_WINDOW + 2

    def test_expired_slot_waiter_does_not_swallow_the_wakeup(self):
        # A holds one slot for 1 s and the rest of the window is held
        # for 5 s; B queues behind them and gives up at its 0.1 s
        # deadline; C queues at 0.3 s.  A's completion must wake C, not
        # B's abandoned place in the queue.
        sim, _link, server, channel = _make_rig(rtt=0.01, pipelining=True)

        def handler(device, payload):
            yield sim.timeout(payload["hold"])
            return {"hold": payload["hold"]}

        server.register("work", handler)
        outcomes = []

        def caller(hold, op_ctx=None):
            try:
                result = yield from channel.call("work", op_ctx=op_ctx,
                                                 hold=hold)
                outcomes.append(result["hold"])
            except DeadlineExpiredError:
                outcomes.append("expired")
            return None

        def driver():
            yield from channel.call("work", hold=0.0)  # negotiate v2
            procs = [sim.process(caller(1.0))]
            procs += [sim.process(caller(5.0))
                      for _ in range(PIPELINE_WINDOW - 1)]
            procs.append(sim.process(caller(0.0, OpContext(
                sim, "b", deadline=sim.now + 0.1))))
            yield sim.timeout(0.3)
            procs.append(sim.process(caller(0.5)))
            yield sim.all_of(procs)
            return None

        sim.run_process(driver())
        assert outcomes == (["expired", 1.0, 0.5]
                            + [5.0] * (PIPELINE_WINDOW - 1))
        assert channel.inflight_count == 0
        assert channel._slot_waiters == []

    def test_default_serial_channel_never_handshakes(self):
        sim, _link, server, channel = _make_rig(pipelining=False)
        server.register("ping", lambda device, payload: {})

        def proc():
            yield from channel.call("ping")
            return None

        sim.run_process(proc())
        assert channel.metrics.handshakes == 0
        assert channel.metrics.calls == channel.metrics.serial_calls == 1
        assert channel.negotiated_version is None


def _key_service_rig(shards):
    sim = Simulation()
    service = KeyService(sim, shards=shards)
    link = Link(sim, rtt=0.0)
    secret = b"s" * 32
    service.enroll_device("laptop-1", secret)
    channel = RpcChannel(
        sim, link, service.server, device_id="laptop-1", device_secret=secret
    )
    return sim, service, channel


class TestShardedKeyService:
    def _create_ids(self, sim, channel, count):
        audit_ids = [bytes([i]) + b"\x00" * 23 for i in range(count)]

        def creator():
            for audit_id in audit_ids:
                yield from channel.call("key.create", audit_id=audit_id)
            return None

        sim.run_process(creator())
        return audit_ids

    def test_sharded_fetch_returns_same_keys(self):
        results = {}
        for shards in (1, 4):
            sim, service, channel = _key_service_rig(shards)
            audit_ids = self._create_ids(sim, channel, 8)

            def fetcher():
                response = yield from channel.call(
                    "key.fetch_batch", audit_ids=audit_ids, kind="prefetch"
                )
                return response["keys"]

            results[shards] = sim.run_process(fetcher())
            assert service.key_count() == 8
            assert service.access_log.verify_chain()
        assert all(len(k) == 32 for k in results[1])
        # Same DRBG seed => identical escrowed keys regardless of shards.
        assert results[1] == results[4]

    def test_fast_transport_rig_logs_one_sequence_space(self):
        # The fast transport's sharded key service still appends to one
        # log: one chain, and entry i carries sequence i.
        from repro.api import LAN, KeypadConfig, build_keypad_rig

        config = KeypadConfig.builder().texp(1.0).fast_transport().build()
        rig = build_keypad_rig(network=LAN, config=config, n_blocks=1 << 14)
        assert rig.key_service.shards == KEY_SHARDS > 1
        paths = [f"/home/f{i}" for i in range(12)]

        def workload():
            yield from rig.fs.mkdir("/home")
            for path in paths:
                yield from rig.fs.create(path)
                yield from rig.fs.write(path, 0, b"secret")
            yield rig.sim.timeout(30.0)
            for path in paths:
                yield from rig.fs.read(path, 0, 6)

        rig.run(workload())
        log = rig.key_service.access_log
        assert len(log.entries(kind="create")) >= 12
        assert len(log) > 24
        assert [e.sequence for e in log] == list(range(len(log)))
        assert [log.entry_at(i).sequence for i in range(len(log))] == (
            list(range(len(log))))
        assert log.verify_chain()

    def test_sharded_fetch_batch_is_faster(self):
        elapsed = {}
        for shards in (1, 8):
            sim, _service, channel = _key_service_rig(shards)
            audit_ids = self._create_ids(sim, channel, 32)
            start = sim.now

            def fetcher():
                yield from channel.call(
                    "key.fetch_batch", audit_ids=audit_ids, kind="prefetch"
                )
                return sim.now

            elapsed[shards] = sim.run_process(fetcher()) - start
        # 32 lookups split over 8 shards run as the max, not the sum.
        assert elapsed[8] < elapsed[1]

    def test_unknown_ids_still_return_empty_slots(self):
        sim, _service, channel = _key_service_rig(4)
        audit_ids = self._create_ids(sim, channel, 2)
        wanted = [audit_ids[0], b"\xff" * 24, audit_ids[1]]

        def fetcher():
            response = yield from channel.call(
                "key.fetch_batch", audit_ids=wanted, kind="prefetch"
            )
            return response["keys"]

        keys = sim.run_process(fetcher())
        assert keys[0] and keys[2]
        assert keys[1] == b""

    def test_evict_notify_batch_keeps_timestamps(self):
        sim, service, channel = _key_service_rig(1)

        def notifier():
            yield from channel.call(
                "key.evict_notify_batch",
                notices=[
                    {"count": 1, "reason": "expired", "timestamp": 3.5},
                    {"count": 2, "reason": "expired", "timestamp": 7.25},
                ],
            )
            return None

        sim.run_process(notifier())
        evictions = service.access_log.entries(kind="evict")
        assert [e.timestamp for e in evictions] == [3.5, 7.25]
        assert [e.fields["count"] for e in evictions] == [1, 2]


def _session_rig(fast_transport=False):
    sim = Simulation()
    key_service = KeyService(sim)
    metadata_service = MetadataService(sim)
    key_link = Link(sim, rtt=0.1)
    meta_link = Link(sim, rtt=0.1)
    session = ServiceSession(
        sim, "laptop-1", b"secret" * 6, key_service, metadata_service,
        key_link, meta_link, fast_transport=fast_transport,
    )
    return sim, key_service, metadata_service, session


class TestCoalescing:
    def test_concurrent_fetches_share_one_rpc(self):
        sim, key_service, _meta, session = _session_rig(fast_transport=True)
        audit_id = b"\x01" * 24

        def setup():
            yield from session.create(KeyCreate(audit_id))
            return None

        sim.run_process(setup())
        calls_before = session.key_channel.metrics.calls
        keys = []

        def reader():
            key = yield from session.fetch(KeyFetch(audit_id))
            keys.append(key)
            return None

        def driver():
            procs = [sim.process(reader()) for _ in range(10)]
            yield sim.all_of(procs)
            return None

        sim.run_process(driver())
        assert len(set(keys)) == 1 and len(keys) == 10
        assert session.key_channel.metrics.calls == calls_before + 1
        assert session.metrics.coalesced_hits == 9
        # Exactly one audit log entry for the shared round-trip.
        fetches = key_service.access_log.entries(kind="fetch")
        assert len(fetches) == 1

    def test_sequential_fetches_do_not_coalesce(self):
        sim, key_service, _meta, session = _session_rig(fast_transport=True)
        audit_id = b"\x02" * 24

        def proc():
            yield from session.create(KeyCreate(audit_id))
            yield from session.fetch(KeyFetch(audit_id))
            yield from session.fetch(KeyFetch(audit_id))
            return None

        sim.run_process(proc())
        assert session.metrics.coalesced_hits == 0
        assert len(key_service.access_log.entries(kind="fetch")) == 2

    def test_failure_propagates_to_joiners(self):
        sim, _ks, _meta, session = _session_rig(fast_transport=True)
        missing = b"\xee" * 24
        outcomes = []

        def reader():
            try:
                yield from session.fetch(KeyFetch(missing))
            except RpcError:
                outcomes.append("error")
            return None

        def driver():
            procs = [sim.process(reader()) for _ in range(3)]
            yield sim.all_of(procs)
            return None

        sim.run_process(driver())
        assert outcomes == ["error"] * 3

    def test_batch_joins_inflight_single_fetch(self):
        sim, key_service, _meta, session = _session_rig(fast_transport=True)
        ids = [bytes([i]) + b"\x01" * 23 for i in range(3)]

        def setup():
            for audit_id in ids:
                yield from session.create(KeyCreate(audit_id))
            return None

        sim.run_process(setup())

        def single():
            key = yield from session.fetch(KeyFetch(ids[0]))
            return key

        def batch():
            keys = yield from session.fetch_many(
                [KeyFetch(a, kind="prefetch") for a in ids]
            )
            return keys

        def driver():
            single_proc = sim.process(single())
            batch_proc = sim.process(batch())
            results = yield sim.all_of([single_proc, batch_proc])
            return results

        single_key, batch_keys = sim.run_process(driver())
        assert batch_keys[0] == single_key
        assert session.metrics.coalesced_batch_hits == 1
        # ids[0] logged once (shared), others once each via the batch.
        per_id = [
            len(key_service.access_log.entries(
                predicate=lambda e, a=a: e.fields.get("audit_id") == a
                and e.kind in ("fetch", "prefetch")
            ))
            for a in ids
        ]
        assert per_id == [1, 1, 1]


class TestWriteBehind:
    def test_enqueue_requires_flag(self):
        _sim, _ks, _meta, session = _session_rig()
        with pytest.raises(RpcError):
            session.enqueue(EvictionNotice(count=1, reason="expired"))

    def test_flusher_batches_and_keeps_timestamps(self):
        sim, key_service, meta_service, session = _session_rig(
            fast_transport=True)

        def proc():
            session.enqueue(EvictionNotice(count=1, reason="expired"))
            session.enqueue(
                XattrRegistration(b"\x03" * 24, "user.label", b"secret")
            )
            yield sim.timeout(0.1)
            session.enqueue(EvictionNotice(count=2, reason="expired"))
            yield sim.timeout(2.0)  # let the flusher run
            return None

        sim.run_process(proc())
        assert session.pending_write_behind() == 0
        assert session.metrics.enqueued == 3
        assert session.metrics.batched_messages == 3
        evictions = key_service.access_log.entries(kind="evict")
        assert [e.timestamp for e in evictions] == [0.0, 0.1]
        xattrs = meta_service.metadata_log.entries(kind="xattr")
        assert len(xattrs) == 1 and xattrs[0].timestamp == 0.0
        assert meta_service.xattrs_of(b"\x03" * 24) == {"user.label": b"secret"}

    def test_flush_drains_synchronously(self):
        sim, key_service, _meta, session = _session_rig(fast_transport=True)

        def proc():
            session.enqueue(EvictionNotice(count=4, reason="hibernate"))
            yield from session.flush()
            return len(key_service.access_log.entries(kind="evict"))

        assert sim.run_process(proc()) == 1
