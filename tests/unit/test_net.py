"""Tests for links, netem presets, wire marshalling, and RPC."""

import pytest

from repro.errors import (
    AuthorizationError,
    NetworkUnavailableError,
    RevokedError,
    RpcError,
)
from repro.api import ALL_NETWORKS, LAN, THREE_G, Link
from repro.net.rpc import RpcChannel, RpcServer
from repro.net.wire import marshal_request, marshal_response, unmarshal
from repro.sim import Simulation


class TestLink:
    def test_one_way_delay_is_half_rtt(self):
        sim = Simulation()
        link = Link(sim, rtt=0.3)

        def proc():
            yield from link.transfer(100)
            return sim.now

        assert sim.run_process(proc()) == pytest.approx(0.15)

    def test_bandwidth_adds_serialization_delay(self):
        sim = Simulation()
        link = Link(sim, rtt=0.0, bandwidth_bps=8000)  # 1 kB/s

        def proc():
            yield from link.transfer(500)
            return sim.now

        assert sim.run_process(proc()) == pytest.approx(0.5)

    def test_down_link_raises(self):
        sim = Simulation()
        link = Link(sim, rtt=0.1)
        link.set_down()

        def proc():
            yield from link.transfer(10)

        with pytest.raises(NetworkUnavailableError):
            sim.run_process(proc())

    def test_wait_for_up_blocks_through_outage(self):
        sim = Simulation()
        link = Link(sim, rtt=0.2)
        link.set_down()

        def restorer():
            yield sim.timeout(5.0)
            link.set_up()

        def sender():
            yield from link.transfer(10, wait_for_up=True)
            return sim.now

        sim.process(restorer())
        assert sim.run_process(sender()) == pytest.approx(5.1)

    def test_severed_link_never_recovers(self):
        sim = Simulation()
        link = Link(sim, rtt=0.1)
        link.sever()
        with pytest.raises(NetworkUnavailableError):
            link.set_up()

        def sender():
            yield from link.transfer(10, wait_for_up=True)

        with pytest.raises(NetworkUnavailableError):
            sim.run_process(sender())

    def test_stats_accumulate(self):
        sim = Simulation()
        link = Link(sim, rtt=0.1)

        def proc():
            yield from link.transfer(100)
            yield sim.timeout(10.0)
            yield from link.transfer(300)

        sim.run_process(proc())
        assert link.stats.messages_sent == 2
        assert link.stats.bytes_sent == 400
        # 400 bytes over ~10s window → ~0.32 kbps
        assert link.stats.average_kbps() == pytest.approx(0.32, rel=0.05)

    def test_negative_rtt_rejected(self):
        with pytest.raises(ValueError):
            Link(Simulation(), rtt=-1)


class TestNetem:
    def test_paper_rtts(self):
        by_name = {env.name: env.rtt_ms for env in ALL_NETWORKS}
        assert by_name == {
            "LAN": pytest.approx(0.1),
            "WLAN": pytest.approx(2.0),
            "Broadband": pytest.approx(25.0),
            "DSL": pytest.approx(125.0),
            "3G": pytest.approx(300.0),
        }

    def test_make_link(self):
        sim = Simulation()
        link = THREE_G.make_link(sim)
        assert link.rtt == pytest.approx(0.3)
        assert link.name == "3G"


class TestWire:
    def test_request_roundtrip(self):
        params = {
            "audit_id": b"\x01\x02\xff",
            "path": "dir1/taxes & <stuff>.pdf",
            "count": 42,
            "ratio": 2.5,
            "flag": True,
            "nothing": None,
            "nested": {"list": [1, "two", b"three"]},
        }
        msg = unmarshal(marshal_request("key.fetch", params))
        assert msg.method == "key.fetch"
        assert msg.payload == params

    def test_response_roundtrip(self):
        payload = {"key": b"\x00" * 32, "logged_at": 123.5, "empty": "", "blob": b""}
        msg = unmarshal(marshal_response(payload))
        assert msg.method is None
        assert msg.payload == payload

    def test_empty_collections(self):
        msg = unmarshal(marshal_response({"l": [], "d": {}}))
        assert msg.payload == {"l": [], "d": {}}

    def test_unknown_type_rejected(self):
        with pytest.raises(RpcError):
            marshal_response({"bad": object()})

    def test_garbage_rejected(self):
        with pytest.raises(RpcError):
            unmarshal(b"not xml at all")
        with pytest.raises(RpcError):
            unmarshal(b"<?xml version='1.0'?><something/>")
        with pytest.raises(RpcError):
            unmarshal(b"\xff\xfe")

    def test_bool_not_confused_with_int(self):
        msg = unmarshal(marshal_response({"t": True, "one": 1}))
        assert msg.payload["t"] is True
        assert msg.payload["one"] == 1


def _make_rig(rtt=0.3):
    sim = Simulation()
    link = Link(sim, rtt=rtt)
    server = RpcServer(sim, "key-service")
    secret = b"s" * 32
    server.enroll_device("laptop-1", secret)
    channel = RpcChannel(
        sim, link, server, device_id="laptop-1", device_secret=secret
    )
    return sim, link, server, channel


class TestRpc:
    def test_basic_call(self):
        sim, _link, server, channel = _make_rig()
        server.register(
            "echo", lambda device, payload: {"device": device, **payload}
        )

        def proc():
            result = yield from channel.call("echo", value=7)
            return result

        result = sim.run_process(proc())
        assert result == {"device": "laptop-1", "value": 7}

    def test_call_latency_includes_full_rtt(self):
        sim, _link, server, channel = _make_rig(rtt=0.3)
        server.register("ping", lambda device, payload: {})

        def proc():
            yield from channel.call("ping")
            return sim.now

        elapsed = sim.run_process(proc())
        assert elapsed >= 0.3
        assert elapsed < 0.31  # CPU costs are sub-millisecond-scale

    def test_generator_handler_can_yield(self):
        sim, _link, server, channel = _make_rig(rtt=0.0)

        def slow_handler(device, payload):
            yield sim.timeout(1.0)  # durable log write
            return {"ok": True}

        server.register("log", slow_handler)

        def proc():
            result = yield from channel.call("log")
            return (sim.now, result)

        elapsed, result = sim.run_process(proc())
        assert result == {"ok": True}
        assert elapsed >= 1.0

    def test_unknown_method_raises(self):
        sim, _link, _server, channel = _make_rig()

        def proc():
            yield from channel.call("nope")

        with pytest.raises(RpcError, match="no such method"):
            sim.run_process(proc())

    def test_typed_fault_crosses_wire(self):
        sim, _link, server, channel = _make_rig()

        def revoked(device, payload):
            raise RevokedError("device reported stolen")

        server.register("key.fetch", revoked)

        def proc():
            yield from channel.call("key.fetch", audit_id=b"x")

        with pytest.raises(RevokedError, match="stolen"):
            sim.run_process(proc())

    def test_unenrolled_device_rejected(self):
        sim = Simulation()
        link = Link(sim, rtt=0.0)
        server = RpcServer(sim, "svc")
        server.register("ping", lambda d, p: {})
        channel = RpcChannel(
            sim, link, server, device_id="ghost", device_secret=b"x" * 32
        )

        def proc():
            yield from channel.call("ping")

        with pytest.raises(AuthorizationError):
            sim.run_process(proc())

    def test_outage_fails_call(self):
        sim, link, server, channel = _make_rig()
        server.register("ping", lambda d, p: {})
        link.set_down()

        def proc():
            yield from channel.call("ping")

        with pytest.raises(NetworkUnavailableError):
            sim.run_process(proc())

    def test_session_key_ratchets(self):
        sim, _link, server, channel = _make_rig(rtt=0.0)
        server.register("ping", lambda d, p: {})
        initial_key = channel._session_key

        def proc():
            yield from channel.call("ping")
            yield sim.timeout(250.0)  # > 2 rekey intervals
            yield from channel.call("ping")

        sim.run_process(proc())
        assert channel._session_key != initial_key
        assert channel._epoch == 2

    def test_unavailable_server(self):
        sim, _link, server, channel = _make_rig()
        server.register("ping", lambda d, p: {})
        server.available = False

        def proc():
            yield from channel.call("ping")

        from repro.errors import ServiceUnavailableError

        with pytest.raises(ServiceUnavailableError):
            sim.run_process(proc())

    def test_bytes_counted_on_link(self):
        sim, link, server, channel = _make_rig()
        server.register("ping", lambda d, p: {})

        def proc():
            yield from channel.call("ping", blob=b"x" * 1000)

        sim.run_process(proc())
        assert link.stats.messages_sent == 2  # request + response
        assert link.stats.bytes_sent > 1000  # payload + framing


class TestRpcDeadlines:
    """The channel races calls against an OpContext deadline."""

    def _ctx(self, sim, **kwargs):
        from repro.core.context import OpContext

        return OpContext(sim, "read", **kwargs)

    def test_generous_deadline_passes_through(self):
        sim, _link, server, channel = _make_rig(rtt=0.3)
        server.register("ping", lambda d, p: {"pong": True})
        ctx = self._ctx(sim, deadline=10.0)

        def proc():
            result = yield from channel.call("ping", op_ctx=ctx)
            return result

        assert sim.run_process(proc()) == {"pong": True}
        assert channel.metrics.deadline_expiries == 0

    def test_deadline_shorter_than_rtt_expires(self):
        from repro.errors import DeadlineExpiredError

        sim, _link, server, channel = _make_rig(rtt=0.3)
        server.register("ping", lambda d, p: {})
        ctx = self._ctx(sim, deadline=0.1)

        def proc():
            yield from channel.call("ping", op_ctx=ctx)

        with pytest.raises(DeadlineExpiredError):
            sim.run_process(proc())
        assert sim.now == pytest.approx(0.1)
        assert channel.metrics.deadline_expiries == 1

    def test_already_expired_fails_before_the_wire(self):
        from repro.errors import DeadlineExpiredError

        sim, link, server, channel = _make_rig(rtt=0.3)
        server.register("ping", lambda d, p: {})
        ctx = self._ctx(sim, deadline=1.0)

        def proc():
            yield sim.timeout(2.0)
            yield from channel.call("ping", op_ctx=ctx)

        with pytest.raises(DeadlineExpiredError):
            sim.run_process(proc())
        assert link.stats.messages_sent == 0

    def test_pipelined_call_respects_deadline(self):
        from repro.errors import DeadlineExpiredError

        sim = Simulation()
        link = Link(sim, rtt=0.3)
        server = RpcServer(sim, "svc")
        server.register("ping", lambda d, p: {})
        secret = b"s" * 32
        server.enroll_device("laptop-1", secret)
        channel = RpcChannel(
            sim, link, server, device_id="laptop-1", device_secret=secret,
            pipelining=True,
        )
        ctx = self._ctx(sim, deadline=0.4)  # one RTT, not two

        def proc():
            # Handshake + call each need a full RTT; the budget covers
            # only the first, so the pipelined call itself expires.
            yield from channel.call("ping", op_ctx=ctx)

        with pytest.raises(DeadlineExpiredError):
            sim.run_process(proc())
        assert channel.metrics.deadline_expiries == 1

    def test_traced_expiry_records_event(self):
        from repro.core.context import TraceCollector
        from repro.errors import DeadlineExpiredError

        sim, _link, server, channel = _make_rig(rtt=0.3)
        server.register("ping", lambda d, p: {})
        ctx = self._ctx(sim, deadline=0.1, collector=TraceCollector())

        def proc():
            yield from channel.call("ping", op_ctx=ctx)

        with pytest.raises(DeadlineExpiredError):
            sim.run_process(proc())
        names = [s.name for s in ctx.root.walk()]
        assert "deadline-expired" in names
        assert "rpc:ping" in names


class TestRpcRetryBudget:
    """An RPC under an op context is tried once: a transport failure
    surfaces to the caller, never a retry."""

    def test_no_budget_means_no_retries(self):
        from repro.core.context import OpContext
        from repro.errors import ServiceUnavailableError

        sim, _link, server, channel = _make_rig(rtt=0.01)
        server.register("ping", lambda d, p: {})
        server.available = False
        ctx = OpContext(sim, "read", deadline=10.0)

        def proc():
            yield from channel.call("ping", op_ctx=ctx)

        with pytest.raises(ServiceUnavailableError):
            sim.run_process(proc())
        assert channel.metrics.calls == 1
        assert channel.metrics.retries == 0
