"""Tests for the per-operation context (spans, deadlines, budgets)."""

import pytest

from repro.core.context import (
    OpContext,
    RPC_SPAN_PREFIX,
    Span,
    TraceCollector,
    maybe_span,
)
from repro.errors import DeadlineExpiredError
from repro.sim import Simulation


class Clock:
    """Minimal stand-in for a Simulation: just a settable ``now``."""

    def __init__(self, now=0.0):
        self.now = now


class TestSpan:
    def test_duration_and_children(self):
        root = Span("op", 1.0)
        child = root.child("fetch", 1.5)
        child.end = 2.0
        root.end = 3.0
        assert root.duration == pytest.approx(2.0)
        assert child.duration == pytest.approx(0.5)
        assert [s.name for s in root.walk()] == ["op", "fetch"]

    def test_open_span_has_zero_duration(self):
        span = Span("op", 5.0)
        assert span.duration == 0.0

    def test_as_dict(self):
        root = Span("op", 0.0, path="/a")
        root.child("hit", 0.25).end = 0.25
        root.end = 1.0
        d = root.as_dict()
        assert d["name"] == "op"
        assert d["attrs"] == {"path": "/a"}
        assert d["children"][0]["name"] == "hit"
        assert d["children"][0]["duration"] == 0.0


class TestOpContext:
    def test_nested_spans(self):
        clock = Clock()
        ctx = OpContext(clock, "read", device_id="laptop-1", path="/a")
        clock.now = 1.0
        with ctx.span("key-fetch"):
            clock.now = 2.0
            with ctx.span("rpc:key.fetch"):
                clock.now = 3.0
        ctx.finish()
        fetch = ctx.root.children[0]
        assert fetch.name == "key-fetch"
        assert fetch.duration == pytest.approx(2.0)
        assert fetch.children[0].name == "rpc:key.fetch"
        assert ctx.root.attrs["device"] == "laptop-1"
        assert ctx.root.attrs["path"] == "/a"

    def test_span_closes_on_exception(self):
        clock = Clock()
        ctx = OpContext(clock, "read")
        with pytest.raises(ValueError):
            with ctx.span("key-fetch"):
                clock.now = 1.0
                raise ValueError("boom")
        span = ctx.root.children[0]
        assert span.end == 1.0
        assert span.status == "error:ValueError"
        # The stack popped: new spans attach to the root again.
        with ctx.span("second"):
            pass
        assert ctx.root.children[1].name == "second"

    def test_attach_does_not_push_stack(self):
        clock = Clock()
        ctx = OpContext(clock, "create")
        rpc = ctx.attach("rpc:key.create")
        # A begin() while rpc is open still parents on the root.
        with ctx.span("other"):
            pass
        clock.now = 2.0
        ctx.close(rpc)
        assert rpc.end == 2.0
        assert [s.name for s in ctx.root.children] == [
            "rpc:key.create", "other",
        ]

    def test_event_is_instant(self):
        clock = Clock(now=4.0)
        ctx = OpContext(clock, "read")
        span = ctx.event("keycache.hit", audit_id="ab")
        assert span.start == span.end == 4.0
        assert span.attrs["audit_id"] == "ab"

    def test_deadline_remaining_and_check(self):
        clock = Clock()
        ctx = OpContext(clock, "read", deadline=2.0)
        assert ctx.remaining() == pytest.approx(2.0)
        assert not ctx.expired()
        ctx.check("early")  # no raise
        clock.now = 2.0
        assert ctx.expired()
        with pytest.raises(DeadlineExpiredError, match="in the wire"):
            ctx.check("the wire")

    def test_no_deadline_never_expires(self):
        ctx = OpContext(Clock(), "read")
        assert ctx.remaining() == float("inf")
        assert not ctx.expired()
        ctx.check()

    def test_finish_is_idempotent_and_closes_open_spans(self):
        clock = Clock()
        collector = TraceCollector()
        ctx = OpContext(clock, "read", collector=collector)
        ctx.begin("key-fetch")  # never ended: interrupted sub-process
        clock.now = 3.0
        ctx.finish()
        ctx.finish()
        assert collector.op_count == 1
        span = ctx.root.children[0]
        assert span.end == 3.0
        assert span.status == "unfinished"
        assert ctx.root.status == "ok"

    def test_finish_with_deadline_error_marks_root(self):
        collector = TraceCollector()
        ctx = OpContext(Clock(), "read", collector=collector)
        ctx.finish(DeadlineExpiredError("late"))
        assert ctx.root.status == "deadline-expired"
        assert collector.deadline_expiries == 1

    def test_finish_with_other_error(self):
        ctx = OpContext(Clock(), "read")
        ctx.finish(ValueError("bad"))
        assert ctx.root.status == "error:ValueError"


class TestMaybeSpan:
    def test_noop_without_context(self):
        with maybe_span(None, "key-fetch"):
            pass

    def test_noop_with_untraced_context(self):
        ctx = OpContext(Clock(), "read", deadline=5.0)
        with maybe_span(ctx, "key-fetch"):
            pass
        assert ctx.root.children == []

    def test_span_with_traced_context(self):
        ctx = OpContext(Clock(), "read", collector=TraceCollector())
        with maybe_span(ctx, "key-fetch", audit_id="ab"):
            pass
        assert ctx.root.children[0].name == "key-fetch"


class TestTraceCollector:
    def _finished_ctx(self, collector, clock, op="read", blocking=True,
                      spans=()):
        ctx = OpContext(clock, op, collector=collector, blocking=blocking)
        for name, dt, attrs in spans:
            span = ctx.begin(name, **attrs)
            clock.now += dt
            ctx.end(span)
        ctx.finish()
        return ctx

    def test_rpc_accounting(self):
        clock = Clock()
        collector = TraceCollector()
        self._finished_ctx(
            collector, clock,
            spans=[
                (RPC_SPAN_PREFIX + "rpc.hello", 0.1, {"server": "keys"}),
                (RPC_SPAN_PREFIX + "key.fetch", 0.3, {"server": "keys"}),
                (RPC_SPAN_PREFIX + "meta.register", 0.3, {"server": "meta"}),
            ],
        )
        assert collector.rpc_total == 3
        assert collector.rpc_handshakes == 1
        assert collector.rpc_nonblocking == 0
        assert collector.blocking_rpcs() == 2
        assert collector.rpc_by_server == {"keys": 2, "meta": 1}

    def test_nonblocking_context_excluded(self):
        clock = Clock()
        collector = TraceCollector()
        self._finished_ctx(
            collector, clock, op="write-behind-flush", blocking=False,
            spans=[(RPC_SPAN_PREFIX + "meta.register", 0.2, {})],
        )
        assert collector.rpc_total == 1
        assert collector.rpc_nonblocking == 1
        assert collector.blocking_rpcs() == 0

    def test_orphan_spans_count(self):
        collector = TraceCollector()
        span = collector.start_orphan(RPC_SPAN_PREFIX + "key.fetch", 1.0)
        collector.finish_orphan(span, 1.5)
        assert collector.rpc_total == 1
        assert collector.blocking_rpcs() == 1
        assert collector.span_stats[RPC_SPAN_PREFIX + "key.fetch"] == [1, 0.5]

    def test_op_ids_are_unique(self):
        collector = TraceCollector()
        clock = Clock()
        a = OpContext(clock, "read", collector=collector)
        b = OpContext(clock, "write", collector=collector)
        assert a.op_id != b.op_id

    def test_max_ops_caps_retained_trees_not_counters(self):
        clock = Clock()
        collector = TraceCollector(max_ops=2)
        for _ in range(5):
            self._finished_ctx(
                collector, clock,
                spans=[(RPC_SPAN_PREFIX + "key.fetch", 0.1, {})],
            )
        assert len(collector.ops) == 2
        assert collector.dropped == 3
        assert collector.op_count == 5
        assert collector.rpc_total == 5

    def test_summary_shape(self):
        clock = Clock()
        collector = TraceCollector()
        self._finished_ctx(
            collector, clock,
            spans=[(RPC_SPAN_PREFIX + "key.fetch", 0.25, {})],
        )
        summary = collector.summary()
        assert summary["ops"] == 1
        assert summary["blocking_rpcs"] == 1
        assert summary["by_span"]["rpc:key.fetch"]["count"] == 1
        assert summary["by_span"]["rpc:key.fetch"]["total_s"] == 0.25

    def test_render_smoke(self):
        clock = Clock()
        collector = TraceCollector()
        self._finished_ctx(
            collector, clock,
            spans=[(RPC_SPAN_PREFIX + "key.fetch", 0.25,
                    {"server": "keys", "bytes_out": 100})],
        )
        text = collector.render()
        assert "read#1" in text
        assert "rpc:key.fetch" in text
        assert "bytes_out=100" in text
        assert "SPAN TOTALS" in text

    def test_render_hides_beyond_max_ops(self):
        clock = Clock()
        collector = TraceCollector()
        for _ in range(3):
            self._finished_ctx(collector, clock)
        text = collector.render(max_ops=1)
        assert "2 more op(s) not shown" in text


class TestWithSimulation:
    """The context composes with real sim processes."""

    def test_spans_track_sim_time(self):
        sim = Simulation()
        collector = TraceCollector()
        ctx = OpContext(sim, "read", collector=collector)

        def proc():
            with ctx.span("work"):
                yield sim.timeout(1.5)
            ctx.finish()

        sim.run_process(proc())
        assert ctx.root.children[0].duration == pytest.approx(1.5)
        assert collector.span_stats["work"] == [1, pytest.approx(1.5)]
