"""Tracing end-to-end: timing identity, reconciliation, deadlines.

Three properties the observability seam must keep:

1. **Identity** — enabling tracing changes no simulated timing and no
   wire traffic: span accounting never yields to the simulator.
2. **Reconciliation** — the collector's span-derived blocking-RPC count
   equals the channel-metrics formula the benchmarks use
   (``calls - handshakes - write_behind_flushes``), on every transport.
3. **Deadlines** — an op-level deadline shorter than the network RTT
   fails the op with :class:`DeadlineExpiredError` and is visible in
   both the collector and the channel metrics.
"""

import pytest

from repro.api import KeypadConfig, LAN, THREE_G
from repro.errors import DeadlineExpiredError
from repro.harness import build_keypad_rig

FILES = ("medical.txt", "taxes.pdf", "notes.md")


def _workload(rig, texp):
    """Create, let keys expire, re-read (forces fetches), then drain."""

    def proc():
        yield from rig.fs.mkdir("/home")
        for name in FILES:
            path = f"/home/{name}"
            yield from rig.fs.create(path)
            yield from rig.fs.write(path, 0, b"content of " + name.encode())
        yield rig.sim.timeout(texp + 5.0)
        data = []
        for name in FILES:
            data.append((yield from rig.fs.read(f"/home/{name}", 0, 64)))
        return data

    data = rig.run(proc())

    def drain():
        # Let write-behind flushes and background registrations settle.
        yield rig.sim.timeout(30.0)

    rig.run(drain())
    return data


def _counter_blocking(rig):
    """The benchmarks' blocking-RPC formula, from channel metrics."""
    merged = rig.services.channel_metrics()
    return (
        merged.calls - merged.handshakes
        - rig.services.metrics.write_behind_flushes
    )


def _traced(config, **knobs):
    return KeypadConfig.builder(config).tracing(**knobs).build()


CONFIGS = {
    "default": KeypadConfig(texp=10.0, prefetch="none", ibe_enabled=False),
    "prefetch+ibe": KeypadConfig(texp=10.0, prefetch="dir:3",
                                 ibe_enabled=True),
    "fast-transport": (KeypadConfig.builder().texp(10.0).prefetch("none")
                       .ibe(False).fast_transport().build()),
}


class TestTracingIdentity:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_tracing_changes_no_timing_or_traffic(self, name):
        config = CONFIGS[name]
        plain = build_keypad_rig(network=THREE_G, config=config)
        traced = build_keypad_rig(network=THREE_G,
                                  config=_traced(config))

        data_plain = _workload(plain, config.texp)
        data_traced = _workload(traced, config.texp)

        assert data_plain == data_traced
        assert plain.sim.now == traced.sim.now
        plain_metrics = plain.services.channel_metrics().as_dict()
        traced_metrics = traced.services.channel_metrics().as_dict()
        assert plain_metrics == traced_metrics
        assert (len(plain.key_service.access_log)
                == len(traced.key_service.access_log))

    def test_untraced_rig_mints_no_context(self):
        rig = build_keypad_rig(config=KeypadConfig())
        assert rig.tracer is None
        assert rig.fs._op_context("read", "/x") is None

    def test_traced_rig_has_collector(self):
        rig = build_keypad_rig(config=_traced(KeypadConfig()))
        assert rig.tracer is not None
        ctx = rig.fs._op_context("read", "/x")
        assert ctx is not None and ctx.traced
        assert ctx.deadline is None


class TestReconciliation:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_span_count_matches_channel_counters(self, name):
        config = _traced(CONFIGS[name])
        rig = build_keypad_rig(network=THREE_G, config=config)
        _workload(rig, config.texp)
        assert rig.tracer.blocking_rpcs() == _counter_blocking(rig)
        assert rig.tracer.rpc_total > 0

    def test_summary_reflects_run(self):
        config = _traced(CONFIGS["default"])
        rig = build_keypad_rig(network=LAN, config=config)
        _workload(rig, config.texp)
        summary = rig.tracer.summary()
        assert summary["ops"] == rig.tracer.op_count > 0
        assert summary["blocking_rpcs"] == _counter_blocking(rig)
        assert summary["deadline_expiries"] == 0
        assert any(name.startswith("rpc:") for name in summary["by_span"])


class TestOpDeadlines:
    def test_deadline_shorter_than_rtt_fails_cold_read(self):
        # 3G RTT is 300ms; a 50ms op budget cannot complete a key fetch.
        config = _traced(KeypadConfig(
            texp=10.0, prefetch="none", ibe_enabled=False
        ), op_deadline=0.05)
        rig = build_keypad_rig(network=THREE_G, config=config)

        def proc():
            yield from rig.fs.create("/f")
            yield from rig.fs.write("/f", 0, b"x")
            yield rig.sim.timeout(60.0)  # key expired
            yield from rig.fs.read("/f", 0, 1)

        with pytest.raises(DeadlineExpiredError):
            rig.run(proc())
        assert rig.tracer.deadline_expiries >= 1
        merged = rig.services.channel_metrics()
        assert merged.deadline_expiries >= 1

    def test_generous_deadline_changes_nothing(self):
        base = KeypadConfig(texp=10.0, prefetch="none", ibe_enabled=False)
        plain = build_keypad_rig(network=THREE_G, config=base)
        bounded = build_keypad_rig(
            network=THREE_G, config=_traced(base, op_deadline=120.0)
        )
        _workload(plain, base.texp)
        _workload(bounded, base.texp)
        assert plain.sim.now == bounded.sim.now
        assert bounded.tracer.deadline_expiries == 0

    def test_deadline_without_tracing(self):
        # Deadlines work with the collector off: ctx minted, untraced.
        from dataclasses import replace

        config = replace(
            KeypadConfig(texp=10.0, prefetch="none", ibe_enabled=False),
            op_deadline=0.05,
        )
        rig = build_keypad_rig(network=THREE_G, config=config)
        assert rig.tracer is None

        def proc():
            yield from rig.fs.create("/f")

        with pytest.raises(DeadlineExpiredError):
            rig.run(proc())
        assert rig.services.channel_metrics().deadline_expiries >= 1
