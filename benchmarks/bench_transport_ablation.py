"""Transport ablation: what the v2 transport buys, and what it costs.

Not a figure from the paper — the paper's prototype issues one blocking
RPC per key-service interaction.  This ablation quantifies the
v2 transport (``KeypadConfig.fast_transport``: protocol-v2 pipelining,
single-flight coalescing, write-behind batching, sharded key service)
two ways:

* a **coalescing burst**: rounds of 16 sim processes missing on the
  same audit ID concurrently over 3G — the access pattern of N
  applications touching one hot file after expiration;
* a **parallel Apache compile** (``make -j8``, 3G, short Texp): real
  workload contention on the shared header pool.

Blocking round-trips are foreground RPCs a process waited on: total
channel calls minus version handshakes and background write-behind
flushes.  Defaults stay byte-identical to the seed (bench_fig6 and
bench_fig7 pin that), so the comparison isolates the transport.
"""

from repro.api import (
    KeypadConfig,
    KeyService,
    MetadataService,
    ServiceSession,
)
from repro.api import KeyCreate, KeyFetch
from repro.harness.compilebench import run_parallel_compile
from repro.harness.results import (
    TRANSPORT_METRIC_COLUMNS,
    ResultTable,
    transport_metrics_row,
)
from repro.api import THREE_G, Link
from repro.sim import Simulation

READERS = 16
ROUNDS = 8


def _blocking_rpcs(rig_services) -> int:
    merged = rig_services.channel_metrics()
    return (merged.calls - merged.handshakes
            - rig_services.metrics.write_behind_flushes)


def _run_burst(fast: bool) -> tuple[float, int, int]:
    """ROUNDS bursts of READERS concurrent same-ID fetches over 3G."""
    sim = Simulation()
    key_service = KeyService(sim)
    metadata_service = MetadataService(sim)
    session = ServiceSession(
        sim, "laptop-1", b"secret" * 6, key_service, metadata_service,
        Link(sim, rtt=0.3), Link(sim, rtt=0.3), fast_transport=fast,
    )
    audit_id = b"\x07" * 24

    def setup():
        yield from session.create(KeyCreate(audit_id))
        return None

    sim.run_process(setup())
    baseline = _blocking_rpcs(session)
    start = sim.now
    for _ in range(ROUNDS):
        def reader():
            yield from session.fetch(KeyFetch(audit_id))
            return None

        def burst():
            procs = [sim.process(reader()) for _ in range(READERS)]
            yield sim.all_of(procs)
            return None

        sim.run_process(burst())
    elapsed = sim.now - start
    return elapsed, _blocking_rpcs(session) - baseline, len(
        key_service.access_log.entries(kind="fetch")
    )


def test_coalescing_burst(benchmark, record_table):
    def run():
        table = ResultTable(
            "Coalescing burst: 8 rounds x 16 concurrent same-ID fetches (3G)",
            ["run", "elapsed_s", "blocking_rpcs", "service_log_entries"],
        )
        for label, fast in (("default", False), ("fast-transport", True)):
            elapsed, blocking, entries = _run_burst(fast)
            table.add(label, elapsed, blocking, entries)
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    record_table(table, "transport_burst")

    rows = {row[0]: row for row in table.rows}
    _, default_s, default_rpcs, default_entries = rows["default"]
    _, fast_s, fast_rpcs, fast_entries = rows["fast-transport"]
    # One round-trip (and one audit record) per burst, not per reader.
    assert fast_rpcs == ROUNDS
    assert fast_entries == ROUNDS
    assert default_rpcs == ROUNDS * READERS
    # Sharing the in-flight fetch delays nobody (within the few
    # microseconds of v2 framing/marshal overhead).
    assert fast_s <= default_s * 1.01
    benchmark.extra_info["rpc_reduction_x"] = default_rpcs / fast_rpcs


def test_transport_ablation_parallel_compile(benchmark, record_table):
    # Short Texp (the paper's worst case, Fig 7 left edge) keeps keys
    # expiring mid-build, so workers keep missing concurrently; pure FS
    # time (no compiler CPU) keeps them in lock-step on the wire.
    base = KeypadConfig(texp=3.0, prefetch="none", ibe_enabled=False)
    arms = (
        ("default", base),
        ("fast-transport", KeypadConfig.builder(base).fast_transport().build()),
    )

    def run():
        table = ResultTable(
            "Transport ablation: parallel Apache compile (3G, make -j8)",
            ["run", "fs_time_s", "blocking_rpcs", *TRANSPORT_METRIC_COLUMNS],
        )
        for label, config in arms:
            result, rig = run_parallel_compile(
                network=THREE_G, config=config, jobs=8, include_cpu=False
            )
            table.add(label, result.seconds, _blocking_rpcs(rig.services),
                      *transport_metrics_row(rig.services))
        table.note("fast-transport = pipelining + single-flight coalescing "
                   "+ write-behind batching + 4 key-service shards")
        table.note("blocking_rpcs = channel calls a foreground process "
                   "waited on (excludes handshakes and write-behind flushes)")
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    record_table(table, "transport_ablation")

    cols = ["run", "fs_time_s", "blocking_rpcs", *TRANSPORT_METRIC_COLUMNS]
    by_run = {row[0]: dict(zip(cols, row)) for row in table.rows}
    default = by_run["default"]
    fast = by_run["fast-transport"]

    # The headline claim: fewer blocking service round-trips.
    assert fast["blocking_rpcs"] < default["blocking_rpcs"], (
        f"fast transport did not reduce blocking round-trips: "
        f"{fast['blocking_rpcs']} vs {default['blocking_rpcs']}"
    )
    # Concurrent workers actually shared in-flight fetches...
    assert fast["coalesced"] > 0
    # ...over the pipelined path, with a real multi-request window.
    assert fast["pipelined"] > 0
    assert fast["inflight_hwm"] >= 2
    # Deferred eviction notices rode batch RPCs instead of the seed's
    # per-call path.
    assert fast["batched"] > 0
    # The default arm exercises none of the new machinery.
    assert default["pipelined"] == 0
    assert default["coalesced"] == 0
    assert default["inflight_hwm"] == 0
    # And the optimisations must not slow the build down.
    assert fast["fs_time_s"] <= default["fs_time_s"] * 1.05

    benchmark.extra_info["blocking_rpc_reduction"] = (
        default["blocking_rpcs"] - fast["blocking_rpcs"]
    )
    benchmark.extra_info["fs_time_speedup_%"] = round(
        100.0 * (default["fs_time_s"] - fast["fs_time_s"])
        / default["fs_time_s"], 1,
    )


def test_transport_ablation_trace_reconciliation(benchmark, record_table):
    """Tracing on: the span tree's blocking-RPC count must equal the
    channel-counter formula exactly, on both transport arms — proof the
    trace is complete (no RPC escapes its span) and honest (no span
    without a wire call)."""
    base = KeypadConfig(texp=3.0, prefetch="none", ibe_enabled=False)
    arms = (
        ("default", KeypadConfig.builder(base).tracing().build()),
        ("fast-transport",
         KeypadConfig.builder(base).fast_transport().tracing().build()),
    )

    def run():
        table = ResultTable(
            "Trace reconciliation: span totals vs channel counters "
            "(3G, make -j8, small scale)",
            ["run", "span_blocking", "counter_blocking", "rpc_total",
             "handshakes", "non_blocking"],
        )
        summaries = {}
        for label, config in arms:
            _result, rig = run_parallel_compile(
                network=THREE_G, config=config, jobs=8,
                include_cpu=False, scale=0.1,
            )

            def drain():
                # Calls count at issue time, spans at completion: let
                # in-flight background refreshes/flushes land before
                # comparing the two.
                yield rig.sim.timeout(30.0)

            rig.run(drain())
            tracer = rig.tracer
            table.add(label, tracer.blocking_rpcs(),
                      _blocking_rpcs(rig.services), tracer.rpc_total,
                      tracer.rpc_handshakes, tracer.rpc_nonblocking)
            summaries[label] = tracer.summary()
        table.note("span_blocking = rpc spans - handshakes - write-behind "
                   "spans; counter_blocking = channel calls - handshakes "
                   "- write-behind flushes")
        table.spans_summaries = summaries
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)

    from repro.harness.runner import ArmResult, attach_perf

    rows = {row[0]: row for row in table.rows}
    attach_perf(
        table, "transport_trace",
        [ArmResult(label=label, value=None, wall_s=0.0, cpu_s=0.0)
         for label, _ in arms],
        jobs=1,
        spans_summary=table.spans_summaries,
    )
    for arm, perf_arm in zip(arms, table.perf.arms):
        perf_arm.blocking_rpcs = rows[arm[0]][1]
    record_table(table, "transport_trace")

    for label, _config in arms:
        _, span_blocking, counter_blocking, rpc_total, *_rest = rows[label]
        assert span_blocking == counter_blocking, (
            f"{label}: span-derived blocking RPCs ({span_blocking}) != "
            f"channel-counter formula ({counter_blocking})"
        )
        assert rpc_total > 0
    # The fast arm's handshakes and write-behind traffic are non-zero —
    # the reconciliation is subtracting something real.
    assert rows["fast-transport"][4] > 0
    assert rows["fast-transport"][5] > 0
