"""Event-kernel benchmarks: calendar-queue scheduler vs the heap oracle.

``Simulation`` runs on the calendar-queue scheduler with O(1) amortized
insert/pop; the original binary-heap scheduler is kept in
``repro.sim.kernel`` as the trace-equivalence oracle.  This bench times
both — the heap patched in for the calendar queue with
``unittest.mock.patch.object`` — over three shapes and records the
speedup — a machine-independent ratio measured in one process — into
``BENCH_sim_kernel.json``, which CI compares against the checked-in
baseline in ``benchmarks/baselines/`` (>30% regression fails).

Arms:

* ``dense_timeout`` — thousands of interleaved short timers, the shape
  of per-request deadline scheduling in a big fleet arm;
* ``queue_churn``   — producer/consumer wait-list churn layered on
  timers (enqueue, cancel, re-enqueue traffic);
* ``fleet_slice``   — a small end-to-end ``run_fleet`` arm.
"""

from __future__ import annotations

import contextlib
import time
from unittest import mock

from repro.harness.results import ResultTable
from repro.harness.runner import ArmPerf, BenchPerf, bench_jobs
from repro.sim import Simulation, kernel
from repro.workloads.fleet import run_fleet


def _scheduler(name: str):
    """Context in which new Simulations run on the named scheduler."""
    if name == "calendar":
        return contextlib.nullcontext()
    return mock.patch.object(kernel, "_CalendarScheduler",
                             kernel._HeapScheduler)


def _secs(fn, scheduler: str, reps: int = 3) -> float:
    """Best-of-``reps`` wall seconds for one ``fn()`` run on
    ``scheduler``."""
    best = float("inf")
    with _scheduler(scheduler):
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
    return best


def _dense_timeout() -> None:
    sim = Simulation()

    def device(i: int):
        base = (i % 997) * 1e-4 + 1e-6
        for k in range(12):
            yield sim.timeout(base + (k % 13) * 3.7e-5)

    for i in range(8000):
        sim.process(device(i))
    sim.run()


def _queue_churn() -> None:
    sim = Simulation()
    queue = sim.queue()

    def producer(i: int):
        for k in range(40):
            yield sim.timeout((i % 11) * 1e-4)
            queue.put((i, k))

    def consumer(i: int):
        for _ in range(40):
            yield queue.get()
            yield sim.timeout(5e-5)

    for i in range(150):
        sim.process(producer(i))
        sim.process(consumer(i))
    sim.run()


def _fleet_slice() -> None:
    run_fleet(devices=250, duration=2.0, seed=b"bench-slice",
              frontend={"policy": "drr"}, fleet_shards=1)


def _bench_rows() -> tuple[list[tuple], dict[str, float]]:
    rows: list[tuple] = []
    speedups: dict[str, float] = {}

    arms = [
        ("dense_timeout", _dense_timeout, 3),
        ("queue_churn", _queue_churn, 3),
        ("fleet_slice", _fleet_slice, 2),
    ]
    for label, fn, reps in arms:
        heap_s = _secs(fn, "heap", reps=reps)
        cal_s = _secs(fn, "calendar", reps=reps)
        speedup = heap_s / cal_s
        rows.append((label, round(heap_s * 1e3, 1), round(cal_s * 1e3, 1),
                     round(speedup, 2)))
        speedups[label] = speedup
    return rows, speedups


def build_table() -> ResultTable:
    wall0, cpu0 = time.perf_counter(), time.process_time()
    rows, speedups = _bench_rows()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    table = ResultTable(
        "Event-kernel benchmarks (heap oracle vs calendar queue)",
        ["arm", "heap_ms", "calendar_ms", "speedup"],
    )
    for row in rows:
        table.add(*row)
    table.note("the heap kernel is the trace-equivalence oracle the "
               "calendar queue is property-tested against")
    table.perf = BenchPerf(
        bench="sim_kernel",
        jobs=bench_jobs(),
        arms=[ArmPerf(label=row[0], wall_s=wall / len(rows),
                      cpu_s=cpu / len(rows)) for row in rows],
        total_wall_s=wall,
        total_cpu_s=cpu,
        meta={"speedups": {k: round(v, 3) for k, v in speedups.items()}},
    )
    return table


def test_sim_kernel_bench(record_table):
    table = build_table()
    record_table(table, "sim_kernel")
    speedups = table.perf.meta["speedups"]
    # The calendar queue must not lose to the heap anywhere; the dense
    # timer arm is where its O(1) insert/pop pays off.
    assert speedups["dense_timeout"] > 1.05
    assert speedups["queue_churn"] > 0.85
    assert speedups["fleet_slice"] > 0.9


if __name__ == "__main__":
    import pathlib

    from repro.harness.runner import write_bench_json

    table = build_table()
    print(table.render())
    print(write_bench_json(table.perf,
                           pathlib.Path(__file__).parent / "results"))
