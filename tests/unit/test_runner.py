"""Tests for the parallel experiment engine.

The load-bearing property: rendered tables must be byte-identical at
any ``KEYPAD_BENCH_JOBS`` setting — parallelism may only change wall
clock, never results.
"""

import json

import pytest

from repro.harness.compilebench import fig7_key_expiration
from repro.harness.results import ResultTable
from repro.harness.runner import (
    ArmPerf,
    ArmResult,
    BenchPerf,
    attach_perf,
    bench_jobs,
    derive_arm_seed,
    run_arms,
    run_tasks,
    write_bench_json,
)
from repro.api import LAN, THREE_G


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x}")


class TestRunTasks:
    def test_serial_preserves_order_and_labels(self):
        results = run_tasks([(_square, (i,)) for i in range(5)], jobs=1)
        assert [r.value for r in results] == [0, 1, 4, 9, 16]
        assert [r.label for r in results] == [f"arm-{i}" for i in range(5)]
        assert all(r.wall_s >= 0 and r.cpu_s >= 0 for r in results)

    def test_parallel_matches_serial(self):
        serial = run_tasks([(_square, (i,)) for i in range(8)], jobs=1)
        parallel = run_tasks([(_square, (i,)) for i in range(8)], jobs=4)
        assert [r.value for r in serial] == [r.value for r in parallel]

    def test_label_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run_tasks([(_square, (1,))], labels=["a", "b"], jobs=1)

    def test_run_arms_default_labels(self):
        results = run_arms(_square, [(2,), (3,)], jobs=1)
        assert [r.label for r in results] == ["2", "3"]
        assert [r.value for r in results] == [4, 9]

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="boom"):
            run_tasks([(_boom, (1,))], jobs=1)
        with pytest.raises(ValueError, match="boom"):
            run_tasks([(_boom, (1,)), (_boom, (2,))], jobs=2)


class TestBenchJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("KEYPAD_BENCH_JOBS", raising=False)
        assert bench_jobs() == 1

    def test_env_parsing(self, monkeypatch):
        monkeypatch.setenv("KEYPAD_BENCH_JOBS", "4")
        assert bench_jobs() == 4
        monkeypatch.setenv("KEYPAD_BENCH_JOBS", "0")
        assert bench_jobs() == 1
        monkeypatch.setenv("KEYPAD_BENCH_JOBS", "not-a-number")
        assert bench_jobs() == 1


class TestDeriveArmSeed:
    def test_deterministic(self):
        assert derive_arm_seed(b"fig7", "3G", 1.0) == \
            derive_arm_seed(b"fig7", "3G", 1.0)
        assert len(derive_arm_seed(b"fig7", "3G", 1.0)) == 16

    def test_distinct_across_arms_and_bases(self):
        seeds = {
            derive_arm_seed(b"fig7", net, texp)
            for net in ("LAN", "3G")
            for texp in (1.0, 10.0, 60.0)
        }
        assert len(seeds) == 6
        assert derive_arm_seed(b"fig7", "3G") != derive_arm_seed(b"fig11", "3G")

    def test_bytes_parts_pass_through(self):
        assert derive_arm_seed(b"x", b"raw") == derive_arm_seed(b"x", b"raw")
        assert derive_arm_seed(b"x", b"a", b"b") != derive_arm_seed(b"x", b"ab")


class TestPerfRecord:
    def test_attach_and_write(self, tmp_path):
        table = ResultTable("t", ["a"])
        results = [
            ArmResult(label="one", value={"rpcs": 7}, wall_s=0.5, cpu_s=0.4),
            ArmResult(label="two", value={"rpcs": 3}, wall_s=0.25, cpu_s=0.2),
        ]
        perf = attach_perf(table, "demo", results,
                           rpcs=lambda v: v["rpcs"], jobs=2, note="hi")
        assert table.perf is perf
        path = write_bench_json(perf, tmp_path)
        data = json.loads(open(path, encoding="utf-8").read())
        assert path.endswith("BENCH_demo.json")
        assert data["bench"] == "demo"
        assert data["jobs"] == 2
        assert data["arm_count"] == 2
        assert [a["label"] for a in data["arms"]] == ["one", "two"]
        assert [a["blocking_rpcs"] for a in data["arms"]] == [7, 3]
        assert data["total_wall_s"] == pytest.approx(0.75)
        assert data["meta"] == {"note": "hi"}

    def test_wall_override(self):
        perf = BenchPerf(bench="b", jobs=4,
                         arms=[ArmPerf("a", 1.0, 1.0)],
                         total_wall_s=0.3, total_cpu_s=1.0)
        assert perf.as_dict()["total_wall_s"] == 0.3

    def test_spans_summary_omitted_when_untraced(self):
        """Untraced records carry no spans_summary key at all, so the
        BENCH_*.json schema is backward compatible byte-for-byte."""
        perf = BenchPerf(bench="b", jobs=1)
        assert "spans_summary" not in perf.as_dict()

    def test_spans_summary_attached_when_traced(self, tmp_path):
        from repro.core.context import OpContext, TraceCollector

        class Clock:
            now = 0.0

        collector = TraceCollector()
        ctx = OpContext(Clock(), "read", collector=collector)
        ctx.event("keycache.hit")
        ctx.finish()

        table = ResultTable("t", ["a"])
        results = [ArmResult(label="one", value={}, wall_s=0.1, cpu_s=0.1)]
        perf = attach_perf(table, "traced", results, jobs=1,
                           spans_summary=collector.summary())
        path = write_bench_json(perf, tmp_path)
        data = json.loads(open(path, encoding="utf-8").read())
        assert data["spans_summary"]["ops"] == 1
        assert data["spans_summary"]["by_span"]["keycache.hit"]["count"] == 1


class TestParallelFigureIdentity:
    """A parallel Fig 7 run must render byte-identical to serial."""

    _KW = dict(texps=(1.0, 10.0), networks=(LAN, THREE_G), scale=0.05)

    def test_fig7_parallel_identical_to_serial(self):
        serial = fig7_key_expiration(jobs=1, **self._KW)
        parallel = fig7_key_expiration(jobs=2, **self._KW)
        assert parallel.render() == serial.render()
        # Perf records exist for both, one arm per (network, texp) cell.
        assert serial.perf.jobs == 1
        assert parallel.perf.jobs == 2
        assert len(parallel.perf.arms) == 4
        assert [a.label for a in parallel.perf.arms] == \
            [a.label for a in serial.perf.arms]
        assert all(a.blocking_rpcs > 0 for a in parallel.perf.arms)

    def test_env_jobs_respected(self, monkeypatch):
        monkeypatch.setenv("KEYPAD_BENCH_JOBS", "2")
        table = fig7_key_expiration(**self._KW)
        assert table.perf.jobs == 2
