"""Compare a BENCH_*.json perf record against a checked-in baseline.

Usage::

    python benchmarks/check_perf.py benchmarks/results/BENCH_kernels.json \
        --baseline benchmarks/baselines/BENCH_kernels_baseline.json \
        --tolerance 0.30

The comparison runs over ``meta.speedups`` — optimized-vs-reference
ratios measured in a single process, so they are stable across machine
speeds (unlike absolute MB/s).  A kernel fails the check when its
current speedup drops more than ``tolerance`` below the baseline.

A baseline may also carry ``meta.counts``: machine-independent
quantities (e.g. entry encodes per appended entry) that repeat exactly,
so each is a ceiling with no tolerance — the current count fails the
check as soon as it exceeds the baseline's.
"""

from __future__ import annotations

import argparse
import json
import sys


def check(current: dict, baseline: dict, tolerance: float) -> list[str]:
    problems = []
    base_speedups = baseline.get("meta", {}).get("speedups", {})
    cur_speedups = current.get("meta", {}).get("speedups", {})
    if not base_speedups:
        problems.append("baseline has no meta.speedups to compare against")
    for kernel, base in sorted(base_speedups.items()):
        cur = cur_speedups.get(kernel)
        if cur is None:
            problems.append(f"{kernel}: missing from current run")
            continue
        floor = base * (1.0 - tolerance)
        if cur < floor:
            problems.append(
                f"{kernel}: speedup {cur:.2f}x regressed below "
                f"{floor:.2f}x (baseline {base:.2f}x - {tolerance:.0%})"
            )
    cur_counts = current.get("meta", {}).get("counts", {})
    for name, ceiling in sorted(
            baseline.get("meta", {}).get("counts", {}).items()):
        cur = cur_counts.get(name)
        if cur is None:
            problems.append(f"{name}: missing from current run")
        elif cur > ceiling:
            problems.append(
                f"{name}: count {cur:g} exceeds the ceiling {ceiling:g}"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="BENCH_*.json from this run")
    parser.add_argument("--baseline", required=True,
                        help="checked-in baseline BENCH json")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional regression (default 0.30)")
    args = parser.parse_args(argv)
    with open(args.current, encoding="utf-8") as handle:
        current = json.load(handle)
    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)
    problems = check(current, baseline, args.tolerance)
    for problem in problems:
        print(f"PERF REGRESSION: {problem}", file=sys.stderr)
    if not problems:
        cur_speedups = current.get("meta", {}).get("speedups", {})
        summary = ", ".join(
            [f"{k} {v:.2f}x" for k, v in sorted(cur_speedups.items())]
            + [f"{k} {v:g}" for k, v in sorted(
                current.get("meta", {}).get("counts", {}).items())])
        print(f"perf check passed ({summary})")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
