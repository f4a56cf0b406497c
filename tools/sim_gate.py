#!/usr/bin/env python3
"""The ledger's simulated statistics as an exact gate:
``tools/sim_gate.py [--write]``.

Runs the ledger's one-run form (``benchmarks/ledger/run.py --workload W
--smoke --seconds 2.5 --trace 0``) for each of the five workloads, reads
the ``sim`` statistics and program ``counts`` off its ``ledger-detail:``
line, and compares them exactly with the committed
``benchmarks/baselines/ledger_sim.json``.  Both repeat exactly for a
seed and a Python version, so any difference is a change of behaviour,
not noise: the gate prints every differing key and exits 1.  A change
that moves them on purpose rewrites the baseline with ``--write`` in the
same diff.

Run it with Python 3.12, the version the baseline was written with: a
mean can differ in its last digit between versions (``meta_ibe``'s
``sim_op_mean_ms`` does between 3.11 and 3.12).  Run from anywhere
inside the repository.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BASELINE = ROOT / "benchmarks" / "baselines" / "ledger_sim.json"
PREFIX = "ledger-detail: "
WORKLOADS = ("fleet_drr", "compile_3g", "meta_ibe", "audit_durable",
             "cluster_faulted")


def measure(workload: str) -> dict:
    """One smoke run of ``workload``: its exact statistics."""
    command = [sys.executable, "benchmarks/ledger/run.py",
               "--workload", workload, "--smoke", "--seconds", "2.5",
               "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=1800)
    for line in done.stdout.splitlines():
        if line.startswith(PREFIX) and done.returncode == 0:
            detail = json.loads(line[len(PREFIX):])
            return {"sim": detail["sim"], "counts": detail["counts"]}
    raise SystemExit(f"{workload}: run exited {done.returncode}\n"
                     f"{done.stderr[-2000:]}")


def differences(expected, actual, path: str = "") -> list:
    """Every key path at which ``actual`` differs from ``expected``."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual), key=str):
            out += differences(expected.get(key), actual.get(key),
                               f"{path}.{key}" if path else str(key))
        return out
    if isinstance(expected, list) and isinstance(actual, list) \
            and len(expected) == len(actual):
        out = []
        for index, (a, b) in enumerate(zip(expected, actual)):
            out += differences(a, b, f"{path}[{index}]")
        return out
    return [] if expected == actual else [f"{path}: {expected!r} -> {actual!r}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite the baseline from this tree")
    args = parser.parse_args(argv)
    measured = {}
    for workload in WORKLOADS:
        measured[workload] = measure(workload)
        print(f"measured {workload}", flush=True)
    if args.write:
        BASELINE.write_text(json.dumps(measured, indent=1, sort_keys=True)
                            + "\n")
        print(f"wrote {BASELINE.relative_to(ROOT)}")
        return 0
    diffs = differences(json.loads(BASELINE.read_text()), measured)
    for line in diffs:
        print(f"DIFFERS {line}")
    print("simulated statistics and counts identical" if not diffs
          else f"{len(diffs)} differences from {BASELINE.name}")
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main())
