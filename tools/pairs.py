#!/usr/bin/env python3
"""Paired, alternating ledger runs of two commits:
``tools/pairs.py BASE CHANGE --workload W --seed S --pairs N``.

Checks both commits out into temporary ``git worktree``s, then runs the
ledger's one-run form (``benchmarks/ledger/run.py --workload W --seed S
--seconds T --trace 0``) in each, N times, alternating which side goes
first so slow and fast periods of the machine fall on both.  Prints,
for every end-to-end metric, each side's median [quartiles], the ratio
CHANGE/BASE of the medians, and in how many pairs CHANGE was the better
one; then the ledger's sim-identity check (``compare.py``): whether
every simulated statistic and program count of the two commits is
identical, as a pure speed-up must leave them.

Exits non-zero when a run fails its own checks or the simulated
statistics differ.  Run from anywhere inside the repository.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "benchmarks" / "ledger"
PREFIX = "ledger-detail: "


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def one_run(tree: Path, args) -> dict:
    """One run of the ledger's one-run form in ``tree``: its detail
    line (end-to-end values, simulated statistics, counts)."""
    command = [sys.executable, "benchmarks/ledger/run.py",
               "--workload", args.workload, "--seed", args.seed,
               "--seconds", str(args.seconds), "--trace", "0"]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True,
                          timeout=1800)
    for line in done.stdout.splitlines():
        if line.startswith(PREFIX):
            detail = json.loads(line[len(PREFIX):])
            if done.returncode == 0:
                return detail
    raise SystemExit(f"{tree.name}: run exited {done.returncode}\n"
                     f"{done.stderr[-2000:]}")


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", default="fleet_drr")
    parser.add_argument("--seed", default="ledger-0")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--smoke", action="store_true",
                        help="the ledger's tenth-size workloads")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"base": args.base, "change": args.change}
    shas = {side: git("rev-parse", "--short", rev)
            for side, rev in sides.items()}
    runs: dict = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="pairs-") as scratch:
        trees = {side: Path(scratch) / side for side in sides}
        for side, rev in sides.items():
            git("worktree", "add", "--detach", str(trees[side]), rev)
        try:
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    runs[side].append(one_run(trees[side], args))
                print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
        finally:
            for tree in trees.values():
                git("worktree", "remove", "--force", str(tree))

    print(f"{args.workload}  seed {args.seed}  {args.pairs} pairs of "
          f"{args.seconds:g} s  base {shas['base']}  change {shas['change']}")
    print(f"{'metric':<16}{'base median [q1, q3]':>30}"
          f"{'change median [q1, q3]':>30}{'change/base':>12}{'wins':>7}")
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [run["end_to_end"][name] for run in runs[side]]
                  for side in runs}
        cells = []
        for side in ("base", "change"):
            q1, q3 = quartiles(values[side])
            cells.append(f"{statistics.median(values[side]):.6g} "
                         f"[{q1:.6g}, {q3:.6g}]")
        wins = sum(1 for b, c in zip(values["base"], values["change"])
                   if (c < b if lower else c > b))
        ratio = (statistics.median(values["change"])
                 / statistics.median(values["base"]))
        print(f"{name:<16}{cells[0]:>30}{cells[1]:>30}{ratio:>12.4f}"
              f"{wins:>4}/{args.pairs}")

    sys.path.insert(0, str(LEDGER))
    import compare

    def as_result(detail: dict) -> dict:
        return {"workloads": {args.workload: detail}}

    differ = [name for side in runs for run in runs[side][1:]
              for name in compare.changed_statistics(
                  as_result(runs[side][0]), as_result(run))[args.workload]]
    differ += compare.changed_statistics(
        as_result(runs["base"][0]),
        as_result(runs["change"][0]))[args.workload]
    print(f"{args.workload}: simulated statistics and counts "
          + ("identical" if not differ else
             "differ in " + ", ".join(sorted(set(differ))[:8])))
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
