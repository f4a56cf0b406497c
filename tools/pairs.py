#!/usr/bin/env python3
"""Paired, alternating ledger runs of two commits:
``tools/pairs.py BASE CHANGE --workload W --seed S [--seed S2 ...]
--pairs N``.

Checks both commits out into temporary ``git worktree``s, then, for each
seed in turn, runs the ledger's one-run form (``benchmarks/ledger/run.py
--workload W --seed S --seconds T --trace 0``) in each, N times,
alternating which side goes first so slow and fast periods of the
machine fall on both.  Prints, per seed and for every end-to-end metric,
each side's median [quartiles], the ratio CHANGE/BASE of the medians,
in how many pairs CHANGE was the better one, and a verdict:

* the metric named by ``--claim``: "claim holds" only when CHANGE won
  at least nine tenths of the pairs (ties count for neither) and its
  median beats BASE's by more than BASE's quartile distance, else
  "claim not met";
* every other metric, against its bound in ``BENCHMARK.json``: "worse"
  when CHANGE's median is worse than BASE's by more than the bound,
  "unresolved" when either side's quartile distance is wider than the
  bound (unless every CHANGE run beats every BASE run), else "ok".

Then one line comparing the worst CHANGE run of the claimed metric
(``host_ops_per_s`` without ``--claim``) with the best BASE run; with
``--claim``, a markdown table for ``docs/PERFORMANCE.md`` with one row
per end-to-end metric, the claimed one first (metric, seed, pairs, each
side's median [q1, q3], ratio, wins, verdict); and the ledger's
sim-identity check (``compare.py``): whether every simulated statistic
and program count of the two commits is identical, as a pure speed-up
must leave them.

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


def one_run(tree: Path, args, seed: str) -> dict:
    """One run of the ledger's one-run form in ``tree``: its detail
    line (end-to-end values, simulated statistics, counts)."""
    command = [sys.executable, "benchmarks/ledger/run.py",
               "--workload", args.workload, "--seed", seed,
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


def _gain(base: float, change: float, lower: bool) -> float:
    """How much better ``change`` is than ``base`` (negative: worse)."""
    return base - change if lower else change - base


def count_wins(base: list, change: list, lower: bool) -> int:
    """Pairs in which change was the better side; ties count for neither."""
    return sum(1 for b, c in zip(base, change) if _gain(b, c, lower) > 0)


def _separated(base: list, change: list, lower: bool) -> bool:
    """Whether every change run beats every base run."""
    if lower:
        return max(change) < min(base)
    return min(change) > max(base)


def verdict(base: list, change: list, better: str, bound: float,
            claimed: bool = False) -> str:
    """The verdict on one metric from paired runs (see the module
    docstring); ``base[i]`` and ``change[i]`` are pair ``i``."""
    lower = better == "lower"
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    if claimed:
        q1, q3 = quartiles(base)
        holds = (10 * count_wins(base, change, lower) >= 9 * len(base)
                 and _gain(base_median, change_median, lower) > q3 - q1)
        return "claim holds" if holds else "claim not met"
    if _separated(base, change, lower):
        return "ok"
    loss = -_gain(base_median, change_median, lower)
    if loss > 0 and (base_median == 0 or loss / abs(base_median) > bound):
        return "worse"
    for values in (base, change):
        q1, q3 = quartiles(values)
        median = statistics.median(values)
        if (q3 - q1) > bound * abs(median):
            return "unresolved"
    return "ok"


def extremes_line(name: str, base: list, change: list, better: str) -> str:
    """The worst change run of ``name`` against the best base run."""
    lower = better == "lower"
    worst_change = max(change) if lower else min(change)
    best_base = min(base) if lower else max(base)
    relation = ("every change run beats every base run"
                if _separated(base, change, lower)
                else "the two sides' runs overlap")
    return (f"{name}: worst change run {worst_change:.6g}, best base run "
            f"{best_base:.6g}: {relation}")


def _number(value: float) -> str:
    """A cell value: thousands grouped, else four significant digits."""
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"


MARKDOWN_HEADER = ("| metric | seed | pairs | base median [q1, q3] | "
                   "change median [q1, q3] | change/base | wins | verdict |\n"
                   "|---|---|---|---|---|---|---|---|")


def markdown_row(metric: str, seed: str, base: list, change: list,
                 better: str, said: str) -> str:
    """One metric's paired runs as a row under ``MARKDOWN_HEADER``."""
    cells = []
    for values in (base, change):
        q1, q3 = quartiles(values)
        cells.append(f"{_number(statistics.median(values))} "
                     f"[{_number(q1)}, {_number(q3)}]")
    ratio = statistics.median(change) / statistics.median(base)
    wins = count_wins(base, change, better == "lower")
    return (f"| `{metric}` | `{seed}` | {len(base)} | {cells[0]} | "
            f"{cells[1]} | {ratio:.2f}× | {wins}/{len(base)} | {said} |")


def markdown_table(seed: str, values_of: dict, metrics: dict,
                   said_of: dict, claim: str) -> str:
    """``MARKDOWN_HEADER`` and one row per metric of ``values_of``
    (``name -> {"base": [...], "change": [...]}``), ``claim`` first."""
    names = [claim] + [name for name in values_of if name != claim]
    return "\n".join([MARKDOWN_HEADER] + [
        markdown_row(name, seed, values_of[name]["base"],
                     values_of[name]["change"], metrics[name]["better"],
                     said_of[name])
        for name in names])


def report(spec: dict, args, seed: str, runs: dict, shas: dict) -> bool:
    """Print one seed's table, extremes line, markdown row and
    sim-identity check; True when the simulated statistics differ."""
    metrics = {metric["name"]: metric for metric in spec["end_to_end"]}
    print(f"{args.workload}  seed {seed}  {args.pairs} pairs of "
          f"{args.seconds:g} s  base {shas['base']}  change {shas['change']}")
    print(f"{'metric':<16}{'base median [q1, q3]':>32}  "
          f"{'change median [q1, q3]':>32}{'change/base':>12}{'wins':>7}"
          f"  verdict")
    values_of, said_of = {}, {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [run["end_to_end"][name] for run in runs[side]]
                  for side in runs}
        values_of[name] = values
        cells = []
        for side in ("base", "change"):
            q1, q3 = quartiles(values[side])
            cells.append(f"{statistics.median(values[side]):.6g} "
                         f"[{q1:.6g}, {q3:.6g}]")
        wins = count_wins(values["base"], values["change"], lower)
        ratio = (statistics.median(values["change"])
                 / statistics.median(values["base"]))
        said = verdict(values["base"], values["change"], metric["better"],
                       metric["bound"], claimed=name == args.claim)
        said_of[name] = said
        print(f"{name:<16}{cells[0]:>32}  {cells[1]:>32}{ratio:>12.4f}"
              f"{wins:>4}/{args.pairs}  {said}")
    extreme = args.claim or "host_ops_per_s"
    print(extremes_line(extreme, values_of[extreme]["base"],
                        values_of[extreme]["change"],
                        metrics[extreme]["better"]))
    if args.claim is not None:
        print(markdown_table(seed, values_of, metrics, said_of, args.claim))

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
    return bool(differ)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", default="fleet_drr")
    parser.add_argument("--seed", action="append", dest="seeds",
                        metavar="SEED",
                        help="repeat for several seeds (default ledger-0)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--smoke", action="store_true",
                        help="the ledger's tenth-size workloads")
    parser.add_argument("--claim", metavar="METRIC",
                        help="the end-to-end metric the change claims "
                             "to improve")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {metric["name"] for metric in spec["end_to_end"]}
    if args.claim is not None and args.claim not in metrics:
        parser.error(f"--claim: no end-to-end metric {args.claim!r}")
    seeds = args.seeds or ["ledger-0"]
    sides = {"base": args.base, "change": args.change}
    shas = {side: git("rev-parse", "--short", rev)
            for side, rev in sides.items()}
    runs_of: dict = {seed: {"base": [], "change": []} for seed in seeds}
    with tempfile.TemporaryDirectory(prefix="pairs-") as scratch:
        trees = {side: Path(scratch) / side for side in sides}
        for side, rev in sides.items():
            git("worktree", "add", "--detach", str(trees[side]), rev)
        try:
            for seed in seeds:
                runs = runs_of[seed]
                for i in range(args.pairs):
                    order = (("base", "change") if i % 2 == 0
                             else ("change", "base"))
                    for side in order:
                        runs[side].append(one_run(trees[side], args, seed))
                    print(f"{seed}: pair {i + 1}/{args.pairs} done",
                          file=sys.stderr)
        finally:
            for tree in trees.values():
                git("worktree", "remove", "--force", str(tree))

    differ = False
    for seed in seeds:
        differ |= report(spec, args, seed, runs_of[seed], shas)
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
