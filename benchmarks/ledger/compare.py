"""Compare two ledger result files: ``compare.py BASE.json NEW.json``.

For every (metric, workload) prints base, new, the ratio new/base, the
bound, and a verdict:

* ``ok``         — the new median is no worse than the base by more than
  the bound;
* ``worse``      — it is worse by more than the bound;
* ``unresolved`` — the spread between repeats (quartile distance over
  the median, on either side) is wider than the bound and the two sets
  of runs overlap, so the files cannot tell.

A ``sim`` or ``count`` metric repeats exactly for a seed, so when both
files were measured on the same seed any worsening of one is ``worse``,
whatever the bound.  For the same reason the last lines say, workload
by workload, whether *every* simulated statistic and program counter of
the two files is identical — what a pure speed-up must leave unchanged.
Exits non-zero when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys


def worsening(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def spread(metric: dict) -> float:
    return (metric["q3"] - metric["q1"]) / abs(metric["median"])


def verdict(base: dict, new: dict, same_seed: bool) -> str:
    better = base["better"]
    worse_by = worsening(base["median"], new["median"], better)
    if same_seed and base["base"] != "host":
        return "worse" if worse_by > 0 else "ok"
    bound = base["bound"]
    if max(spread(base), spread(new)) > bound:
        sign = 1 if better == "lower" else -1
        if max(sign * v for v in new["values"]) \
                < min(sign * v for v in base["values"]):
            return "ok"        # every new run beats every base run
        if worse_by > bound and min(sign * v for v in new["values"]) \
                > max(sign * v for v in base["values"]):
            return "worse"     # every new run loses, by more than the bound
        return "unresolved"
    return "worse" if worse_by > bound else "ok"


def compare(base: dict, new: dict) -> list:
    """Rows ``(workload, metric, base, new, ratio, bound, verdict)``."""
    same_seed = base["env"]["seed"] == new["env"]["seed"]
    rows = []
    for workload, entry in base["workloads"].items():
        if workload not in new["workloads"]:
            continue
        for name, metric in entry["metrics"].items():
            other = new["workloads"][workload]["metrics"][name]
            rows.append((
                workload, name, metric["median"], other["median"],
                other["median"] / metric["median"], metric["bound"],
                verdict(metric, other, same_seed),
            ))
    return rows


def changed_statistics(base: dict, new: dict) -> dict:
    """``{workload: [names]}`` of exact statistics that differ."""
    out = {}
    for workload, entry in base["workloads"].items():
        other = new["workloads"].get(workload)
        if other is None:
            continue
        names = [f"round {index}: {key}"
                 for index, (a, b) in enumerate(zip(entry["sim"],
                                                    other["sim"]))
                 for key in a if a[key] != b.get(key)]
        names += [key for key, value in entry["counts"].items()
                  if value != other["counts"].get(key)]
        out[workload] = names
    return out


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(open(path).read()) for path in paths)
    rows = compare(base, new)
    print(f"base {paths[0]}  sha {base['env']['git_sha']}  "
          f"seed {base['env']['seed']}")
    print(f"new  {paths[1]}  sha {new['env']['git_sha']}  "
          f"seed {new['env']['seed']}")
    print(f"{'workload':<17}{'metric':<16}{'base':>14}{'new':>14}"
          f"{'new/base':>10}{'bound':>7}  verdict")
    for workload, name, old, now, ratio, bound, outcome in rows:
        print(f"{workload:<17}{name:<16}{old:>14.6g}{now:>14.6g}"
              f"{ratio:>10.4f}{bound:>7.0%}  {outcome}")
    tally = {outcome: sum(1 for row in rows if row[-1] == outcome)
             for outcome in ("ok", "worse", "unresolved")}
    print(", ".join(f"{count} {outcome}" for outcome, count in tally.items()))
    if base["env"]["seed"] == new["env"]["seed"]:
        for workload, names in changed_statistics(base, new).items():
            print(f"{workload}: simulated statistics and counts "
                  + ("identical" if not names
                     else "differ in " + ", ".join(names[:8])
                     + (" ..." if len(names) > 8 else "")))
    return 1 if tally["worse"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
