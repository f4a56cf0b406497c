"""``ledger`` — the repository's end-to-end and per-layer benchmark.

Two ways to run it, both from the repository root:

* **One measured run** (what ``BENCHMARK.json`` names as the command)::

      python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

  runs one workload in this process for ``round(S / 2.5)`` rounds,
  checks its outputs, and prints one JSON object as the last line:
  every end-to-end metric with ``--trace 0``, every per-layer metric
  (from a ``cProfile`` of the timed sections) with ``--trace 1``.

* **The whole ledger** (no ``--seconds``)::

      python3 benchmarks/ledger/run.py [--seed S] [--workload W] [--repeats R]
                                       [--trace] [--smoke] [--out FILE]

  launches every (workload, repeat) as a fresh subprocess of the form
  above, prints each end-to-end metric with unit, sample count,
  quartiles and regression bound, optionally the per-layer table, and
  writes everything to ``FILE`` for ``compare.py``.

Numbers are labelled **host** (what the machine running the
reproduction pays) or **sim** (what the modelled laptop user would
see; repeats exactly for a seed).  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
PREFIX = "ledger-detail: "
DEFAULT_SEED = "ledger-0"
#: set-ups timed in a run (each round's own, then more without a round)
SETUP_SAMPLES = 7

#: (name, unit, better) of every end-to-end metric, in print order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("host_ops_per_s", "1/s", "higher"),
    ("run_cpu_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("ok_share", "share", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p99_ms", "ms", "lower"),
    ("goodput_per_s", "1/s", "higher"),
)
#: which (metric, workload) pairs are read off the simulated clock:
#: latency where requests queue behind each other, goodput wherever a
#: simulation runs; every other number is host time or a count
SIM_CLOCK = {
    "op_p50_ms": ("fleet_drr", "cluster_faulted"),
    "op_p99_ms": ("fleet_drr", "cluster_faulted"),
    "goodput_per_s": ("fleet_drr", "compile_3g", "meta_ibe",
                      "cluster_faulted"),
}

#: per-layer counts: name -> (raw counter, divisor or None).  Raw
#: counters are summed over a run's rounds, except the high-water ones.
COUNT_METRICS = {
    "net.rpc.calls_per_op": ("net.rpc.calls", "ops"),
    "net.rpc.bytes_per_op": ("net.rpc.bytes", "ops"),
    "net.rpc.retries": ("net.rpc.retries", None),
    "net.rpc.deadline_expiries": ("net.rpc.deadline_expiries", None),
    "server.admitted": ("server.admitted", None),
    "server.shed": ("server.shed", None),
    "server.groups": ("server.groups", None),
    "server.grouped_requests": ("server.grouped_requests", None),
    "server.max_backlog": ("server.max_backlog", None),
    "server.fairness": ("server.fairness", None),
    "core.keycache.hit_ratio": ("core.keycache.hits",
                                "core.keycache.lookups"),
    "core.fs.blocking_key_fetches": ("core.fs.blocking_key_fetches", None),
    "core.fs.prefetched_keys": ("core.fs.prefetched_keys", None),
    "core.fs.blocking_metadata_ops": ("core.fs.blocking_metadata_ops", None),
    "core.fs.ibe_locks": ("core.fs.ibe_locks", None),
    "core.fs.ibe_unlocks": ("core.fs.ibe_unlocks", None),
    "storage.block_reads": ("storage.block_reads", None),
    "storage.block_writes": ("storage.block_writes", None),
    "auditstore.durable.flushes_per_entry": ("auditstore.durable.flushes",
                                             "auditstore.entries"),
    "auditstore.durable.spilled_segments": (
        "auditstore.durable.spilled_segments", None),
    "auditstore.durable.write_amp": ("storage.blob_bytes_written",
                                     "storage.blob_bytes_kept"),
    "auditstore.store.seals": ("auditstore.store.seals", None),
    "auditstore.views.rebuilds": ("auditstore.views.rebuilds", None),
    "cluster.client.hedged": ("cluster.client.hedged", None),
    "cluster.client.failovers": ("cluster.client.failovers", None),
    "cluster.client.retries": ("cluster.client.retries", None),
    "cluster.client.repairs": ("cluster.client.repairs", None),
    "cluster.merge.entries": ("cluster.merge.entries", None),
    "cluster.merge.divergences": ("cluster.merge.divergences", None),
}
HIGH_WATER = ("server.max_backlog", "server.fairness")


def unit_of_count(name: str) -> str:
    divided = COUNT_METRICS[name][1] is not None
    return "ratio" if divided or name == "server.fairness" else "count"


def base_of(metric: str, workload: str) -> str:
    """``host``, ``sim`` or ``count``: which clock a metric is read off."""
    if metric == "ok_share":
        return "count"
    return "sim" if workload in SIM_CLOCK.get(metric, ()) else "host"


def percentile(ordered: list, q: float) -> float:
    """Linear-interpolated percentile of an already sorted list."""
    at = (len(ordered) - 1) * q / 100.0
    low = int(at)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (at - low)


def seed_bytes(seed: str, workload: str, round_index: int) -> bytes:
    return hashlib.sha256(
        f"ledger|{seed}|{workload}|{round_index}".encode()).digest()[:16]


# --------------------------------------------------------------------------
# one measured run, in this process
# --------------------------------------------------------------------------

def measure(workload: str, seed: str, seconds: float, trace: bool,
            smoke: bool) -> dict:
    """Run ``workload`` for ``round(seconds / ROUND_SECONDS)`` rounds."""
    import layers
    import workloads

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
    setup, run = workloads.WORKLOADS[workload]
    size = (workloads.SMOKE_SIZES if smoke else workloads.SIZES)[workload]
    n_rounds = max(1, round(seconds / workloads.ROUND_SECONDS))
    profiler = cProfile.Profile() if trace else None

    def set_up(index: int, clock) -> object:
        with clock.setup():
            return setup(seed_bytes(seed, workload, index), size)

    def one_round(index: int, profiler=None) -> tuple:
        clock = workloads.Clock(profiler)
        return run(set_up(index, clock), size, clock), clock.setup_s

    rounds, setup_samples = map(list, zip(
        *(one_round(index, profiler) for index in range(n_rounds))))
    # set-up is short beside a round, so time a few more of them alone
    for index in range(n_rounds, SETUP_SAMPLES):
        clock = workloads.Clock()
        set_up(index, clock)
        setup_samples.append(clock.setup_s)
    problems = [f"round {index}: {problem}"
                for index, round_ in enumerate(rounds)
                for problem in round_.problems]

    latencies = sorted(lat for r in rounds for lat in r.latencies_ms)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    refused = sum(r.refused for r in rounds)
    samples = {
        "setup_s": setup_samples,
        "host_ops_per_s": [r.ops / r.wall_s for r in rounds],
        "run_cpu_s": [r.cpu_s for r in rounds],
        "goodput_per_s": [r.goodput for r in rounds],
    }
    end_to_end = {name: statistics.median(values)
                  for name, values in samples.items()}
    end_to_end.update({
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": (attempted - failed - refused) / attempted,
        "op_p50_ms": percentile(latencies, 50.0),
        "op_p99_ms": percentile(latencies, 99.0),
    })

    counts: dict = {"ops": sum(r.ops for r in rounds)}
    for round_ in rounds:
        for name, value in round_.counts.items():
            if name in HIGH_WATER:
                counts[name] = max(counts.get(name, 0), value)
            else:
                counts[name] = counts.get(name, 0) + value

    detail = {
        "workload": workload, "seed": seed, "rounds": n_rounds,
        "smoke": smoke, "trace": trace,
        "end_to_end": end_to_end, "samples": samples,
        "latency_samples": len(latencies),
        "attempted": attempted, "failed": failed, "refused": refused,
        "sim": [r.sim for r in rounds], "counts": counts,
        "problems": problems,
    }
    if trace:
        # The same inputs once more with the profiler off: the cost of
        # tracing, and proof that it did not perturb the simulation.
        again, _ = one_round(0)
        if (again.sim, again.counts) != (rounds[0].sim, rounds[0].counts):
            problems.append("traced and untraced rounds disagree on a "
                            "simulated statistic or a count")
        attribution = layers.attribute(profiler)
        summed = sum(entry["self_s"]
                     for entry in attribution["layers"].values())
        if abs(summed - attribution["total_s"]) > 0.01 * attribution["total_s"]:
            problems.append(f"layers sum to {summed:.3f} s, the profile to "
                            f"{attribution['total_s']:.3f} s")
        detail["layers"] = attribution
        detail["per_layer"] = per_layer_metrics(
            attribution, counts, rounds[0].wall_s / again.wall_s)
    return detail


def per_layer_metrics(attribution: dict, counts: dict,
                      overhead: float) -> dict:
    total = attribution["total_s"]
    out = {}
    for layer, entry in attribution["layers"].items():
        out[f"{layer}.self_s"] = (entry["self_s"], "s")
        out[f"{layer}.self_share"] = (entry["self_s"] / total, "share")
        out[f"{layer}.calls"] = (entry["calls"], "count")
    for name, (raw, divisor) in COUNT_METRICS.items():
        value = counts.get(raw, 0)
        if divisor is not None:
            below = counts.get(divisor, 0)
            value = value / below if below else 0.0
        out[name] = (value, unit_of_count(name))
    out["trace.overhead_x"] = (overhead, "ratio")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in out.items()}


def run_once(args) -> int:
    """The contract's command: one run, one JSON object on the last line."""
    # The numbers describe the defaults: no KEYPAD_* switch, fixed hashing.
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("KEYPAD_")}
    if len(env) != len(os.environ) or env.get("PYTHONHASHSEED") != "0":
        env["PYTHONHASHSEED"] = "0"
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, *sys.argv], env)

    detail = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.smoke)
    for problem in detail["problems"]:
        print(f"FAILED CHECK {args.workload}: {problem}", file=sys.stderr)
    if args.trace:
        metrics = detail["per_layer"]
    else:
        units = {name: unit for name, unit, _ in END_TO_END}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in detail["end_to_end"].items()}
    print(PREFIX + json.dumps(detail))
    print(json.dumps({
        "correct": not detail["problems"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }))
    return 1 if detail["problems"] else 0


# --------------------------------------------------------------------------
# the whole ledger: every workload, repeated in fresh subprocesses
# --------------------------------------------------------------------------

def child(workload: str, seed: str, seconds: float, trace: bool,
          smoke: bool) -> dict:
    """One measured run in a fresh interpreter; returns its detail."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", seed, "--seconds", str(seconds),
               "--trace", "1" if trace else "0"]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    sys.stderr.write(done.stderr)
    for line in done.stdout.splitlines():
        if line.startswith(PREFIX):
            detail = json.loads(line[len(PREFIX):])
            break
    else:
        raise SystemExit(f"{workload}: run exited {done.returncode} "
                         "without a result")
    return detail


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def environment(seed: str) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "git_sha": sha, "seed": seed}


def run_ledger(args) -> int:
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    chosen = [args.workload] if args.workload else names
    seconds = workloads.ROUND_SECONDS if args.smoke else spec["run_seconds"]

    result = {"benchmark": "ledger", "smoke": args.smoke,
              "repeats": args.repeats, "run_seconds": seconds,
              "env": environment(args.seed), "workloads": {}}
    failures = []
    for workload in chosen:
        runs = [child(workload, args.seed, seconds, False, args.smoke)
                for _ in range(args.repeats)]
        problems = [p for run in runs for p in run["problems"]]
        if any((run["sim"], run["counts"]) != (runs[0]["sim"],
                                               runs[0]["counts"])
               for run in runs[1:]):
            problems.append("repeats of one seed disagree on a simulated "
                            "statistic or a count")
        metrics = {}
        for name, unit, better in END_TO_END:
            values = [run["end_to_end"][name] for run in runs]
            q1, q3 = quartiles(values)
            metrics[name] = {
                "unit": unit, "better": better,
                "base": base_of(name, workload), "bound": bounds[name],
                "values": values, "median": statistics.median(values),
                "q1": q1, "q3": q3,
            }
        entry = {
            "metrics": metrics, "rounds": runs[0]["rounds"],
            "latency_samples": runs[0]["latency_samples"],
            "attempted": runs[0]["attempted"], "failed": runs[0]["failed"],
            "refused": runs[0]["refused"], "sim": runs[0]["sim"],
            "counts": runs[0]["counts"],
            "round_samples": [run["samples"] for run in runs],
        }
        print_end_to_end(workload, entry)
        if args.trace:
            traced = child(workload, args.seed, seconds, True, args.smoke)
            problems.extend(traced["problems"])
            if (traced["sim"], traced["counts"]) != (entry["sim"],
                                                     entry["counts"]):
                problems.append("the traced run disagrees with the untraced "
                                "runs on a simulated statistic or a count")
            entry["per_layer"] = traced["per_layer"]
            print_layers(workload, traced)
            if args.out:
                write_trace(Path(args.out).parent, workload, args.seed,
                            traced["layers"])
        entry["problems"] = problems
        failures.extend(f"{workload}: {p}" for p in problems)
        result["workloads"][workload] = entry

    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(result, indent=1))
    for failure in failures:
        print(f"FAILED CHECK {failure}")
    print("all checks passed" if not failures
          else f"{len(failures)} checks failed")
    return 1 if failures else 0


def print_end_to_end(workload: str, entry: dict) -> None:
    print(f"\n== {workload}  ({entry['rounds']} rounds a run, "
          f"{entry['attempted']} ops attempted, {entry['failed']} failed, "
          f"{entry['refused']} refused by design, "
          f"{entry['latency_samples']} latency samples)")
    print(f"{'metric':<16}{'base':<6}{'unit':<6}{'median':>14}"
          f"{'q1':>14}{'q3':>14}{'runs':>6}{'bound':>7}")
    for name, m in entry["metrics"].items():
        print(f"{name:<16}{m['base']:<6}{m['unit']:<6}{m['median']:>14.6g}"
              f"{m['q1']:>14.6g}{m['q3']:>14.6g}{len(m['values']):>6}"
              f"{m['bound']:>7.0%}")


def print_layers(workload: str, traced: dict) -> None:
    attribution = traced["layers"]
    print(f"\n-- {workload} traced: {attribution['total_s']:.3f} s profiled, "
          f"tracing costs {traced['per_layer']['trace.overhead_x']['value']:.2f}x")
    print(f"{'layer':<22}{'self_s':>10}{'share':>8}{'calls':>12}")
    ranked = sorted(attribution["layers"].items(),
                    key=lambda item: -item[1]["self_s"])
    for layer, entry in ranked:
        if entry["calls"]:
            print(f"{layer:<22}{entry['self_s']:>10.3f}"
                  f"{entry['self_s'] / attribution['total_s']:>8.1%}"
                  f"{entry['calls']:>12}")
    counts = {name: m["value"] for name, m in traced["per_layer"].items()
              if name in COUNT_METRICS and m["value"]}
    for name, value in counts.items():
        print(f"  {name} = {value:.6g}")


def write_trace(directory: Path, workload: str, seed: str,
                attribution: dict) -> None:
    """The traced run as spans: the run, its layers, and each layer's
    heaviest functions as that layer's children."""
    run_id = hashlib.sha256(f"{workload}|{seed}".encode()).hexdigest()[:16]
    spans = [{"id": 0, "parent": None, "name": workload,
              "self_s": 0.0, "total_s": attribution["total_s"]}]
    for layer, entry in attribution["layers"].items():
        layer_id = len(spans)
        spans.append({"id": layer_id, "parent": 0, "name": layer,
                      "self_s": entry["self_s"], "calls": entry["calls"]})
        for function in entry["functions"]:
            spans.append({"id": len(spans), "parent": layer_id, **function})
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"trace_{workload}.json").write_text(
        json.dumps({"run_id": run_id, "spans": spans}, indent=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="one measured run in this process")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of the size, same checks")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", help="result file of the whole ledger")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.seconds is not None:
        if not args.workload:
            parser.error("--seconds needs --workload")
        return run_once(args)
    return run_ledger(args)


if __name__ == "__main__":
    raise SystemExit(main())
