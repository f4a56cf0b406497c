"""Multi-region federation: geo-routing latency and partition forensics.

Not a figure from the paper — §7 sketches "multiple key services" for
availability; this benchmark takes the flag-gated federation layer the
rest of the way to a geo-replicated fleet:

* the **static** arm runs a 3-region fleet (2 replicas per region,
  2-of-6 shares) whose devices use the flat index-order cluster client,
  so most fetches cross an ocean even though home-region replicas are
  healthy;
* the **geo** arm is byte-identical wiring with geo-routing enabled:
  each :class:`~repro.cluster.client.ReplicatedKeyClient` gets its
  home region and ranks endpoints by live link RTT, so devices gather
  shares from their home region and the median fetch gets faster;
* the **partition** arm raises the threshold to 3-of-6 (every fetch
  must cross a region boundary) and severs the ``eu`` region mid-run.
  The healed :class:`~repro.cluster.merge.ClusterAuditLog` merge must
  *report* the split (a ``region-split`` divergence naming ``eu``) and
  *prove* convergence — every entry appended on either side of the
  partition appears exactly once, with zero lost entries.

Run as a script for the CI federation smoke check::

    PYTHONPATH=src python benchmarks/bench_federation.py --smoke
"""

from __future__ import annotations

import argparse
import sys

from repro.api import WLAN, Topology
from repro.cluster import ClusterAuditLog, FaultPlan
from repro.workloads.fleet import run_fleet

RTT_MS = 60.0          # inter-region round trip
REGIONS = ("us", "eu", "ap")
SEVERED = "eu"


def _topology(threshold: int) -> Topology:
    return Topology.symmetric(
        regions=REGIONS, replicas_per_region=2, threshold=threshold,
        rtt_ms=RTT_MS,
    )


def _inspect_partition(group) -> dict:
    log = ClusterAuditLog(group, group.k, window=5.0)
    return {
        "splits": [d.detail for d in log.divergences()
                   if d.kind == "region-split"],
        "convergence": log.convergence_report(),
    }


def run_arm(arm: str, devices: int, duration: float,
            seed: bytes = b"federation-0") -> dict:
    """One benchmark arm; returns fleet latency + merge measurements."""
    if arm == "partition":
        topology = _topology(threshold=3)
        faults = FaultPlan.region_partition(
            SEVERED, at=duration / 3, duration=duration / 3)
        geo_routing = True
        inspect = _inspect_partition
    else:
        topology = _topology(threshold=2)
        faults = None
        geo_routing = arm == "geo"
        inspect = None

    result = run_fleet(
        devices=devices, duration=duration, seed=seed, network=WLAN,
        topology=topology, geo_routing=geo_routing, faults=faults,
        inspect=inspect,
    )
    summary = result.summary()
    row = {
        "arm": arm,
        "requested": summary["requested"],
        "completed": summary["completed"],
        "failed": summary["failed"],
        "fetch_p50_ms": round(summary["fetch_p50_ms"], 3),
        "fetch_p99_ms": round(summary["fetch_p99_ms"], 3),
        "splits": "-",
        "lost": "-",
        "converged": "-",
        "per_region_p50_ms": {
            name: round(region["fetch_p50_ms"], 3)
            for name, region in summary["per_region"].items()
        },
    }
    if result.inspection is not None:
        convergence = result.inspection["convergence"]
        row["split_details"] = result.inspection["splits"]
        row["splits"] = len(result.inspection["splits"])
        row["lost"] = convergence["lost_entries"]
        row["converged"] = int(convergence["converged"])
        row["missing"] = convergence["missing_entries"]
        row["duplicates"] = convergence["duplicate_groups"]
        row["fault_trace"] = [what for _, what in result.fault_trace]
    return row


COLUMNS = ["arm", "requested", "completed", "failed", "fetch_p50_ms",
           "fetch_p99_ms", "splits", "lost", "converged"]


def build_table(devices: int, duration: float, jobs: int | None = None):
    import time

    from repro.harness.results import ResultTable
    from repro.harness.runner import attach_perf, run_arms

    table = ResultTable(
        f"Multi-region federation ({len(REGIONS)} regions, "
        f"{RTT_MS:g} ms apart, WLAN access)", COLUMNS,
    )
    by_arm: dict[str, dict] = {}
    arms = ("static", "geo", "partition")
    wall0 = time.perf_counter()
    results = run_arms(
        run_arm,
        [(arm, devices, duration) for arm in arms],
        labels=list(arms),
        jobs=jobs,
    )
    for arm in results:
        row = arm.value
        by_arm[row["arm"]] = row
        table.add(*(row[c] for c in COLUMNS))
    attach_perf(table, "federation", results,
                rpcs=lambda row: row["requested"],
                jobs=jobs, wall_s=time.perf_counter() - wall0,
                devices=devices, duration=duration)
    table.note("static vs geo: identical links and replicas; only the "
               "endpoint ranking differs — geo gathers shares in the "
               "device's home region")
    table.note(f"partition: 3-of-6 shares with region {SEVERED!r} severed "
               "for the middle third of the run; splits/lost/converged "
               "come from the healed cross-region audit merge")
    return table, by_arm


def check(by_arm: dict) -> list[str]:
    """The federation claims; returns human-readable violations."""
    problems = []
    static, geo, partition = (
        by_arm["static"], by_arm["geo"], by_arm["partition"])
    if geo["fetch_p50_ms"] >= static["fetch_p50_ms"]:
        problems.append(
            f"geo-routing did not lower median fetch latency "
            f"({geo['fetch_p50_ms']} >= {static['fetch_p50_ms']} ms)")
    for arm in ("static", "geo"):
        if by_arm[arm]["failed"]:
            problems.append(f"{arm}: {by_arm[arm]['failed']} failed "
                            "fetches in a healthy federation")
    if partition["splits"] < 1:
        problems.append("partition arm: merge reported no region-split")
    elif not any(SEVERED in detail
                 for detail in partition["split_details"]):
        problems.append(f"partition arm: no split names {SEVERED!r}")
    if partition["lost"] != 0:
        problems.append(f"partition arm: {partition['lost']} lost entries")
    if not partition["converged"]:
        problems.append(
            f"partition arm: merge did not converge "
            f"(missing={partition['missing']}, "
            f"duplicates={partition['duplicates']})")
    expected = ["partition region:" + SEVERED, "heal region:" + SEVERED]
    if partition["fault_trace"] != expected:
        problems.append(
            f"partition arm: fault trace {partition['fault_trace']} != "
            f"{expected}")
    return problems


def test_federation_geo_routing_and_partition_merge(benchmark, record_table):
    table, by_arm = benchmark.pedantic(
        lambda: build_table(devices=18, duration=18.0),
        rounds=1, iterations=1,
    )
    record_table(table, "federation")
    problems = check(by_arm)
    assert not problems, "; ".join(problems)
    benchmark.extra_info["geo_p50_speedup"] = round(
        by_arm["static"]["fetch_p50_ms"] / by_arm["geo"]["fetch_p50_ms"], 3)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="short run for CI")
    parser.add_argument("--devices", type=int, default=None)
    parser.add_argument("--duration", type=float, default=None)
    args = parser.parse_args(argv)
    devices = args.devices or (12 if args.smoke else 30)
    duration = args.duration or (12.0 if args.smoke else 30.0)
    table, by_arm = build_table(devices, duration)
    if getattr(table, "perf", None) is not None:
        import pathlib

        from repro.harness.runner import write_bench_json

        write_bench_json(table.perf,
                         pathlib.Path(__file__).parent / "results")
    print(table.render())
    problems = check(by_arm)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if not problems:
        print("federation checks passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
