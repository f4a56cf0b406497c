"""Materialized forensic views vs raw-log scans at audit scale.

Not a paper figure — the paper's audit tool (§5) scans one laptop's
log.  This measures the event-sourced store (``SegmentedAuditStore`` +
``AuditViews``) doing the same forensic queries over a fleet-scale log:

* **views-1M** — a seeded million-entry log (thousands of devices and
  files); each of the three materialized views (post-theft window,
  per-device timeline, per-file access set) is timed against the
  equivalent raw-log scan.  Answers must be *identical* (the zero
  false-negative invariant, read-side edition) and the view must be at
  least 10x faster — in practice it is O(answer) vs O(log), so the
  recorded speedups are orders of magnitude.
* **fleet-10k** — a 10,000-device fleet run with
  ``audit_store="segmented"``; the post-run probe checks view-vs-scan
  equivalence and hash-chain integrity on the log the fleet actually
  produced, not a synthetic one.
* **durable-ablation** — single-append throughput through
  ``DurableAuditStore`` over memory blobs under each flush policy
  (every-append / every-n / every-seal), against the plain segmented
  store: what each durability cadence costs on the append path, how
  many times each appended entry was serialised on the way (exactly
  once: a flush encodes only the entries new since the last one), and
  how many bytes the segment footers hashed per appended entry (about
  one record's worth: a flush extends the segment's running hash by
  its new records and finishes a copy with the short suffix).
* **durable-recovery** — a million-entry durable store is spilled at
  several segment sizes, then recovered from its crash image alone;
  recovery must verify the full chain and its throughput is recorded
  per segment count, with two exact counts: ``LogEntry`` objects built
  per recovered entry (one: decode builds each entry once and nothing
  on the way — verify, compact, checkpoint restore — builds it again)
  and ``_unpack`` calls per entry in the ``verify_chain`` that follows
  (zero: a compacted segment is verified in its packed form).

The machine-stable ratios (``meta.speedups``) and the exact counts
(``meta.counts``: entry encodes and footer bytes hashed per appended
entry, entry builds per recovered entry, unpacks per verified entry)
are gated in CI by ``check_perf.py`` against
``baselines/BENCH_auditstore_baseline.json``.

Run directly for CI smoke (reduced entry count, same asserts):

    PYTHONPATH=src python benchmarks/bench_auditstore.py --smoke
"""

from __future__ import annotations

import hashlib
import pathlib
import sys
import time
from unittest import mock

from repro.api import run_fleet
from repro.auditstore import (
    BlobImage,
    DurableAuditStore,
    SegmentedAuditStore,
    codec,
)
from repro.auditstore import durable as durable_module
from repro.auditstore import store as store_module
from repro.auditstore.log import DISCLOSING_KINDS, new_entry
from repro.harness.results import ResultTable
from repro.harness.runner import attach_perf, run_tasks, write_bench_json
from repro.storage.backend import BlobStore

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
from tests.codec_oracle import CountingSha256  # noqa: E402  (repo root, for the script form)

N_ENTRIES = 1_000_000
N_DEVICES = 4096
N_FILES = 2048
SEGMENT_ENTRIES = 4096
BATCH = 4096

FLEET_DEVICES = 10_000
FLEET_DURATION = 6.0

#: durable ablation: single appends, so the policy cadence is what's
#: measured; small segments bound the tail bytes every-append hashes
#: and copies on each flush.
ABLATION_ENTRIES = 50_000
ABLATION_SEGMENT = 256

#: footer-hash count: one fill of this many single appends per policy,
#: whatever the ablation's size, so smoke and full runs record the
#: same exact count.
HASH_COUNT_ENTRIES = 8 * ABLATION_SEGMENT

#: durable recovery: one 10^6-entry store per segment size.
RECOVERY_SEGMENTS = (1024, 4096, 16384)

#: mostly disclosing traffic with some lifecycle noise, like a real log.
KIND_CYCLE = ("fetch", "fetch", "refresh", "fetch", "prefetch",
              "evict-notify", "fetch", "create")


def _seed_store(entries):
    """A deterministic ``entries``-record segmented store."""
    store = SegmentedAuditStore(name="bench",
                                segment_entries=SEGMENT_ENTRIES)
    audit_ids = [i.to_bytes(3, "big") * 8 for i in range(N_FILES)]
    n = 0
    while n < entries:
        count = min(BATCH, entries - n)
        store.append_many([
            (
                (n + i) * 0.01,
                f"dev-{(n + i) % N_DEVICES:05d}",
                KIND_CYCLE[(n + i) % len(KIND_CYCLE)],
                {"audit_id": audit_ids[(n + i) % N_FILES]},
            )
            for i in range(count)
        ])
        n += count
    return store


def _timed(fn, repeats=3):
    """(best wall seconds, result) over ``repeats`` identical calls."""
    best, result = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def run_views_arm(entries):
    """Time the three view queries against raw scans on one store."""
    t0 = time.perf_counter()
    store = _seed_store(entries)
    build_s = time.perf_counter() - t0

    t_loss = (entries - entries // 500) * 0.01  # last ~0.2% of the log
    device = f"dev-{N_DEVICES // 2:05d}"
    audit_id = (N_FILES // 2).to_bytes(3, "big") * 8

    queries = {
        "post_theft": (
            lambda: store.views.accesses_after(t_loss),
            lambda: [e for e in store.entries(since=t_loss)
                     if e.kind in DISCLOSING_KINDS],
        ),
        "timeline": (
            lambda: store.views.device_timeline(device),
            lambda: store.entries(device_id=device),
        ),
        "file_set": (
            lambda: store.views.file_accesses(audit_id),
            lambda: [e for e in store
                     if e.kind in DISCLOSING_KINDS
                     and e.fields.get("audit_id") == audit_id],
        ),
    }
    out = {"entries": entries, "build_s": round(build_s, 3),
           "store": store.stats()}
    for name, (view, scan) in queries.items():
        view_s, view_answer = _timed(view)
        scan_s, scan_answer = _timed(scan, repeats=1)
        out[name] = {
            "results": len(view_answer),
            "equal": view_answer == scan_answer,
            "view_ms": round(view_s * 1e3, 3),
            "scan_ms": round(scan_s * 1e3, 3),
            "speedup": round(scan_s / view_s, 1) if view_s > 0 else None,
        }
    out["chain_ok"] = store.verify_chain()
    return out


def _audit_probe(service):
    """Post-run equivalence check on the log a fleet actually wrote."""
    log = service.access_log
    entries = len(log)
    t_loss = log.entry_at(entries - max(1, entries // 100)).timestamp
    view_s, view_answer = _timed(
        lambda: log.views.accesses_after(t_loss))
    scan_s, scan_answer = _timed(
        lambda: [e for e in log.entries(since=t_loss)
                 if e.kind in DISCLOSING_KINDS], repeats=1)
    return {
        "entries": entries,
        "results": len(view_answer),
        "equal": view_answer == scan_answer,
        "view_ms": round(view_s * 1e3, 3),
        "scan_ms": round(scan_s * 1e3, 3),
        "speedup": round(scan_s / view_s, 1) if view_s > 0 else None,
        "chain_ok": log.verify_chain(),
        "store": log.stats(),
    }


def run_fleet_arm(devices, duration):
    """A fleet writing through the segmented store, then probed."""
    result = run_fleet(
        devices=devices,
        duration=duration,
        seed=b"audit-fleet",
        frontend={"workers": 128, "queue_limit": 4, "coalesce": 8},
        audit_store="segmented",
        segment_entries=SEGMENT_ENTRIES,
        inspect=_audit_probe,
    )
    probe = dict(result.inspection)
    probe["keys_served"] = result.summary()["keys_served"]
    return probe


#: rounds of the ablation, best rate kept per arm: one arm is a
#: fraction of a second, and a scheduler hiccup that long would swing a
#: ratio.
ABLATION_REPEATS = 3


_ABLATION_IDS = [i.to_bytes(3, "big") * 8 for i in range(64)]


def _fill(log, entries):
    """Single-append ``entries`` deterministic records into ``log``."""
    for i in range(entries):
        log.append(i * 0.01, f"dev-{i % 128:05d}",
                   KIND_CYCLE[i % len(KIND_CYCLE)],
                   audit_id=_ABLATION_IDS[i % len(_ABLATION_IDS)])


def _counting(real):
    """``real`` behind a wrapper that counts its calls in ``.calls``."""
    def wrapper(*args, **kwargs):
        wrapper.calls += 1
        return real(*args, **kwargs)
    wrapper.calls = 0
    return wrapper


def _footer_bytes_per_entry(make_log):
    """Bytes fed to SHA-256 inside ``encode_segment`` per appended
    entry, over one ``HASH_COUNT_ENTRIES`` fill of a fresh log."""
    real = durable_module.encode_segment

    def counted(segment):
        with mock.patch.object(hashlib, "sha256", CountingSha256):
            return real(segment)

    start = CountingSha256.fed
    with mock.patch.object(durable_module, "encode_segment", counted):
        _fill(make_log(), HASH_COUNT_ENTRIES)
    return (CountingSha256.fed - start) / HASH_COUNT_ENTRIES


#: the ablation's arms: flush policy -> extra knobs (None: the plain
#: segmented store).
ABLATION_ARMS = (("segmented", None), ("every-append", {}),
                 ("every-n", {"flush_every": 64}), ("every-seal", {}))


def _ablation_log(policy, knobs):
    if knobs is None:
        return SegmentedAuditStore(name="bench",
                                   segment_entries=ABLATION_SEGMENT)
    return DurableAuditStore.create(
        BlobStore("memory").namespace("audit/bench"),
        name="bench",
        segment_entries=ABLATION_SEGMENT,
        flush_policy=policy,
        **knobs,
    )


def run_flush_ablation(entries):
    """Append throughput per flush policy vs the plain segmented store.

    The arms take turns, each single-appending ``entries`` records into
    a fresh log per round and keeping its best round: a slow stretch of
    the machine then falls on every arm instead of on one, where it
    would move the ratios more than the policies differ.
    """
    best = {name: 0.0 for name, _ in ABLATION_ARMS}
    encodes = {name: _counting(codec.encode_entry) for name, _ in ABLATION_ARMS}
    stats = {}
    for _ in range(ABLATION_REPEATS):
        for name, knobs in ABLATION_ARMS:
            log = _ablation_log(name, knobs)
            with mock.patch.object(codec, "encode_entry", encodes[name]):
                start = time.perf_counter()
                _fill(log, entries)
                elapsed = time.perf_counter() - start
            best[name] = max(best[name], entries / elapsed)
            stats[name] = log.stats()

    out = {"entries": entries, "segment_entries": ABLATION_SEGMENT,
           "segmented": {"appends_per_s": round(best["segmented"], 1)}}
    for name, knobs in ABLATION_ARMS[1:]:
        durable = stats[name]["durable"]
        assert durable["unflushed_entries"] < ABLATION_SEGMENT
        out[name] = {
            "appends_per_s": round(best[name], 1),
            "flushes": durable["flushes"],
            "spilled_segments": durable["spilled_segments"],
            "encodes_per_entry":
                encodes[name].calls / (ABLATION_REPEATS * entries),
            "footer_bytes_per_entry": _footer_bytes_per_entry(
                lambda: _ablation_log(name, knobs)),
        }
    return out


def run_recovery_arm(entries):
    """Recovery wall time vs segment count on an ``entries``-record
    durable store, recovered from its crash image alone."""
    out = {"entries": entries, "per_segment": {}}
    audit_ids = [i.to_bytes(3, "big") * 8 for i in range(N_FILES)]
    for segment_entries in RECOVERY_SEGMENTS:
        store = BlobStore("memory")
        ns = store.namespace("audit/bench")
        log = DurableAuditStore.create(
            ns, name="bench", segment_entries=segment_entries,
            flush_policy="every-seal",
        )
        n = 0
        while n < entries:
            count = min(BATCH, entries - n)
            log.append_many([
                (
                    (n + i) * 0.01,
                    f"dev-{(n + i) % N_DEVICES:05d}",
                    KIND_CYCLE[(n + i) % len(KIND_CYCLE)],
                    {"audit_id": audit_ids[(n + i) % N_FILES]},
                )
                for i in range(count)
            ])
            n += count
        log.checkpoint()
        image = BlobImage(ns.snapshot())

        # Every LogEntry recovery builds comes from the decoder or from
        # unpacking a compacted tuple.
        build = _counting(new_entry)
        with mock.patch.object(codec, "new_entry", build), \
                mock.patch.object(store_module, "new_entry", build):
            t0 = time.perf_counter()
            recovered = DurableAuditStore.recover(
                image, name="bench", segment_entries=segment_entries,
                entries_before=len(log),
            )
            recover_s = time.perf_counter() - t0
        unpack = _counting(store_module._unpack)
        with mock.patch.object(store_module, "_unpack", unpack):
            assert recovered.verify_chain()
        assert len(recovered) == entries
        assert recovered.recovery["lost_entries"] == 0
        out["per_segment"][str(segment_entries)] = {
            "segments": recovered.recovery["sealed_segments"],
            "recover_s": round(recover_s, 3),
            "entries_per_s": round(entries / recover_s, 1)
            if recover_s > 0 else None,
            "checkpoint_used": recovered.recovery["checkpoint_used"],
            "entry_builds_per_recovered_entry": build.calls / entries,
            "unpacks_per_verified_entry": unpack.calls / entries,
        }
    return out


def auditstore_table(jobs=None, entries=N_ENTRIES,
                     fleet_devices=FLEET_DEVICES,
                     fleet_duration=FLEET_DURATION,
                     ablation_entries=ABLATION_ENTRIES,
                     recovery_entries=None):
    if recovery_entries is None:
        recovery_entries = entries
    tasks = [
        (run_views_arm, (entries,)),
        (run_fleet_arm, (fleet_devices, fleet_duration)),
        (run_flush_ablation, (ablation_entries,)),
        (run_recovery_arm, (recovery_entries,)),
    ]
    labels = ["views", "fleet", "durable-ablation", "durable-recovery"]
    results = run_tasks(tasks, labels, jobs=jobs)
    views, fleet, ablation, recovery = (arm.value for arm in results)

    table = ResultTable(
        title="Audit store: materialized views vs raw-log scan",
        columns=["query", "log entries", "results", "scan ms",
                 "view ms", "speedup"],
    )
    for name, label in (("post_theft", "post-theft window"),
                        ("timeline", "device timeline"),
                        ("file_set", "file access set")):
        q = views[name]
        table.add(label, views["entries"], q["results"],
                  f"{q['scan_ms']:.1f}", f"{q['view_ms']:.3f}",
                  f"{q['speedup']:.0f}x")
    table.add(f"fleet {fleet_devices} dev, post-theft", fleet["entries"],
              fleet["results"], f"{fleet['scan_ms']:.1f}",
              f"{fleet['view_ms']:.3f}", f"{fleet['speedup']:.0f}x")
    table.note(
        "views answer from materialized indexes updated on append; "
        "scans walk the full segmented log.  All answers verified "
        "identical to the scan, and verify_chain holds on every store."
    )

    durable = ResultTable(
        title="Durable audit store: flush-policy ablation + recovery",
        columns=["arm", "entries", "appends/s or recover s", "detail"],
    )
    for policy in ("segmented", "every-append", "every-n", "every-seal"):
        row = ablation[policy]
        detail = ("no durability" if policy == "segmented" else
                  f"{row['flushes']} flushes, "
                  f"{row['spilled_segments']} spills, "
                  f"{row['encodes_per_entry']:.3f} encodes/entry, "
                  f"{row['footer_bytes_per_entry']:.1f} B hashed/entry")
        durable.add(f"append [{policy}]", ablation["entries"],
                    f"{row['appends_per_s']:,.0f}/s", detail)
    for segment_entries, row in sorted(recovery["per_segment"].items(),
                                       key=lambda kv: int(kv[0])):
        durable.add(f"recover [{segment_entries}/seg]",
                    recovery["entries"], f"{row['recover_s']:.2f} s",
                    f"{row['segments']} segments, "
                    f"{row['entries_per_s']:,.0f} entries/s")
    durable.note(
        "appends are singles (group commit measured by the fleet arm); "
        "recovery decodes + chain-verifies every spilled blob and "
        "rebuilds views from the checkpoint."
    )
    table.extra_tables = [durable]

    best_recovery = max(
        row["entries_per_s"] for row in recovery["per_segment"].values()
    )
    speedups = {
        # durable cadences vs the plain store: what log-before-reply
        # and group commit cost on top of the append itself;
        # single-process ratios, stable across machine speeds.
        "every_append_over_segmented": round(
            ablation["every-append"]["appends_per_s"]
            / ablation["segmented"]["appends_per_s"], 2),
        "every_n_over_segmented": round(
            ablation["every-n"]["appends_per_s"]
            / ablation["segmented"]["appends_per_s"], 2),
        # recovery throughput relative to the plain append path: if
        # decode/verify ever turns pathological this collapses.
        "recovery_over_append": round(
            best_recovery / ablation["segmented"]["appends_per_s"], 2),
    }
    # machine-independent: an entry is serialised at most once however
    # often its segment is flushed, and its record is fed to a footer
    # hash once, plus a short suffix per flush.
    counts = {}
    for policy in ("every-append", "every-n", "every-seal"):
        for name in ("encodes_per_entry", "footer_bytes_per_entry"):
            counts[f"{name}[{policy}]"] = ablation[policy][name]
    # likewise exact: the worst segment size of the recovery arm.
    for name in ("entry_builds_per_recovered_entry",
                 "unpacks_per_verified_entry"):
        counts[name] = max(
            row[name] for row in recovery["per_segment"].values())
    attach_perf(
        table, "auditstore", results, jobs=jobs,
        summaries={"views": views, "fleet": fleet,
                   "ablation": ablation, "recovery": recovery},
        speedups=speedups,
        counts=counts,
    )
    return table


def _check(table):
    """The acceptance asserts shared by pytest and --smoke."""
    summaries = table.perf.meta["summaries"]
    views, fleet = summaries["views"], summaries["fleet"]
    assert views["chain_ok"] and fleet["chain_ok"]
    for name in ("post_theft", "timeline", "file_set"):
        q = views[name]
        assert q["equal"], name
        assert q["results"] > 0, name
        assert q["speedup"] >= 10.0, (name, q["speedup"])
    assert fleet["equal"] and fleet["results"] > 0
    assert fleet["store"]["store"] == "segmented"
    ablation = summaries["ablation"]
    # flushing only at seals beats hashing and writing the tail on
    # every append; the durable cadence rows all spilled/flushed real
    # blobs, and no flush re-serialised an entry an earlier flush had
    # already encoded.
    assert (ablation["every-seal"]["appends_per_s"]
            > ablation["every-append"]["appends_per_s"])
    for policy in ("every-append", "every-n", "every-seal"):
        assert ablation[policy]["flushes"] > 0, policy
        assert ablation[policy]["spilled_segments"] > 0, policy
        assert ablation[policy]["encodes_per_entry"] <= 1.0, policy
    recovery = summaries["recovery"]
    for row in recovery["per_segment"].values():
        assert row["checkpoint_used"]
        assert row["segments"] > 0
        # decode builds each entry once; the checkpoint sits at the end
        # of the log, so its bound-hash lookup reads the live tail and
        # the view replay is empty: nothing else may build an entry.
        assert row["entry_builds_per_recovered_entry"] <= 1.0
        assert row["unpacks_per_verified_entry"] == 0


def test_auditstore(benchmark, record_table):
    table = benchmark.pedantic(auditstore_table, rounds=1, iterations=1)
    record_table(table, "auditstore")
    _check(table)
    views = table.perf.meta["summaries"]["views"]
    assert views["entries"] >= 1_000_000


def _main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced store size (same asserts, same "
                             "10k-device fleet arm): the CI audit-smoke "
                             "job")
    parser.add_argument("--jobs", type=int, default=None)
    args = parser.parse_args(argv)

    if args.smoke:
        table = auditstore_table(jobs=1, entries=200_000,
                                 fleet_duration=4.0,
                                 ablation_entries=10_000,
                                 recovery_entries=200_000)
    else:
        table = auditstore_table(jobs=args.jobs)
    rendered = "\n\n".join(
        t.render() for t in [table, *table.extra_tables])
    print(rendered)
    _check(table)
    results_dir = pathlib.Path(__file__).parent / "results"
    if not args.smoke:
        (results_dir / "auditstore.txt").write_text(rendered + "\n")
    path = write_bench_json(table.perf, results_dir)
    print(f"ok: perf record at {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
