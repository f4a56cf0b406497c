"""``keypad-audit``: the victim-side forensic report tool.

The paper: "To support forensic analysis we built a simple Python tool;
given a Tloss timestamp and an expiration time, Texp, the tool
reconstructs a full-fidelity audit report of all accesses after
Tloss − Texp, including full path names and access timestamps."

Subcommands:

* ``keypad-audit report --bundle LOGS.json --tloss T --texp X``
  Produce the audit report from an exported log bundle.
* ``keypad-audit demo [--steal]``
  Run a small end-to-end simulation, export its logs, and report —
  a self-contained smoke test of the whole pipeline.
* ``keypad-audit forensics [--bundle LOGS.json] --view timeline|file-set|post-theft``
  Answer forensic queries from the materialized views
  (:mod:`repro.auditstore`), always reconciling each answer against
  the raw-log scan; exits 2 if any view disagrees with the log.
* ``keypad-audit cluster-demo [--replicas M --threshold K --crash I]``
  Run the same demo against a k-of-m replicated key-service cluster
  (optionally crashing a replica mid-run), merge the per-replica audit
  logs into one timeline, and cross-check them for divergences.
* ``keypad-audit bench --name fig7 [--jobs N --scale S --out DIR]``
  Regenerate one of the paper's figures/tables through the parallel
  experiment engine, rendering the table and writing the
  machine-readable ``BENCH_<name>.json`` perf record.
* ``keypad-audit trace [--check --fast --deadline S]``
  Run a small traced workload and print each operation's span tree
  (cache hit vs. blocking fetch vs. IBE work, with wire sizes), then
  reconcile the trace's blocking-RPC spans against the transport
  counters; exits 2 if the two bookkeeping paths disagree.
* ``keypad-audit fleet [--devices N --policy drr|fifo|none ...]``
  Drive a simulated device fleet against one key service (or a
  replicated cluster) through the server-side scheduler frontend and
  print the throughput / latency / fairness / shed summary.
* ``keypad-audit ctl <verb>`` — set-texp / revoke / add-dir / drain /
  tail-trace.  Each verb mounts a self-contained rig, opens the live
  control channel (docs/CONTROL.md), issues the admin command mid-run,
  and prints what changed — the runtime-reconfiguration pipeline end
  to end.

Exit codes map the error taxonomy (:mod:`repro.errors`): 0 success,
1 other Keypad error, 2 integrity/reconciliation mismatch,
3 deadline expired, 4 service unavailable, 5 overload shed,
6 control-channel error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.auditstore.log import DISCLOSING_KINDS
from repro.errors import (
    AuditRecoveryError,
    ControlError,
    DeadlineExpiredError,
    FileNotFound,
    NetworkUnavailableError,
    OverloadSheddedError,
    ReproError,
    ServiceUnavailableError,
)
from repro.forensics.audit import AuditTool
from repro.forensics.export import export_logs, load_bundle

__all__ = ["main", "exit_code_for"]

#: Distinct exit codes per error class (most specific first; 2 is
#: reserved for integrity/reconciliation mismatches reported inline).
EXIT_DEADLINE = 3
EXIT_UNAVAILABLE = 4
EXIT_SHED = 5
EXIT_CONTROL = 6


def exit_code_for(exc: BaseException) -> int:
    """The ``keypad-audit`` exit code for an error from the taxonomy."""
    if isinstance(exc, ControlError):
        return EXIT_CONTROL
    if isinstance(exc, OverloadSheddedError):
        return EXIT_SHED
    if isinstance(exc, DeadlineExpiredError):
        return EXIT_DEADLINE
    if isinstance(exc, (ServiceUnavailableError, NetworkUnavailableError)):
        return EXIT_UNAVAILABLE
    return 1


#: The confidential files every demo world keeps under ``/home``.
_FILES = ("medical.txt", "taxes.pdf", "notes.md")


def _populate(fs, names=_FILES, guard=lambda op: op):
    """Every demo world's start: ``/home`` and a file per name."""
    yield from guard(fs.mkdir("/home"))
    for name in names:
        yield from guard(fs.create(f"/home/{name}"))
        yield from guard(fs.write(f"/home/{name}", 0, b"confidential"))


def _stolen_device(texp: float, steal: bool = True, durable: bool = False):
    """The forensic demos' world and its Tloss: the owner writes the
    files over 3G and idles 600 s; then the thief reads taxes.pdf."""
    from repro.api import THREE_G, KeypadConfig
    from repro.harness import build_keypad_rig

    builder = KeypadConfig.builder(
        KeypadConfig(texp=texp, prefetch="dir:3", ibe_enabled=True))
    if durable:
        builder = builder.audit_store("durable", segment_entries=4,
                                      flush_policy="every-append")
    rig = build_keypad_rig(network=THREE_G, config=builder.build())

    def owner():
        yield from _populate(rig.fs)
        yield rig.sim.timeout(600.0)

    rig.run(owner())
    t_loss = rig.sim.now
    if steal:
        rig.run(rig.fs.read("/home/taxes.pdf", 0, 12))
    return rig, t_loss


def _report(text: str, t_loss: float, texp: float,
            device_id: str | None = None) -> int:
    key_log, metadata = load_bundle(text)
    report = AuditTool(key_log, metadata).report(
        t_loss=t_loss, texp=texp, device_id=device_id)
    print(report.render())
    return 0 if report.logs_intact else 2


def _cmd_report(args: argparse.Namespace) -> int:
    text = Path(args.bundle).read_text(encoding="utf-8")
    return _report(text, args.tloss, args.texp, args.device)


def _cmd_demo(args: argparse.Namespace) -> int:
    rig, t_loss = _stolen_device(args.texp, args.steal)
    bundle = export_logs(rig.key_service, rig.metadata_service)
    if args.export:
        Path(args.export).write_text(bundle, encoding="utf-8")
        print(f"log bundle written to {args.export}", file=sys.stderr)
    return _report(bundle, t_loss, args.texp)


def _entry_keys(entries) -> list[tuple[int, bytes]]:
    """The identity of an answer, for view-vs-scan reconciliation."""
    return [(e.sequence, e.chain_hash) for e in entries]


class _Reconciler:
    """Answers forensic queries over one log from its views, each
    checked against the raw scan of the same window (a disagreement
    prints a MISMATCH line on stderr)."""

    def __init__(self, log, views, since: float):
        self.log = log
        self.views = views
        self.since = since
        self.mismatches = 0

    def _check(self, label: str, view_answer, scan_answer):
        if _entry_keys(view_answer) != _entry_keys(scan_answer):
            self.mismatches += 1
            print(f"MISMATCH [{label}]: view answered "
                  f"{len(view_answer)} entries, raw scan "
                  f"{len(scan_answer)}", file=sys.stderr)
        return view_answer

    def _disclosing(self, device_id=None):
        return [e for e in self.log.entries(since=self.since,
                                            device_id=device_id)
                if e.kind in DISCLOSING_KINDS]

    def timeline(self, device: str):
        return self._check(
            f"timeline:{device}",
            self.views.device_timeline(device, since=self.since),
            self.log.entries(since=self.since, device_id=device))

    def file_set(self, audit_id: bytes):
        return self._check(
            f"file-set:{audit_id.hex()[:12]}",
            self.views.file_accesses(audit_id, since=self.since),
            [e for e in self._disclosing()
             if e.fields.get("audit_id") == audit_id])

    def post_theft(self, device_id=None):
        return self._check(
            "post-theft",
            self.views.accesses_after(self.since, device_id=device_id),
            self._disclosing(device_id))

    def failed(self) -> bool:
        if self.mismatches:
            print(f"RECONCILIATION FAILED: {self.mismatches} view/scan "
                  f"mismatch(es)", file=sys.stderr)
        return bool(self.mismatches)


def _forensics_export_image(args: argparse.Namespace) -> int:
    """Run the stolen-device demo with a *durable* audit store and
    write its spilled blobs to a directory — the seized-disk input
    ``forensics --recover`` consumes."""
    rig, t_loss = _stolen_device(args.texp, durable=True)
    rig.key_service.audit_checkpoint()

    stack = rig.extras["backend"]
    namespace = stack.blobs.namespace(rig.key_service.audit_namespace)
    image = Path(args.export_image)
    image.mkdir(parents=True, exist_ok=True)
    for name in sorted(namespace.names()):
        (image / name).write_bytes(namespace.get(name))
    print(f"wrote {len(namespace)} audit blob(s) to {args.export_image} "
          f"(tloss={t_loss:.3f}); recover with:\n"
          f"  keypad-audit forensics --recover {args.export_image} "
          f"--segment-entries 4 --tloss {t_loss:.3f}")
    return 0


def _forensics_recover(args: argparse.Namespace) -> int:
    """Rebuild the audit log and its views from serialized segment
    blobs alone (a directory written by ``--export-image`` or pulled
    off a seized server disk), re-verify the seal chain, and reconcile
    every view answer against the recovered raw log.  Exit 2 on chain
    breaks or any view/scan disagreement."""
    from repro.auditstore import BlobImage, DurableAuditStore

    image = {path.name: path.read_bytes()
             for path in sorted(Path(args.recover).iterdir())
             if path.is_file()}
    if not image:
        print(f"keypad-audit: no blobs found in {args.recover}",
              file=sys.stderr)
        return 1

    try:
        store = DurableAuditStore.recover(
            BlobImage(image),
            name=args.name,
            segment_entries=args.segment_entries,
        )
    except AuditRecoveryError as exc:
        print(f"RECOVERY FAILED: {exc}", file=sys.stderr)
        return 2

    stats = store.recovery
    if stats["checkpoint_used"]:
        checkpoint = f"used (upto {stats['checkpoint_upto']})"
    elif stats["checkpoint_discarded"] is not None:
        checkpoint = f"discarded ({stats['checkpoint_discarded']})"
    else:
        checkpoint = "absent"
    print(f"recovered {stats['recovered_entries']} entries from "
          f"{stats['sealed_segments']} sealed segment(s) + "
          f"{stats['tail_entries']} tail entries "
          f"(tail {stats['tail_state']}, checkpoint {checkpoint})")

    if not store.verify_chain():
        print("RECOVERY FAILED: the recovered seal chain does not "
              "verify", file=sys.stderr)
        return 2

    t_loss = args.tloss
    if t_loss is None:
        entries = store.entries()
        t_loss = entries[-1].timestamp if entries else 0.0
    window_start = t_loss - args.texp
    check = _Reconciler(store, store.views, window_start)

    for device in store.views.devices():
        print(f"timeline {device}: {len(check.timeline(device))} entries "
              f"in window")
    post_theft = check.post_theft()
    print(f"post-theft window (since {window_start:.3f}): "
          f"{len(post_theft)} disclosing accesses")
    for entry in post_theft[:args.limit]:
        print(f"  [{entry.timestamp:10.3f}] {entry.device_id:<12} "
              f"{entry.kind}")

    if check.failed():
        return 2
    print("recovered log chain intact; every rebuilt view answer "
          "matches the recovered raw scan")
    return 0


def _cmd_forensics(args: argparse.Namespace) -> int:
    """Answer forensic queries from the materialized views, then
    reconcile every answer against the raw-log scan (exit 2 on any
    disagreement — same contract as ``trace --check``)."""
    if args.export_image is not None:
        return _forensics_export_image(args)
    if args.recover is not None:
        return _forensics_recover(args)

    if args.bundle is not None:
        if args.tloss is None:
            print("keypad-audit: forensics --bundle requires --tloss",
                  file=sys.stderr)
            return 1
        text = Path(args.bundle).read_text(encoding="utf-8")
        t_loss = args.tloss
    else:
        rig, t_loss = _stolen_device(args.texp)
        text = export_logs(rig.key_service, rig.metadata_service)
        if args.tloss is not None:
            t_loss = args.tloss
    key_log, metadata = load_bundle(text)
    try:
        views = key_log.views
    except AuditRecoveryError as exc:
        print(f"RECONCILIATION FAILED: {exc}", file=sys.stderr)
        return 2
    window_start = t_loss - args.texp
    check = _Reconciler(key_log.access_log, views, window_start)

    def describe(entry) -> str:
        audit_id = entry.fields.get("audit_id")
        path = metadata.path_of(audit_id) if audit_id else None
        where = f" path={path}" if path else ""
        return (f"[{entry.timestamp:10.3f}] {entry.device_id:<12} "
                f"{entry.kind}{where}")

    print(f"view={args.view} window_start={window_start:.3f} "
          f"(tloss={t_loss:.3f} texp={args.texp})")

    if args.view == "timeline":
        devices = [args.device] if args.device else views.devices()
        for device in devices:
            view_answer = check.timeline(device)
            print(f"timeline {device}: {len(view_answer)} entries")
            for entry in view_answer[:args.limit]:
                print("  " + describe(entry))
    elif args.view == "file-set":
        if args.audit_id:
            audit_ids = [bytes.fromhex(args.audit_id)]
        else:
            audit_ids = views.audit_ids()
        for audit_id in audit_ids:
            view_answer = check.file_set(audit_id)
            path = metadata.path_of(audit_id) or f"id {audit_id.hex()[:12]}…"
            accessors = sorted({e.device_id for e in view_answer})
            print(f"{path}: {len(view_answer)} accesses by "
                  f"{', '.join(accessors) if accessors else 'nobody'}")
    else:  # post-theft
        view_answer = check.post_theft(args.device)
        print(f"post-theft window: {len(view_answer)} disclosing "
              f"accesses")
        for entry in view_answer[:args.limit]:
            print("  " + describe(entry))

    print(f"log chain: intact; view stats: {views.stats()}")
    if check.failed():
        return 2
    print("reconciled: every view answer matches the raw-log scan")
    return 0


def _cmd_cluster_demo(args: argparse.Namespace) -> int:
    from repro.cluster import FaultEvent, FaultInjector, FaultPlan
    from repro.api import KeypadConfig
    from repro.harness import build_keypad_rig
    from repro.harness.experiment import DEVICE_ID
    from repro.api import THREE_G

    config = (
        KeypadConfig.builder()
        .texp(args.texp)
        .prefetch("dir:3")
        .replication(args.threshold, args.replicas)
        .build()
    )
    rig = build_keypad_rig(network=THREE_G, config=config)

    injector = FaultInjector(
        rig.sim,
        {link.name: link for link in rig.replica_links},
        rig.replica_group,
    )
    if args.crash is not None:
        injector.run(FaultPlan([
            FaultEvent(at=args.crash_at, action="crash",
                       target=f"replica:{args.crash}",
                       duration=args.crash_duration),
        ]))

    def owner():
        yield from _populate(rig.fs)
        # Re-read after the caches expire so fetches hit the cluster,
        # including inside any injected crash window.
        yield rig.sim.timeout(args.texp + 10.0)
        for name in _FILES:
            yield from rig.fs.read(f"/home/{name}", 0, 12)
        yield rig.sim.timeout(600.0)

    rig.run(owner())
    t_loss = rig.sim.now

    if args.steal:
        rig.run(rig.fs.read("/home/taxes.pdf", 0, 12))

    cluster_log = rig.cluster_audit_log()
    report = AuditTool(cluster_log, rig.metadata_service).report(
        t_loss=t_loss, texp=args.texp)
    print(report.render())
    print()
    print(f"MERGED CLUSTER TIMELINE ({args.threshold}-of-{args.replicas})")
    for access in cluster_log.merged():
        print("  " + access.describe())
    divergences = cluster_log.divergences(DEVICE_ID)
    print(f"  divergences: {len(divergences)}")
    for divergence in divergences:
        print("  !! " + divergence.describe())
    if injector.trace:
        print("  faults injected:")
        for at, what in injector.trace:
            print(f"    [{at:.3f}] {what}")
    metrics = rig.services.cluster.metrics.as_dict()
    print("  client metrics: "
          + ", ".join(f"{k}={v}" for k, v in metrics.items() if v))
    return 0 if not divergences and report.logs_intact else 2


#: CLI bench name -> module-level table builder (all accept jobs=;
#: the compile-based ones also accept scale=).
_BENCHES = {
    "fig6a": ("repro.harness.microbench", "fig6a_content_ops", False),
    "fig6b": ("repro.harness.microbench", "fig6b_metadata_ops", False),
    "fig7": ("repro.harness.compilebench", "fig7_key_expiration", True),
    "fig8a": ("repro.harness.compilebench", "fig8a_ibe_effect", True),
    "fig8b": ("repro.harness.compilebench", "fig8b_paired_device", True),
    "fig10": ("repro.harness.compilebench", "fig10_fs_comparison", True),
    "fig11": ("repro.harness.exposurebench", "fig11_key_exposure", False),
    "prefetch": ("repro.harness.compilebench",
                 "prefetch_policy_comparison", True),
    "ablation-ibe": ("repro.harness.compilebench", "ablation_ibe_cost", True),
}


def _cmd_bench(args: argparse.Namespace) -> int:
    import importlib

    from repro.harness.runner import write_bench_json

    module_name, fn_name, takes_scale = _BENCHES[args.name]
    fn = getattr(importlib.import_module(module_name), fn_name)
    kwargs = {"jobs": args.jobs}
    if takes_scale and args.scale is not None:
        kwargs["scale"] = args.scale
    table = fn(**kwargs)
    print(table.render())
    perf = getattr(table, "perf", None)
    if perf is not None:
        path = write_bench_json(perf, args.out)
        print(f"perf record written to {path}", file=sys.stderr)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.api import KeypadConfig
    from repro.harness import build_keypad_rig
    from repro.api import THREE_G

    builder = (KeypadConfig.builder().texp(args.texp).prefetch("dir:3")
               .ibe(True).tracing(op_deadline=args.deadline))
    if args.fast:
        builder = builder.fast_transport()
    config = builder.build()
    rig = build_keypad_rig(network=THREE_G, config=config)

    def bounded(op):
        # An op past --deadline, or one on a file an expired op never
        # made, is counted by the tracer; the demo goes on.
        try:
            yield from op
        except (DeadlineExpiredError, FileNotFound):
            pass

    names = _FILES + ("diary.txt",)

    def workload():
        yield from _populate(rig.fs, names, guard=bounded)
        # Let every cached key expire, then re-read: the reads force
        # blocking fetches and (on the third miss) a directory prefetch.
        yield rig.sim.timeout(args.texp + 10.0)
        for name in names:
            yield from bounded(rig.fs.read(f"/home/{name}", 0, 12))
        # Drain background registrations / write-behind flushes.
        yield rig.sim.timeout(30.0)

    rig.run(workload())
    collector = rig.tracer
    if not args.check:
        print(collector.render(max_ops=args.max_ops))
        print()

    merged = rig.services.channel_metrics()
    counter_blocking = (merged.calls - merged.handshakes
                        - rig.services.metrics.write_behind_flushes)
    trace_blocking = collector.blocking_rpcs()
    print(f"trace: {collector.op_count} ops, "
          f"{collector.rpc_total} RPC spans "
          f"({collector.rpc_handshakes} handshakes, "
          f"{collector.rpc_nonblocking} non-blocking), "
          f"deadline expiries: {collector.deadline_expiries}")
    print(f"reconciliation: blocking RPC spans = {trace_blocking}, "
          f"channel counters (calls - handshakes - flushes) = "
          f"{counter_blocking}")
    if trace_blocking != counter_blocking:
        print("MISMATCH: the span tree and the transport counters "
              "disagree about blocking round-trips", file=sys.stderr)
        return 2
    print("reconciled: span tree matches the blocking-RPC counters")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.api import run_fleet

    frontend = None
    if args.policy != "none":
        frontend = {
            "workers": args.workers,
            "queue_limit": args.queue_limit,
            "policy": args.policy,
            "coalesce": args.coalesce,
        }
    result = run_fleet(
        devices=args.devices,
        duration=args.duration,
        seed=args.seed.encode(),
        scanner_fraction=args.scanners,
        frontend=frontend,
        replicas=args.replicas,
        threshold=args.threshold,
    )
    summary = result.summary()
    print(f"fleet: {summary['devices']} devices, "
          f"{summary['duration_s']:.0f}s, policy={summary['policy']}")
    print(f"  requested={summary['requested']} "
          f"completed={summary['completed']} shed={summary['shed']} "
          f"expired={summary['expired']} failed={summary['failed']}")
    print(f"  throughput={summary['throughput_keys_per_s']:.1f} keys/s  "
          f"p50={summary['fetch_p50_ms']:.2f} ms  "
          f"p99={summary['fetch_p99_ms']:.2f} ms  "
          f"shed_rate={summary['shed_rate']:.3f}")
    fairness = summary["fairness_nonscanner"]
    print("  fairness (worst non-scanner max/min goodput): "
          + (f"{fairness:.2f}" if fairness is not None else
             "n/a (a device was starved)"))
    for name, row in sorted(summary["per_profile"].items()):
        print(f"    {name:<9} n={row['devices']:<6} "
              f"goodput={row['mean_goodput_keys_per_s']:.2f} keys/s/dev  "
              f"shed={row['shed']}")
    return 0


def _ctl_rig(args: argparse.Namespace):
    """One small mounted world for a ``ctl`` verb demo."""
    from repro.api import KeypadConfig, open_control
    from repro.harness import build_keypad_rig

    builder = (
        KeypadConfig.builder()
        .texp(args.texp)
        .tracing()
        .frontend(workers=4)
        .storage(args.backend)
    )
    rig = build_keypad_rig(config=builder.build())
    rig.run(_populate(rig.fs))
    return rig, open_control(rig)


def _fed_rig(args: argparse.Namespace):
    """One small federated world for the ``ctl region-*`` verbs: the
    configured regions with the device homed in the first."""
    from repro.api import KeypadConfig, Topology, open_control
    from repro.harness import build_keypad_rig

    topo = Topology.symmetric(
        regions=tuple(name.strip() for name in args.regions.split(",")),
        replicas_per_region=args.replicas_per_region,
        threshold=args.k,
        rtt_ms=args.rtt_ms,
    )
    config = (
        KeypadConfig.builder()
        .texp(args.texp)
        .federation(topology=topo)
        .build()
    )
    rig = build_keypad_rig(config=config, home_region=topo.region_names[0])
    return rig, open_control(rig), topo


def _cmd_ctl_region(args: argparse.Namespace) -> int:
    from repro.cluster import FaultInjector, FaultPlan

    rig, ctl, topo = _fed_rig(args)
    group = rig.replica_group
    home = topo.region_names[0]
    fs = rig.fs

    if args.verb == "region-status":
        def scenario():
            yield from fs.mkdir("/home")
            yield from fs.write_file("/home/probe.txt", b"probe")
            if args.crash_region:
                for i in topo.replica_indices(args.crash_region):
                    group.crash(i)
            # Let gossip converge on the (possibly degraded) view.
            yield rig.sim.timeout(3 * topo.dead_after)
            status = yield from ctl.region_status()
            return status

        status = rig.run(scenario())
        print(f"federation status at t={status['at']:.3f}")
        degraded = []
        for name in topo.region_names:
            row = status["regions"][name]
            if not row["available"]:
                degraded.append(name)
            print(f"  region {name:<8} replicas={row['replicas']} "
                  f"available={row['available']} "
                  f"[{'ok' if row['available'] else 'DOWN'}]")
        for member, state in sorted(status["members"].items()):
            print(f"  member {member:<16} {state}")
        for shard in sorted(status["leaders"], key=int):
            holder = status["leaders"][shard]
            print(f"  shard {shard}: leader={holder or 'none'}")
        if degraded:
            print("regions without an available replica: "
                  + ", ".join(degraded), file=sys.stderr)
            return EXIT_UNAVAILABLE
        return 0

    # partition-report
    region = args.partition or home
    injector = FaultInjector(
        rig.sim,
        {link.name: link for link in rig.replica_links},
        group,
    )
    injector.register_region(
        region,
        [link for j, link in enumerate(rig.replica_links)
         if (group.region_labels[j] == region) != (home == region)]
        + group.gossip_links_crossing(region),
    )

    def scenario():
        yield from fs.mkdir("/home")
        for name in _FILES:
            yield from fs.write_file(f"/home/{name}", b"confidential")
        yield rig.sim.timeout(5.0)  # let background registration settle
        injector.run(FaultPlan.region_partition(
            region, at=0.0, duration=args.duration))
        # Fetch during the split: evict caches so reads hit the cluster.
        fs.key_cache.evict_all()
        for name in _FILES:
            try:
                yield from fs.read_all(f"/home/{name}")
            except ReproError:
                pass  # under-threshold inside the split — expected
        # Register a fresh key inside the split: it cannot reach a
        # threshold of replicas, but the reachable in-region replicas
        # still log the attempt — the confined entries the merge
        # classifies as a region-split.
        import hashlib

        from repro.api import KeyCreate

        try:
            yield from rig.services.create(KeyCreate(
                audit_id=hashlib.sha256(b"partition-demo").digest()[:24]))
        except ReproError:
            pass  # needs k acks; the split allows fewer
        # Outlast the window, then prove a post-heal read converges.
        # Only one file is re-read: the others' split-confined audit
        # entries stay visible in the partition report.
        yield rig.sim.timeout(args.duration + 3 * topo.dead_after)
        fs.key_cache.evict_all()
        data = yield from fs.read_all(f"/home/{_FILES[0]}")
        assert data == b"confidential"
        report = yield from ctl.region_partition_report()
        return report

    report = rig.run(scenario())
    print(f"partitioned region {region!r} for {args.duration:g}s")
    for at, what in injector.trace:
        print(f"  [{at:.3f}] {what}")
    print(f"region splits detected: {report['split_count']}")
    for detail in report["splits"]:
        print("  !! " + detail)
    conv = report["convergence"]
    print(f"post-heal merge: {conv['merged_accesses']} accesses from "
          f"{conv['entries']} entries; missing={conv['missing_entries']} "
          f"duplicates={conv['duplicate_groups']} "
          f"lost={conv['lost_entries']}")
    if not conv["converged"]:
        print("CONVERGENCE FAILED: the healed merge lost or duplicated "
              "entries", file=sys.stderr)
        return 2
    print("converged: every entry from both sides of the split appears "
          "exactly once")
    return 0


def _cmd_ctl(args: argparse.Namespace) -> int:
    if args.verb in ("region-status", "partition-report"):
        return _cmd_ctl_region(args)
    rig, ctl = _ctl_rig(args)
    fs = rig.fs

    if args.verb == "set-texp":
        def scenario():
            before = yield from ctl.status()
            result = yield from ctl.set_texp(args.value, args.inflight)
            return before, result

        before, result = rig.run(scenario())
        print(f"texp: {before['texp']} -> {result['texp']} "
              f"(inflight {result['texp_inflight']}, "
              f"policy epoch {before['epoch']} -> {result['epoch']})")
        return 0

    if args.verb == "revoke":
        device = args.device or rig.services.device_id

        def scenario():
            result = yield from ctl.revoke(device)
            fs.key_cache.evict_all()
            try:
                yield from fs.read("/home/taxes.pdf", 0, 12)
            except ReproError as exc:
                return result, f"{type(exc).__name__}: {exc}"
            return result, None

        result, refusal = rig.run(scenario())
        print(f"revoked {result['revoked']} at "
              f"{result['services']} service(s)")
        if refusal is None:
            print("ERROR: a cold read still succeeded after revocation",
                  file=sys.stderr)
            return 2
        print(f"cold read refused: {refusal}")
        return 0

    if args.verb == "add-dir":
        result = rig.run(ctl.add_dir(args.path))
        print(f"protected prefixes (epoch {result['epoch']}): "
              + " ".join(result["protected_prefixes"]))
        return 0

    if args.verb == "drain":
        def scenario():
            result = yield from ctl.drain(args.index)
            fs.key_cache.evict_all()
            try:
                yield from fs.read("/home/taxes.pdf", 0, 12)
                shed = False
            except OverloadSheddedError:
                shed = True
            yield from ctl.admit(args.index)
            yield from fs.read("/home/taxes.pdf", 0, 12)
            return result, shed

        result, shed = rig.run(scenario())
        frontends = rig.extras.get("frontends", [])
        print(f"drained {result['draining']} frontend(s); cold read while "
              f"draining was {'shed' if shed else 'NOT shed'}; "
              "re-admitted and served")
        for i, frontend in enumerate(frontends):
            print(f"  frontend[{i}]: "
                  f"shed_draining={frontend.metrics.shed_draining}")
        return 0 if shed else 2

    # tail-trace
    def scenario():
        fs.key_cache.evict_all()
        for name in _FILES:
            yield from fs.read(f"/home/{name}", 0, 12)
        page = yield from ctl.tail_trace(cursor=args.cursor,
                                         limit=args.limit)
        return page

    page = rig.run(scenario())
    print(f"trace: {page['total']} ops total, cursor -> {page['cursor']}")
    for op in page["ops"]:
        print(f"  [{op['start']:9.3f}] {op['op']:<8} {op['path']:<20} "
              f"{op['status']:<6} {op['duration'] * 1e3:8.2f} ms "
              f"({op['spans']} spans)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="keypad-audit",
        description="Keypad forensic audit report tool",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="report from an exported bundle")
    report.add_argument("--bundle", required=True,
                        help="path to the exported JSON log bundle")
    report.add_argument("--tloss", type=float, required=True,
                        help="Tloss: last time the owner had the device")
    report.add_argument("--texp", type=float, default=100.0,
                        help="key expiration time Texp (default 100s)")
    report.add_argument("--device", default=None,
                        help="restrict to one device id")
    report.set_defaults(func=_cmd_report)

    demo = sub.add_parser("demo", help="self-contained simulation demo")
    demo.add_argument("--steal", action="store_true",
                      help="include a post-loss thief access")
    demo.add_argument("--texp", type=float, default=100.0)
    demo.add_argument("--export", default=None,
                      help="also write the log bundle to this path")
    demo.set_defaults(func=_cmd_demo)

    forensics = sub.add_parser(
        "forensics",
        help="answer forensic queries from materialized views, "
             "reconciled against the raw-log scan",
    )
    forensics.add_argument("--bundle", default=None,
                           help="exported JSON log bundle (default: run "
                                "a self-contained stolen-device demo)")
    forensics.add_argument("--view",
                           choices=("timeline", "file-set", "post-theft"),
                           default="post-theft",
                           help="which materialized view answers "
                                "(default post-theft)")
    forensics.add_argument("--tloss", type=float, default=None,
                           help="Tloss (required with --bundle; the demo "
                                "provides its own)")
    forensics.add_argument("--texp", type=float, default=100.0,
                           help="key expiration time Texp (default 100s)")
    forensics.add_argument("--device", default=None,
                           help="restrict to one device id")
    forensics.add_argument("--audit-id", default=None,
                           help="hex audit ID for --view file-set "
                                "(default: every known file)")
    forensics.add_argument("--limit", type=int, default=20,
                           help="max entries printed per answer "
                                "(default 20)")
    forensics.add_argument("--recover", default=None, metavar="DIR",
                           help="rebuild log + views from serialized "
                                "segment blobs in DIR alone (exit 2 on "
                                "chain breaks)")
    forensics.add_argument("--export-image", default=None, metavar="DIR",
                           help="run the durable stolen-device demo and "
                                "write its audit blobs to DIR for "
                                "--recover")
    forensics.add_argument("--name", default="key-access",
                           help="audit log name for --recover "
                                "(default key-access)")
    forensics.add_argument("--segment-entries", type=int, default=1024,
                           help="segment capacity for --recover "
                                "(default 1024)")
    forensics.set_defaults(func=_cmd_forensics)

    cluster = sub.add_parser(
        "cluster-demo",
        help="replicated key-service demo with fault injection",
    )
    cluster.add_argument("--replicas", type=int, default=3,
                         help="replica count m (default 3)")
    cluster.add_argument("--threshold", type=int, default=2,
                         help="share threshold k (default 2)")
    cluster.add_argument("--texp", type=float, default=100.0)
    cluster.add_argument("--steal", action="store_true",
                         help="include a post-loss thief access")
    cluster.add_argument("--crash", type=int, default=None, metavar="I",
                         help="crash replica I during the run")
    cluster.add_argument("--crash-at", type=float, default=100.0,
                         help="crash start time (default 100)")
    cluster.add_argument("--crash-duration", type=float, default=60.0,
                         help="crash window length (default 60)")
    cluster.set_defaults(func=_cmd_cluster_demo)

    bench = sub.add_parser(
        "bench",
        help="regenerate a figure/table via the parallel experiment engine",
    )
    bench.add_argument("--name", required=True, choices=sorted(_BENCHES),
                       help="which figure/table to regenerate")
    bench.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: KEYPAD_BENCH_JOBS "
                            "or 1 = serial)")
    bench.add_argument("--scale", type=float, default=None,
                       help="workload scale for compile-based benches "
                            "(default: KEYPAD_BENCH_SCALE or 0.3)")
    bench.add_argument("--out", default="benchmarks/results",
                       help="directory for the BENCH_<name>.json record")
    bench.set_defaults(func=_cmd_bench)

    trace = sub.add_parser(
        "trace",
        help="per-op span trees from a traced workload, reconciled "
             "against the transport counters",
    )
    trace.add_argument("--texp", type=float, default=100.0)
    trace.add_argument("--deadline", type=float, default=None,
                       help="per-operation deadline in sim seconds "
                            "(default: none)")
    trace.add_argument("--fast", action="store_true",
                       help="enable the v2 transport (pipelining, "
                            "coalescing, write-behind)")
    trace.add_argument("--max-ops", type=int, default=40,
                       help="cap on rendered per-op trees (default 40)")
    trace.add_argument("--check", action="store_true",
                       help="reconciliation only (no trees); exit 2 on "
                            "mismatch")
    trace.set_defaults(func=_cmd_trace)

    fleet = sub.add_parser(
        "fleet",
        help="drive a simulated device fleet through the server frontend",
    )
    fleet.add_argument("--devices", type=int, default=100,
                       help="fleet size (default 100)")
    fleet.add_argument("--duration", type=float, default=30.0,
                       help="simulated seconds to run (default 30)")
    fleet.add_argument("--policy", choices=("drr", "fifo", "none"),
                       default="drr",
                       help="frontend scheduler; 'none' = the legacy "
                            "unbounded server (default drr)")
    fleet.add_argument("--workers", type=int, default=8,
                       help="concurrent server workers (default 8)")
    fleet.add_argument("--queue-limit", type=int, default=64,
                       help="per-device pending-request bound (default 64)")
    fleet.add_argument("--coalesce", type=int, default=8,
                       help="max cross-device group-commit size (default 8)")
    fleet.add_argument("--scanners", type=float, default=0.10,
                       help="fraction of file-scanner devices (default 0.1)")
    fleet.add_argument("--seed", default="fleet",
                       help="deterministic fleet seed (default 'fleet')")
    fleet.add_argument("--replicas", type=int, default=1,
                       help="key-service replicas (default 1 = single)")
    fleet.add_argument("--threshold", type=int, default=1,
                       help="secret-share threshold k (default 1)")
    fleet.set_defaults(func=_cmd_fleet)

    ctl = sub.add_parser(
        "ctl",
        help="runtime control-channel verbs against a demo rig",
    )
    ctl.add_argument("--texp", type=float, default=100.0,
                     help="mount-time Texp (default 100s)")
    ctl.add_argument("--backend", choices=("ext3", "memory", "cas"),
                     default="ext3",
                     help="storage backend to mount (default ext3)")
    ctl_sub = ctl.add_subparsers(dest="verb", required=True)

    set_texp = ctl_sub.add_parser(
        "set-texp", help="change Texp on the live mount")
    set_texp.add_argument("value", type=float,
                          help="new Texp in seconds (0 disables caching)")
    set_texp.add_argument("--inflight", type=float, default=None,
                          help="also change the in-flight Texp bound")

    revoke = ctl_sub.add_parser(
        "revoke", help="revoke a device, then prove cold reads fail")
    revoke.add_argument("--device", default=None,
                        help="device id (default: the rig's laptop)")

    add_dir = ctl_sub.add_parser(
        "add-dir", help="add a protected directory prefix")
    add_dir.add_argument("path", help="absolute directory path")

    drain = ctl_sub.add_parser(
        "drain", help="drain the frontend, show the shed, re-admit")
    drain.add_argument("--index", type=int, default=None,
                       help="frontend index (default: all)")

    tail = ctl_sub.add_parser(
        "tail-trace", help="stream live per-op trace spans")
    tail.add_argument("--cursor", type=int, default=0,
                      help="resume cursor from a previous page (default 0)")
    tail.add_argument("--limit", type=int, default=50,
                      help="max ops per page (default 50)")

    region_status = ctl_sub.add_parser(
        "region-status",
        help="per-region availability, gossip membership, and shard "
             "leaders of a federated rig (exit 4 if a region has no "
             "available replica)")
    region_status.add_argument(
        "--crash-region", default=None, metavar="NAME",
        help="crash every replica in this region first, to demo the "
             "degraded view")

    partition_report = ctl_sub.add_parser(
        "partition-report",
        help="sever a region mid-run, heal it, and print the merged "
             "audit timeline's region-split and convergence report "
             "(exit 2 if the merge lost or duplicated entries)")
    partition_report.add_argument(
        "--partition", default=None, metavar="NAME",
        help="region to sever (default: the device's home region)")
    partition_report.add_argument(
        "--duration", type=float, default=20.0,
        help="partition window in sim seconds (default 20)")

    for fed in (region_status, partition_report):
        fed.add_argument("--regions", default="us,eu,ap",
                         help="comma-separated region names "
                              "(default us,eu,ap)")
        fed.add_argument("--replicas-per-region", type=int, default=2,
                         help="replicas hosted per region (default 2)")
        fed.add_argument("--k", type=int, default=3,
                         help="secret-share threshold (default 3, so a "
                              "severed region is under-threshold)")
        fed.add_argument("--rtt-ms", type=float, default=60.0,
                         help="inter-region RTT in ms (default 60)")

    ctl.set_defaults(func=_cmd_ctl)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"keypad-audit: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    raise SystemExit(main())
