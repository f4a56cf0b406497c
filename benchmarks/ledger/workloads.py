"""The ledger's five workloads.

Each workload is a pair of functions: ``setup(seed, size) -> world``
builds the world before the timed section, and ``run(world, size,
clock) -> Round`` does the work inside ``clock.measured()``, reads the
program's public counters, and checks the outputs.  The seed reaches
the program only as generated inputs.
All five are closed loops in one process and one thread: a Keypad file
operation blocks on its key fetch, so the next request of a client is
issued only after the previous one returns.

Only the stable surface is used — ``repro.api`` and
``KeypadConfig.builder()`` — plus the two benchmark-pinned names below,
which the facade does not carry.
"""

from __future__ import annotations

import gc
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

from repro.api import (
    DEFAULT_COSTS,
    LAN,
    THREE_G,
    WLAN,
    BlobImage,
    BlobStore,
    ClusterAuditLog,
    DurableAuditStore,
    KeypadConfig,
    Topology,
    mount,
    run_fleet,
)
from repro.cluster import FaultPlan                 # benchmark-pinned
from repro.workloads import ApacheCompileWorkload   # benchmark-pinned

#: One round is sized to about 2.5 s of timed work on the 2-core
#: reference box; ``run.py`` runs ``round(seconds / ROUND_SECONDS)`` of
#: them, so ``--seconds`` sets how much work a run measures and the
#: simulated statistics depend on the seed and that count alone.
ROUND_SECONDS = 2.5

AUDIT_SEGMENT = 4096
AUDIT_FLUSH_EVERY = 64
#: entries appended after the last group commit; the crash loses exactly
#: these and recovery must say so
AUDIT_UNFLUSHED = 37

SIZES = {
    "fleet_drr": {"devices": 1250, "workers": 15, "duration": 30.0},
    "compile_3g": {"scale": 0.5},
    "meta_ibe": {"files": 100},
    "audit_durable": {"entries": 400 * AUDIT_FLUSH_EVERY + AUDIT_UNFLUSHED,
                      "devices": 1024,
                      "files": 512, "checkpoint_every": 8192,
                      "queries": 750},
    "cluster_faulted": {"devices": 100, "workers": 2, "duration": 30.0},
}

#: ``--smoke``: one round of about a tenth of a full run, same code paths
#: and checks.
SMOKE_SIZES = {
    "fleet_drr": {"devices": 500, "workers": 6, "duration": 20.0},
    "compile_3g": {"scale": 0.25},
    "meta_ibe": {"files": 40},
    "audit_durable": {"entries": 200 * AUDIT_FLUSH_EVERY + AUDIT_UNFLUSHED,
                      "devices": 512,
                      "files": 256, "checkpoint_every": 4096,
                      "queries": 300},
    "cluster_faulted": {"devices": 50, "workers": 1, "duration": 21.0},
}

#: a disk-backed durable log on the service, as in bench_fleet_scale:
#: with the in-memory defaults the frontends never queue, and every
#: fetch of a seed takes the same time to the last digit
FLEET_COSTS = replace(DEFAULT_COSTS, service_log_append=0.012,
                      service_key_lookup=0.006)
FRONTEND = {"queue_limit": 4, "policy": "drr", "coalesce": 8}

AUDIT_KINDS = ("fetch", "fetch", "refresh", "fetch", "prefetch",
               "evict-notify", "fetch", "create")
#: the kinds above that disclose a key (what the forensic views index)
DISCLOSING = frozenset(AUDIT_KINDS) - {"evict-notify"}

REGIONS = ("us", "eu", "ap")
SEVERED = "eu"
CLUSTER_THRESHOLD = 3

FS_OPS = ("create", "read", "write", "unlink", "rename", "getattr",
          "mkdir", "exists")
CHUNK = 4096


@dataclass
class Round:
    """What one round of one workload measured."""

    wall_s: float               # the timed section ``ops`` is divided by
    cpu_s: float                # CPU of every measured section
    ops: int
    attempted: int
    refused: int                # not completed, by design of the workload
    failed: int                 # not completed, and should have been
    latencies_ms: list
    goodput: float              # per second on the waiting person's clock
    sim: dict                   # repeats exactly for a seed
    counts: dict                # the program's own counters, raw
    problems: list = field(default_factory=list)


class Clock:
    """Times a round's set-up and measured sections.

    ``profiler`` (a ``cProfile.Profile``) runs only inside measured
    sections, and not inside ``paused()`` ones.
    """

    def __init__(self, profiler=None):
        self.profiler = profiler
        self.setup_s = 0.0
        self.setup_cpu_s = 0.0
        self.cpu_s = 0.0

    @contextmanager
    def setup(self):
        gc.collect()
        wall, cpu = time.perf_counter(), time.process_time()
        yield
        self.setup_s += time.perf_counter() - wall
        self.setup_cpu_s += time.process_time() - cpu

    @contextmanager
    def measured(self):
        """Yields a span whose ``wall`` is set when the block ends."""
        span = SimpleNamespace(wall=0.0)
        gc.collect()
        wall, cpu = time.perf_counter(), time.process_time()
        if self.profiler is not None:
            self.profiler.enable()
        try:
            yield span
        finally:
            if self.profiler is not None:
                self.profiler.disable()
            span.wall += time.perf_counter() - wall
            self.cpu_s += time.process_time() - cpu

    @contextmanager
    def paused(self, span):
        """Inside a measured block: leave what runs here out of it."""
        if self.profiler is not None:
            self.profiler.disable()
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            span.wall -= time.perf_counter() - wall
            self.cpu_s -= time.process_time() - cpu
            if self.profiler is not None:
                self.profiler.enable()


class TimedFs:
    """Forwards file-system operations, timing each one on both clocks —
    the benchmark's own span around the call into the FS.

    On one device with nothing to queue behind, an operation's
    *simulated* latency is a constant of the cost model (a cached read
    is 0.347 ms whatever the seed), so it is kept as an exact statistic
    and the latency metric is the *host* time the operation took.
    """

    def __init__(self, fs, sim):
        self._fs = fs
        self._sim = sim
        self.sim_ms: list = []
        self.host_ms: list = []

    def __getattr__(self, name):
        target = getattr(self._fs, name)
        if name not in FS_OPS:
            return target

        def op(*args, **kwargs):
            sim_start, host_start = self._sim.now, time.perf_counter()
            result = yield from target(*args, **kwargs)
            self.host_ms.append((time.perf_counter() - host_start) * 1e3)
            self.sim_ms.append((self._sim.now - sim_start) * 1e3)
            return result

        setattr(self, name, op)     # later lookups skip __getattr__
        return op

    def sim_summary(self) -> dict:
        ordered = sorted(self.sim_ms)
        return {"fs_calls": len(ordered),
                "sim_op_mean_ms": sum(ordered) / len(ordered),
                "sim_op_p50_ms": ordered[len(ordered) // 2],
                "sim_op_p99_ms": ordered[len(ordered) * 99 // 100]}


def _live_counters() -> dict:
    """Sum the transport counters of every live channel and cluster
    client.  ``run_fleet`` builds its devices itself and hands back only
    their outcome statistics, so while they are still alive the counter
    objects are found by class name."""
    fields = {
        "ChannelMetrics": ("calls", "bytes_sent", "bytes_received",
                           "retries", "deadline_expiries"),
        "ClusterMetrics": ("hedged", "failovers", "retries", "repairs"),
    }
    totals = {kind: dict.fromkeys(names, 0) for kind, names in fields.items()}
    for obj in gc.get_objects():
        kind = type(obj).__name__
        if kind in fields and type(obj).__module__.startswith("repro."):
            for name in fields[kind]:
                totals[kind][name] += getattr(obj, name)
    return totals


def _rpc_counts(channel: dict) -> dict:
    return {
        "net.rpc.calls": channel["calls"],
        "net.rpc.bytes": channel["bytes_sent"] + channel["bytes_received"],
        "net.rpc.retries": channel["retries"],
        "net.rpc.deadline_expiries": channel["deadline_expiries"],
    }


def _frontend_counts(frontends: list) -> dict:
    return {
        "server.admitted": sum(f["admitted"] for f in frontends),
        "server.shed": sum(f["shed"] for f in frontends),
        "server.groups": sum(f["groups"] for f in frontends),
        "server.grouped_requests": sum(f["grouped_requests"]
                                       for f in frontends),
        "server.max_backlog": max(f["max_backlog"] for f in frontends),
    }


def _store_counts(stores: list) -> dict:
    """Counters of durable audit stores sharing one blob store."""
    stats = [store.stats() for store in stores]
    blobs = stores[0].blobs.store
    return {
        "auditstore.entries": sum(s["entries"] for s in stats),
        "auditstore.durable.flushes": sum(s["durable"]["flushes"]
                                          for s in stats),
        "auditstore.durable.spilled_segments": sum(
            s["durable"]["spilled_segments"] for s in stats),
        "auditstore.store.seals": sum(s["seals"] for s in stats),
        "auditstore.views.rebuilds": sum(s["views"]["rebuilds"]
                                         for s in stats),
        "storage.blob_bytes_written": blobs.stats()["bytes_written"],
        "storage.blob_bytes_kept": sum(len(data) for data
                                       in blobs.snapshot().values()),
    }


def _fleet_round(result, summary, clock, span, probe, counts, problems,
                 failed: int) -> Round:
    """The part of a round both fleet workloads share.  ``failed`` says
    how many of the requests that did not complete should have."""
    not_done = summary["shed"] + summary["expired"] + summary["failed"]
    if summary["completed"] + not_done + summary["revoked"] \
            != summary["requested"]:
        problems.append("completed + shed + expired + failed != requested")
    if summary["revoked"]:
        problems.append(f"{summary['revoked']} requests refused as revoked")
    counts.update(_frontend_counts(summary["frontend"]))
    counts.update(_rpc_counts(probe["live"]["ChannelMetrics"]))
    counts["server.fairness"] = summary["fairness_nonscanner"] or 0.0
    # the timed section is the full call less a provisioning-only call
    return Round(
        wall_s=span.wall - clock.setup_s,
        cpu_s=clock.cpu_s - clock.setup_cpu_s,
        ops=summary["completed"],
        attempted=summary["requested"],
        refused=not_done - failed,
        failed=failed,
        latencies_ms=[lat * 1e3 for stat in result.stats
                      for lat in stat.latencies],
        goodput=summary["throughput_keys_per_s"],
        sim={key: summary[key] for key in (
            "requested", "completed", "shed", "expired", "failed",
            "keys_served", "fetch_p50_ms", "fetch_p99_ms",
            "fairness_nonscanner")},
        counts=counts,
        problems=problems,
    )


def fleet_drr_setup(seed: bytes, size: dict) -> dict:
    """``run_fleet`` provisions and drives in one call, so set-up is a
    provisioning-only call with the same arguments."""
    knobs = dict(
        devices=size["devices"], seed=seed, network=LAN, costs=FLEET_COSTS,
        frontend=dict(FRONTEND, workers=size["workers"]), fleet_shards=1,
    )
    run_fleet(duration=0.001, **knobs)
    return knobs


def fleet_drr(knobs: dict, size: dict, clock: Clock) -> Round:
    """Closed-loop device fleet against one key service behind the
    fair-queued frontend, just past the knee of its worker pool."""
    probe: dict = {}

    def inspect(service):
        with clock.paused(span):
            probe["audit_entries"] = len(service.access_log)
            probe["live"] = _live_counters()

    with clock.measured() as span:
        result = run_fleet(duration=size["duration"], inspect=inspect,
                           **knobs)

    problems = []
    summary = result.summary()
    if probe["audit_entries"] < summary["keys_served"]:
        problems.append(f"{probe['audit_entries']} audit entries for "
                        f"{summary['keys_served']} keys served")
    counts = {"auditstore.entries": probe["audit_entries"]}
    # load shedding past the knee is the frontend working as designed;
    # any other failure on a healthy service is not
    return _fleet_round(result, summary, clock, span, probe, counts,
                        problems, failed=summary["failed"])


def cluster_faulted_setup(seed: bytes, size: dict) -> dict:
    knobs = dict(
        devices=size["devices"], seed=seed, network=WLAN, costs=FLEET_COSTS,
        topology=Topology.symmetric(
            regions=REGIONS, replicas_per_region=2,
            threshold=CLUSTER_THRESHOLD, rtt_ms=60.0),
        geo_routing=True, audit_store="segmented", audit_durable=True,
        audit_flush_policy="every-n",
        frontend=dict(FRONTEND, workers=size["workers"]), fleet_shards=1,
    )
    run_fleet(duration=0.001, **knobs)
    return knobs


def cluster_faulted(knobs: dict, size: dict, clock: Clock) -> Round:
    """Three-region 3-of-6 federation with durable audit stores; the
    ``eu`` region is cut off for the middle third of the run and the
    post-heal audit merge is part of the timed work."""
    duration = size["duration"]
    probe: dict = {}

    def inspect(group):
        log = ClusterAuditLog(group, group.k, window=5.0)
        divergences = log.divergences()
        probe["splits"] = [d.detail for d in divergences
                           if d.kind == "region-split"]
        probe["divergences"] = len(divergences)
        probe["convergence"] = log.convergence_report()
        with clock.paused(span):
            probe["store"] = _store_counts(
                [replica.access_log for replica in group.replicas])
            probe["live"] = _live_counters()

    with clock.measured() as span:
        result = run_fleet(
            duration=duration, inspect=inspect,
            faults=FaultPlan.region_partition(
                SEVERED, at=duration / 3, duration=duration / 3),
            **knobs)

    problems = []
    summary = result.summary()
    convergence = probe["convergence"]
    if probe["store"]["auditstore.entries"] \
            < CLUSTER_THRESHOLD * summary["keys_served"]:
        problems.append("fewer audit entries than threshold x keys served")
    if len(probe["splits"]) != 1 or SEVERED not in probe["splits"][0]:
        problems.append(f"expected one region-split naming {SEVERED!r}, "
                        f"got {probe['splits']}")
    if not convergence["converged"]:
        problems.append(f"post-heal merge did not converge: {convergence}")
    if convergence["lost_entries"] != 0:
        problems.append(f"{convergence['lost_entries']} audit entries lost")
    trace = [what for _, what in result.fault_trace]
    if trace != [f"partition region:{SEVERED}", f"heal region:{SEVERED}"]:
        problems.append(f"fault trace {trace}")

    cluster = probe["live"]["ClusterMetrics"]
    counts = dict(probe["store"])
    counts.update({
        "cluster.client.hedged": cluster["hedged"],
        "cluster.client.failovers": cluster["failovers"],
        "cluster.client.retries": cluster["retries"],
        "cluster.client.repairs": cluster["repairs"],
        "cluster.merge.entries": convergence["entries"],
        "cluster.merge.divergences": probe["divergences"],
    })
    # a device homed in the severed region cannot gather three shares
    # while cut off: those requests expire by design.  Every request of
    # a device homed elsewhere must still complete.
    failed = sum(stat.requested - stat.completed
                 for stat in result.stats if stat.region != SEVERED)
    return _fleet_round(result, summary, clock, span, probe, counts,
                        problems, failed=failed)


def _rig_counts(rig) -> dict:
    stats = rig.fs.stats
    cache = rig.fs.key_cache
    counts = _rpc_counts(rig.services.channel_metrics().as_dict())
    counts.update({
        "core.keycache.hits": cache.hits,
        "core.keycache.lookups": cache.hits + cache.misses,
        "core.fs.blocking_key_fetches": stats["blocking_key_fetches"],
        "core.fs.prefetched_keys": stats["prefetched_keys"],
        "core.fs.blocking_metadata_ops": stats["blocking_metadata_ops"],
        "core.fs.ibe_locks": stats["ibe_locks"],
        "core.fs.ibe_unlocks": stats["ibe_unlocks"],
        "storage.block_reads": rig.device.reads,
        "storage.block_writes": rig.device.writes,
        "auditstore.entries": len(rig.key_service.access_log),
    })
    return counts


def compile_3g_setup(seed: bytes, size: dict) -> tuple:
    """Mount, materialize the source tree, and let every cache go cold."""
    config = KeypadConfig.builder().texp(1.0).ibe(False).build()
    rig = mount(network=THREE_G, config=config, seed=seed)
    workload = ApacheCompileWorkload(
        scale=size["scale"], seed=int.from_bytes(seed[:4], "big"))
    rig.run(workload.prepare(rig.fs))

    def cool():
        yield rig.sim.timeout(300.0)

    rig.run(cool())
    rig.fs.key_cache.evict_all()
    rig.fs.prefetch_policy.reset()
    for key in rig.fs.stats:
        rig.fs.stats[key] = 0
    return rig, workload


def compile_3g(world: tuple, size: dict, clock: Clock) -> Round:
    """The paper's Apache compile (Fig 7) on the slowest link with the
    shortest key expiration, IBE off."""
    rig, workload = world
    fs = TimedFs(rig.fs, rig.sim)
    started = rig.sim.now
    with clock.measured() as span:
        counter = rig.run(workload.run(fs, rig.sim))
    sim_seconds = rig.sim.now - started

    problems = []
    if not rig.key_service.access_log.verify_chain():
        problems.append("service log chain does not verify")
    disclosed = len(rig.key_service.accesses_after(started))
    fetches = rig.fs.stats["blocking_key_fetches"]
    if disclosed < fetches:
        problems.append(f"{disclosed} disclosing audit entries for "
                        f"{fetches} blocking key fetches")

    def read_back():
        sizes = []
        for d in range(0, workload.n_src_dirs, 3):
            path = f"{workload.root}/objs/mod{d:02d}_000.o"
            attr = yield from rig.fs.getattr(path)
            data = yield from rig.fs.read(path, 0, attr.size)
            sizes.append(len(data))
        return sizes

    counts = _rig_counts(rig)
    sizes = rig.run(read_back())
    if any(got != workload.object_size for got in sizes):
        problems.append(f"object files read back at {sizes} bytes")

    ops = counter.content_ops + counter.metadata_ops
    return Round(
        wall_s=span.wall, cpu_s=clock.cpu_s,
        ops=ops, attempted=ops, refused=0, failed=0,
        latencies_ms=fs.host_ms,
        goodput=ops / sim_seconds,
        sim={"compile_seconds": sim_seconds, "fs_ops": ops,
             **fs.sim_summary(),
             **{key: rig.fs.stats[key] for key in (
                 "blocking_key_fetches", "prefetched_keys",
                 "blocking_metadata_ops")}},
        counts=counts,
        problems=problems,
    )


def meta_ibe_setup(seed: bytes, size: dict) -> tuple:
    config = KeypadConfig.builder().texp(100.0).ibe(True).build()
    rig = mount(network=LAN, config=config, seed=seed)
    rig.run(rig.fs.mkdir("/docs"))
    draw = random.Random(seed)
    stems = [f"{i:04d}-{draw.getrandbits(32):08x}"
             for i in range(size["files"])]
    bodies = [draw.randbytes(draw.randint(1, 4 * CHUNK)) for _ in stems]
    return rig, stems, bodies


def meta_ibe(world: tuple, size: dict, clock: Clock) -> Round:
    """Metadata writes under IBE: create, write (1 to 16 KiB, drawn
    from the seed), rename each file, let the registrations settle,
    then read every file back."""
    rig, stems, bodies = world
    files = len(stems)
    fs = TimedFs(rig.fs, rig.sim)
    busy = [0.0]
    wrong: list = []

    def body():
        sim = rig.sim
        start = sim.now
        for stem, data in zip(stems, bodies):
            yield from fs.create(f"/docs/{stem}.tmp")
            for at in range(0, len(data), CHUNK):
                yield from fs.write(f"/docs/{stem}.tmp", at,
                                    data[at:at + CHUNK])
            yield from fs.rename(f"/docs/{stem}.tmp", f"/docs/{stem}.doc")
        busy[0] += sim.now - start
        yield sim.timeout(30.0)
        start = sim.now
        for stem, data in zip(stems, bodies):
            got = b""
            for at in range(0, len(data), CHUNK):
                got += yield from fs.read(f"/docs/{stem}.doc", at, CHUNK)
            if got != data:
                wrong.append(stem)
        busy[0] += sim.now - start

    with clock.measured() as span:
        rig.run(body())

    problems = []
    if wrong:
        problems.append(f"{len(wrong)} files read back wrong")
    if rig.fs.stats["ibe_unlocks"] != files:
        problems.append(f"{rig.fs.stats['ibe_unlocks']} IBE unlocks for "
                        f"{files} files")
    return Round(
        wall_s=span.wall, cpu_s=clock.cpu_s,
        ops=files, attempted=files, refused=0, failed=len(wrong),
        latencies_ms=fs.host_ms,
        goodput=files / busy[0],
        sim={"busy_seconds": busy[0], **fs.sim_summary(),
             "ibe_locks": rig.fs.stats["ibe_locks"],
             "ibe_unlocks": rig.fs.stats["ibe_unlocks"]},
        counts=_rig_counts(rig),
        problems=problems,
    )


AUDIT_STORE = dict(name="ledger", segment_entries=AUDIT_SEGMENT,
                   flush_policy="every-n", flush_every=AUDIT_FLUSH_EVERY)


def audit_durable_setup(seed: bytes, size: dict) -> tuple:
    draw = random.Random(seed)
    audit_ids = [i.to_bytes(3, "big") * 8 for i in range(size["files"])]
    records = [
        (i * 0.01, f"dev-{draw.randrange(size['devices']):05d}",
         AUDIT_KINDS[i % len(AUDIT_KINDS)],
         audit_ids[draw.randrange(size["files"])])
        for i in range(size["entries"])
    ]
    namespace = BlobStore("memory").namespace("audit/ledger")
    store = DurableAuditStore.create(namespace, **AUDIT_STORE)
    return draw, audit_ids, records, namespace, store


def audit_durable(world: tuple, size: dict, clock: Clock) -> Round:
    """The durable audit store with no simulation around it: single
    appends with group commit, a crash, recovery from the blobs alone,
    then forensic view queries on the recovered store."""
    draw, audit_ids, records, namespace, store = world
    n = len(records)

    with clock.measured() as appending:
        for i, (stamp, device, kind, audit_id) in enumerate(records, 1):
            store.append(stamp, device, kind, audit_id=audit_id)
            if i % size["checkpoint_every"] == 0:
                store.checkpoint()

    counts = _store_counts([store])
    flushed = store.stats()["durable"]["flushed_entries"]
    image = BlobImage(namespace.snapshot())

    with clock.measured() as recovering:
        recovered = DurableAuditStore.recover(
            image, entries_before=n, **AUDIT_STORE)
        chain_ok = recovered.verify_chain()

    views = recovered.views
    horizon = len(recovered) * 0.01
    latencies = []
    with clock.measured():
        for q in range(size["queries"]):
            start = time.perf_counter()
            if q % 3 == 0:
                views.accesses_after(horizon * draw.uniform(0.995, 0.999))
            elif q % 3 == 1:
                views.device_timeline(
                    f"dev-{draw.randrange(size['devices']):05d}")
            else:
                views.file_accesses(audit_ids[draw.randrange(size["files"])])
            latencies.append((time.perf_counter() - start) * 1e3)

    problems = []
    report = recovered.recovery
    if len(recovered) != flushed:
        problems.append(f"recovered {len(recovered)} entries, "
                        f"{flushed} were flushed")
    if report["lost_entries"] != AUDIT_UNFLUSHED:
        problems.append(f"recovery reports {report['lost_entries']} lost "
                        f"entries, {AUDIT_UNFLUSHED} were unflushed")
    if not chain_ok:
        problems.append("recovered chain does not verify")
    since = horizon * 0.997
    device = records[n // 2][1]
    audit_id = records[n // 2][3]
    scans = {
        "post-theft": (views.accesses_after(since),
                       [e for e in recovered.entries(since=since)
                        if e.kind in DISCLOSING]),
        "timeline": (views.device_timeline(device),
                     recovered.entries(device_id=device)),
        "file set": (views.file_accesses(audit_id),
                     [e for e in recovered if e.kind in DISCLOSING
                      and e.fields.get("audit_id") == audit_id]),
    }
    for name, (view, scan) in scans.items():
        if view != scan or not scan:
            problems.append(f"{name} view differs from its raw scan")
    counts["auditstore.views.rebuilds"] = \
        recovered.stats()["views"]["rebuilds"]

    silently_lost = max(0, n - len(recovered) - report["lost_entries"])
    return Round(
        wall_s=appending.wall, cpu_s=clock.cpu_s,
        ops=n, attempted=n, refused=0, failed=silently_lost,
        latencies_ms=latencies,
        goodput=len(recovered) / recovering.wall,
        sim={"recovered": len(recovered), "lost": report["lost_entries"],
             "checkpoint_used": report["checkpoint_used"],
             "queries": len(latencies)},
        counts=counts,
        problems=problems,
    )


#: name -> (setup, run)
WORKLOADS = {
    "fleet_drr": (fleet_drr_setup, fleet_drr),
    "compile_3g": (compile_3g_setup, compile_3g),
    "meta_ibe": (meta_ibe_setup, meta_ibe),
    "audit_durable": (audit_durable_setup, audit_durable),
    "cluster_faulted": (cluster_faulted_setup, cluster_faulted),
}
