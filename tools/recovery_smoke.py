#!/usr/bin/env python3
"""CI smoke test for durable audit-store crash recovery.

Three stages, each fast enough for a pull-request gate:

1. **Crash and restart** — mount a durable-audit rig, generate audit
   traffic, crash the key service mid-run, recover it through
   ``ctl.audit_recover``, and assert the recovered log verifies with
   zero loss under ``every-append`` flushing.  A follow-up
   ``every-seal`` arm proves a truncated tail is *reported*, never
   silent.
2. **Forensics from blobs alone** — export the durable demo's audit
   blobs to a directory, rebuild log + views with
   ``keypad-audit forensics --recover``, then flip one byte and assert
   the rebuild refuses with exit code 2.
3. **Fleet arm** — ``run_fleet`` over a 3-replica cluster with a
   scripted mid-run replica kill + restart (``FaultPlan.replica_kill``)
   and assert the replica came back through real recovery and the
   cluster merge names any loss as a ``stale-recovery`` divergence.

Exits nonzero on the first violated expectation.  Run from the repo
root with ``PYTHONPATH=src python tools/recovery_smoke.py``.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

from repro.api import (
    ClusterAuditLog,
    KeypadConfig,
    mount,
    open_control,
    run_fleet,
)
from repro.cli import main as cli_main
from repro.cluster.faults import FaultPlan

PATHS = ("/home/medical.txt", "/home/taxes.pdf")


def _mount(flush_policy: str = "every-append"):
    config = (
        KeypadConfig.builder()
        .texp(5.0)
        .audit_store("durable", segment_entries=4,
                     flush_policy=flush_policy)
        .build()
    )
    return mount(config=config)


def _seed(rig):
    """Write files, drain background registrations, cold-read — so the
    audit log holds entries and the durable store has flushed blobs."""
    def setup():
        yield from rig.fs.mkdir("/home")
        for path in PATHS:
            yield from rig.fs.write_file(path, b"secret " + path.encode())
        yield rig.sim.timeout(30.0)
        rig.fs.key_cache.evict_all()
        for path in PATHS:
            yield from rig.fs.read(path, 0, 6)

    rig.run(setup())


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def crash_restart() -> None:
    # Zero-loss arm: every-append flushing loses nothing on a crash.
    rig = _mount()
    ctl = open_control(rig)
    _seed(rig)
    service = rig.key_service
    before = len(service.access_log)
    _require(before > 0, "no audit entries after seeding")

    killed = service.crash()
    _require(killed == before,
             f"crash() reported {killed} entries, expected {before}")
    _require(not service.server.available,
             "crashed service still serving")

    def recover():
        result = yield from ctl.audit_recover()
        return result

    entry = rig.run(recover())["recovered"][0]
    _require(entry["mode"] == "restart",
             f"expected a restart, got {entry['mode']}")
    _require(entry["lost_entries"] == 0,
             f"every-append lost {entry['lost_entries']} entries")
    _require(len(service.access_log) == before,
             f"recovered {len(service.access_log)} entries, "
             f"expected {before}")
    _require(service.access_log.verify_chain(),
             "recovered chain does not verify")
    _require(service.server.available,
             "recovered service not serving")

    # The service keeps serving on the same chain after recovery.
    def post_recover_read():
        rig.fs.key_cache.evict_all()
        data = yield from rig.fs.read(PATHS[0], 0, 6)
        return data

    _require(rig.run(post_recover_read()) == b"secret",
             "post-recovery cold read failed")

    # Lossy arm: every-seal flushing loses the open tail — and says so.
    rig = _mount(flush_policy="every-seal")
    _seed(rig)
    service = rig.key_service
    before = len(service.access_log)
    flushed = service.access_log.stats()["durable"]["flushed_entries"]
    service.crash()
    stats = service.restart()
    _require(stats["lost_entries"] == before - flushed,
             f"loss misreported: {stats['lost_entries']} "
             f"!= {before} - {flushed}")
    _require(len(service.access_log) == flushed,
             "recovered past the flushed watermark")
    print("recovery-smoke: crash/restart OK "
          "(zero-loss + reported-loss arms)")


def forensics_from_blobs() -> None:
    workdir = tempfile.mkdtemp(prefix="recovery-smoke-")
    try:
        image = os.path.join(workdir, "image")
        _require(cli_main(["forensics", "--export-image", image]) == 0,
                 "forensics --export-image failed")
        _require(
            cli_main(["forensics", "--recover", image,
                      "--segment-entries", "4"]) == 0,
            "forensics --recover failed on an intact image",
        )
        # One flipped byte anywhere must refuse the rebuild (exit 2).
        victim = os.path.join(image, sorted(os.listdir(image))[0])
        with open(victim, "rb") as handle:
            blob = bytearray(handle.read())
        blob[len(blob) // 2] ^= 0xFF
        with open(victim, "wb") as handle:
            handle.write(bytes(blob))
        _require(
            cli_main(["forensics", "--recover", image,
                      "--segment-entries", "4"]) == 2,
            "forensics --recover accepted a tampered image",
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("recovery-smoke: forensics --recover OK "
          "(intact rebuild + tamper refusal)")


def fleet_arm() -> None:
    result = run_fleet(
        devices=8,
        duration=6.0,
        seed=b"ci-recovery-smoke",
        replicas=3,
        threshold=2,
        audit_store="durable",
        segment_entries=16,
        audit_flush_policy="every-append",
        faults=FaultPlan.replica_kill(1, at=2.0, duration=1.0),
        inspect=lambda group: (
            group.recovery_stats(),
            [d.kind for d in
             ClusterAuditLog(group, threshold=2).divergences()],
        ),
    )
    actions = [text.split()[0] for _, text in result.fault_trace]
    _require(actions == ["kill", "restart"],
             f"fault trace incomplete: {result.fault_trace}")
    recovery_stats, divergence_kinds = result.inspection
    stats = recovery_stats[1]
    _require(stats is not None and stats["durable"],
             f"replica 1 recorded no durable recovery: {recovery_stats}")
    _require(stats["lost_entries"] == 0,
             f"every-append fleet recovery lost entries: {stats}")
    _require("stale-recovery" not in divergence_kinds,
             f"lossless restart flagged as stale: {divergence_kinds}")
    _require(sum(s.completed for s in result.stats) > 0,
             "fleet completed no requests")
    print(f"recovery-smoke: fleet arm OK (replica 1 recovered "
          f"{stats['recovered_entries']} entries mid-run)")


def main() -> int:
    crash_restart()
    forensics_from_blobs()
    fleet_arm()
    print("recovery-smoke: all stages passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
