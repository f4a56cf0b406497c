"""Forensic-tool performance at scale.

Not a paper figure — an engineering benchmark of the victim-side
tooling: report reconstruction and hash-chain verification over large
audit logs (months of device use), and bundle export/import round-trip.
Unlike the simulation benchmarks, these measure real wall-clock per
operation, so pytest-benchmark's statistics are meaningful here.
"""

from repro.api import KeyService, MetadataService
from repro.crypto.drbg import HmacDrbg
from repro.forensics import AuditTool
from repro.forensics.export import export_logs, load_bundle
from repro.sim import Simulation

N_FILES = 400
N_ACCESSES = 20_000


def _populated_services():
    sim = Simulation()
    key_service = KeyService(sim, seed=b"scale")
    metadata_service = MetadataService(sim, master_seed=b"scale-pkg")
    drbg = HmacDrbg(b"forensics-scale")
    audit_ids = [drbg.generate(24) for _ in range(N_FILES)]
    for i, audit_id in enumerate(audit_ids):
        metadata_service.projection.ingest(
            metadata_service.metadata_log.append(
                float(i), "laptop-1", "file",
                audit_id=audit_id, dir_id="d-root", name=f"file{i:04d}.dat",
                via="plain",
            )
        )
    for i in range(N_ACCESSES):
        key_service.access_log.append(
            1000.0 + i, "laptop-1", "fetch",
            audit_id=audit_ids[i % N_FILES],
        )
    return key_service, metadata_service


def test_report_reconstruction_speed(benchmark):
    key_service, metadata_service = _populated_services()
    tool = AuditTool(key_service, metadata_service)

    report = benchmark(lambda: tool.report(t_loss=1000.0, texp=100.0))
    assert len(report.records) == N_ACCESSES
    assert len(report.compromised_ids) == N_FILES


def test_chain_verification_speed(benchmark):
    key_service, _ = _populated_services()
    assert benchmark(key_service.access_log.verify_chain)


def test_bundle_roundtrip_speed(benchmark):
    key_service, metadata_service = _populated_services()

    def roundtrip():
        bundle = export_logs(key_service, metadata_service)
        return load_bundle(bundle)

    key_log, metadata = benchmark.pedantic(roundtrip, rounds=3, iterations=1)
    assert len(key_log.access_log) == N_ACCESSES
