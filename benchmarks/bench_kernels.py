"""Microbenchmarks for the hot-path crypto/storage kernels.

Each kernel ships two implementations: the original straight-line
*reference* (kept as the byte-exactness oracle) and the optimized
production path.  This bench times both and records the speedup —
a machine-independent ratio measured in one process — into
``BENCH_kernels.json``, which CI compares against the checked-in
baseline in ``benchmarks/baselines/`` (>30% regression fails).

Kernels covered:

* ``hmac_sha256``       — cached ipad/opad states + ``bytes.translate``
* AEAD keystream        — resumed SHA-256 states + wide XOR
* ``ctr_transform``     — batched AES-CTR keystream + wide XOR
* ``_unpack_dir``       — decoded-directory cache hit vs re-parse
* ``ibe_scalar_mult``   — Jacobian int multiply vs the affine F_p² oracle
* ``ibe_pairing``       — int Miller loop vs the affine F_p² oracle

The two IBE rows take their reference from ``tests/ibe_oracle.py``, and
the record's ``meta.counts`` carries the field inversions
(``numbers.invmod`` calls) one scalar multiplication and one pairing
make — exact counts that ``check_perf.py`` holds to a ceiling.
"""

from __future__ import annotations

import pathlib
import sys
import time
from unittest import mock

from repro.crypto import numbers
from repro.crypto.aead import StreamHmacAead
from repro.crypto.aes import AES
from repro.crypto.hmac import hmac_sha256, hmac_sha256_reference
from repro.crypto.ibe import TOY, PrivateKeyGenerator
from repro.crypto.ibe.pairing import modified_pairing
from repro.crypto.modes import ctr_transform, ctr_transform_reference
from repro.harness.results import ResultTable
from repro.harness.runner import ArmPerf, BenchPerf, bench_jobs
from repro.storage.localfs import _pack_dir, _unpack_dir

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
from tests import ibe_oracle  # noqa: E402  (repo root, for the script form)

_MIN_REPS = 3


def _rate(fn, *args, seconds: float = 0.25) -> float:
    """Calls/second of ``fn(*args)``, timed over ~``seconds``."""
    fn(*args)  # warm-up (fills key caches, JITs nothing — this is CPython)
    reps = 0
    t0 = time.perf_counter()
    deadline = t0 + seconds
    while time.perf_counter() < deadline or reps < _MIN_REPS:
        fn(*args)
        reps += 1
    return reps / (time.perf_counter() - t0)


def _bench_rows() -> tuple[list[tuple], dict[str, float]]:
    rows: list[tuple] = []
    speedups: dict[str, float] = {}

    def record(kernel: str, unit: str, ref_rate: float, fast_rate: float,
               per_call: float = 1.0) -> None:
        speedup = fast_rate / ref_rate
        rows.append((kernel, unit, round(ref_rate * per_call, 1),
                     round(fast_rate * per_call, 1), round(speedup, 2)))
        speedups[kernel] = speedup

    # HMAC-SHA256 with a repeated key over short messages — the shape of
    # the RPC-MAC and AEAD-tag traffic (~19k calls/arm).
    key, msg = b"k" * 32, b"m" * 64
    record(
        "hmac_sha256", "ops/s",
        _rate(hmac_sha256_reference, key, msg),
        _rate(hmac_sha256, key, msg),
    )

    # AEAD keystream transform over a 64 KiB buffer (bulk file content).
    aead = StreamHmacAead(b"K" * 32)
    nonce, bulk = b"n" * 16, b"\xab" * 65536
    record(
        "aead_stream_transform", "MB/s",
        _rate(aead._transform_reference, nonce, bulk),
        _rate(aead._transform, nonce, bulk),
        per_call=len(bulk) / 1e6,
    )

    # AES-CTR over a 4 KiB block (header/wrapped-key sealing).
    cipher = AES(b"A" * 32)
    block = b"\xcd" * 4096
    record(
        "ctr_transform", "KB/s",
        _rate(ctr_transform_reference, cipher, nonce, block),
        _rate(ctr_transform, cipher, nonce, block),
        per_call=len(block) / 1e3,
    )

    # Directory lookup: re-parsing the packed bytes every time (legacy)
    # vs the decoded-directory cache hit (raw-bytes compare + dict copy).
    entries = {f"file-{i:04d}.c": 1000 + i for i in range(64)}
    raw = _pack_dir(entries)
    cached = (raw, dict(entries))

    def cache_hit(data: bytes) -> dict:
        if cached[0] == data:
            return dict(cached[1])
        return _unpack_dir(data)  # pragma: no cover - always hits here

    record(
        "unpack_dir", "dirs/s",
        _rate(_unpack_dir, raw),
        _rate(cache_hit, raw),
    )

    curve, g, q, scalar, d_id, u = _ibe_inputs()
    record(
        "ibe_scalar_mult", "ops/s",
        _rate(ibe_oracle.multiply, curve, g, scalar),
        _rate(curve.multiply, g, scalar),
    )
    record(
        "ibe_pairing", "ops/s",
        _rate(ibe_oracle.modified_pairing, curve, d_id, u, q),
        _rate(modified_pairing, curve, d_id, u, q),
    )
    return rows, speedups


def _ibe_inputs():
    """IBE on the TOY parameters the simulations run: a 64-bit scalar
    (the shape of encrypt's r·P) and an extracted key with a ciphertext
    point to pair (decrypt's ê(d_ID, U))."""
    pkg = PrivateKeyGenerator(TOY, master_seed=b"bench-kernels")
    params = pkg.params
    curve, g, q = params.curve, params.generator, params.q
    scalar = q // 3
    d_id = pkg.extract(b"dir/file|audit-id").point
    return curve, g, q, scalar, d_id, curve.multiply(g, scalar)


def _inversions(fn, *args) -> int:
    """``numbers.invmod`` calls made by one ``fn(*args)``."""
    real = numbers.invmod
    calls = 0

    def counting(a, m):
        nonlocal calls
        calls += 1
        return real(a, m)

    with mock.patch.object(numbers, "invmod", counting):
        fn(*args)
    return calls


def _ibe_counts() -> dict[str, int]:
    curve, g, q, scalar, d_id, u = _ibe_inputs()
    return {
        "inversions_per_scalar_mult": _inversions(curve.multiply, g, scalar),
        "inversions_per_pairing": _inversions(modified_pairing, curve, d_id, u, q),
    }


def build_table() -> ResultTable:
    wall0, cpu0 = time.perf_counter(), time.process_time()
    rows, speedups = _bench_rows()
    counts = _ibe_counts()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    table = ResultTable(
        "Hot-path kernel microbenchmarks (reference vs optimized)",
        ["kernel", "unit", "reference", "optimized", "speedup"],
    )
    for row in rows:
        table.add(*row)
    table.note("reference implementations are the byte-exactness oracles "
               "the optimized kernels are tested against")
    table.note("field inversions: "
               + ", ".join(f"{k} = {v}" for k, v in sorted(counts.items())))
    table.perf = BenchPerf(
        bench="kernels",
        jobs=bench_jobs(),
        arms=[ArmPerf(label=row[0], wall_s=wall / len(rows),
                      cpu_s=cpu / len(rows)) for row in rows],
        total_wall_s=wall,
        total_cpu_s=cpu,
        meta={"speedups": {k: round(v, 3) for k, v in speedups.items()},
              "counts": counts},
    )
    return table


def test_kernel_microbench(record_table):
    table = build_table()
    record_table(table, "kernels")
    speedups = table.perf.meta["speedups"]
    # The optimized kernels must actually be faster — comfortably.
    assert speedups["hmac_sha256"] > 1.5
    assert speedups["aead_stream_transform"] > 1.5
    assert speedups["ctr_transform"] > 1.05
    assert speedups["unpack_dir"] > 2.0
    assert speedups["ibe_scalar_mult"] > 2.0
    assert speedups["ibe_pairing"] > 2.0
    assert table.perf.meta["counts"] == {
        "inversions_per_scalar_mult": 1, "inversions_per_pairing": 1}


if __name__ == "__main__":
    import pathlib

    from repro.harness.runner import write_bench_json

    table = build_table()
    print(table.render())
    print(write_bench_json(table.perf,
                           pathlib.Path(__file__).parent / "results"))
