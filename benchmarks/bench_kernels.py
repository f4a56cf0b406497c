"""Microbenchmarks for the hot-path crypto/storage kernels.

Each kernel ships two implementations: the original straight-line
*reference* (kept as the byte-exactness oracle) and the optimized
production path.  This bench times both and records the speedup —
a machine-independent ratio measured in one process, from alternating
rounds so a change in machine speed lands on both sides — into
``BENCH_kernels.json``, which CI compares against the checked-in
baseline in ``benchmarks/baselines/`` (>30% regression fails).

Kernels covered:

* ``hmac_sha256``       — cached ipad/opad states + ``bytes.translate``
* AEAD keystream        — resumed SHA-256 states + wide XOR
* ``ctr_transform``     — batched AES-CTR keystream + wide XOR
* ``_unpack_dir``       — warm ``LocalFileSystem._cached_dir`` hit vs re-parse
* ``ibe_scalar_mult``   — Jacobian int multiply vs the affine F_p² oracle
* ``ibe_pairing``       — int Miller loop vs the affine F_p² oracle
* ``ibe_encrypt``       — BasicIdent encrypt to a new identity on its
  fixed arguments (P_pub's Miller lines, the cofactor in the exponent,
  r·P from a table) vs the composition it replaced
* ``shamir_split``      — table-driven 3-of-6 split vs the per-byte oracle
* ``shamir_combine``    — log-domain Lagrange combine vs the per-byte oracle

The three IBE rows take their reference from ``tests/ibe_oracle.py`` and
the two Shamir rows from ``tests/secretshare_oracle.py``.  The record's
``meta.counts`` carries exact counts that ``check_perf.py`` holds to a
ceiling: the field inversions (``numbers.invmod`` calls) one scalar
multiplication and one pairing make, the ``CurveGroup.multiply`` calls
and inversions one encrypt to a new identity makes on a warm
``IbePublic``, the inverse AES key schedules one data-key wrap + unwrap
builds, and the profiled calls one 3-of-6 split and one combine charge
to the ledger's ``crypto.secretshare`` layer.
"""

from __future__ import annotations

import cProfile
import functools
import importlib.util
import itertools
import pathlib
import sys
import time
from unittest import mock

from repro.crypto import numbers
from repro.crypto.aead import AesCtrHmacAead, StreamHmacAead
from repro.crypto.aes import AES
from repro.crypto.drbg import HmacDrbg
from repro.crypto.hmac import hmac_sha256, hmac_sha256_reference
from repro.crypto.ibe import TOY, PrivateKeyGenerator
from repro.crypto.ibe.curve import CurveGroup
from repro.crypto.ibe.pairing import modified_pairing
from repro.crypto.modes import ctr_transform, ctr_transform_reference
from repro.crypto.secretshare import combine_secret, split_secret
from repro.harness.results import ResultTable
from repro.harness.runner import ArmPerf, BenchPerf, bench_jobs
from repro.sim import Simulation
from repro.storage import BlockDevice, BufferCache, LocalFileSystem
from repro.storage.localfs import _pack_dir, _unpack_dir

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
from tests import ibe_oracle, secretshare_oracle  # noqa: E402  (repo root, for the script form)

_LAYERS_PY = pathlib.Path(__file__).resolve().parent / "ledger" / "layers.py"

_ROUNDS = 100
_ROUND_S = 0.001  # target length of one timed round


def _rates(reference, optimized, *args) -> tuple[float, float]:
    """Calls/second of ``reference(*args)`` and ``optimized(*args)``.

    The two sides alternate for ``_ROUNDS`` rounds, each side keeps its
    best round, and a round repeats the call for about ``_ROUND_S``
    (at least once).  A slow stretch of the machine then costs both
    sides a round instead of skewing one side's whole timing.
    """
    sides = (reference, optimized)
    calls = []
    for fn in sides:
        t0 = time.perf_counter()
        fn(*args)  # warm-up: fills key caches; its time sizes the rounds
        calls.append(max(1, int(_ROUND_S / (time.perf_counter() - t0))))
    best = [float("inf"), float("inf")]
    for _ in range(_ROUNDS):
        for side, fn in enumerate(sides):
            t0 = time.perf_counter()
            for _ in range(calls[side]):
                fn(*args)
            per_call = (time.perf_counter() - t0) / calls[side]
            best[side] = min(best[side], per_call)
    return 1.0 / best[0], 1.0 / best[1]


def _bench_rows() -> tuple[list[tuple], dict[str, float]]:
    rows: list[tuple] = []
    speedups: dict[str, float] = {}

    def record(kernel: str, unit: str, rates: tuple[float, float],
               per_call: float = 1.0) -> None:
        ref_rate, fast_rate = rates
        speedup = fast_rate / ref_rate
        rows.append((kernel, unit, round(ref_rate * per_call, 1),
                     round(fast_rate * per_call, 1), round(speedup, 2)))
        speedups[kernel] = speedup

    # HMAC-SHA256 with a repeated key over short messages — the shape of
    # the RPC-MAC and AEAD-tag traffic (~19k calls/arm).
    key, msg = b"k" * 32, b"m" * 64
    record(
        "hmac_sha256", "ops/s",
        _rates(hmac_sha256_reference, hmac_sha256, key, msg),
    )

    # AEAD keystream transform over a 64 KiB buffer (bulk file content).
    aead = StreamHmacAead(b"K" * 32)
    nonce, bulk = b"n" * 16, b"\xab" * 65536
    record(
        "aead_stream_transform", "MB/s",
        _rates(aead._transform_reference, aead._transform, nonce, bulk),
        per_call=len(bulk) / 1e6,
    )

    # AES-CTR over a 4 KiB block (header/wrapped-key sealing).
    cipher = AES(b"A" * 32)
    block = b"\xcd" * 4096
    record(
        "ctr_transform", "KB/s",
        _rates(ctr_transform_reference, ctr_transform, cipher, nonce, block),
        per_call=len(block) / 1e3,
    )

    # Directory lookup: re-parsing the packed bytes every time (legacy)
    # vs a warm hit of the file system's decoded-directory cache.
    fs, inode = _dir_fs([f"file-{i:04d}.c" for i in range(64)])
    entries = fs._cached_dir(inode)
    assert entries is not None and len(entries) == 64
    record(
        "unpack_dir", "dirs/s",
        _rates(_unpack_dir, lambda _raw: fs._cached_dir(inode),
               _pack_dir(entries)),
    )

    curve, g, q, scalar, d_id, u = _ibe_inputs()
    record(
        "ibe_scalar_mult", "ops/s",
        _rates(functools.partial(ibe_oracle.multiply, curve),
               curve.multiply, g, scalar),
    )
    record(
        "ibe_pairing", "ops/s",
        _rates(ibe_oracle.modified_pairing, modified_pairing,
               curve, d_id, u, q),
    )

    pub, fresh = _encrypt_inputs()
    record(
        "ibe_encrypt", "ops/s",
        _rates(lambda: ibe_oracle.encrypt(pub, next(fresh), b"K" * 80),
               lambda: pub.encrypt(next(fresh), b"K" * 80)),
    )

    secret, rng, held = _shamir_inputs()
    record(
        "shamir_split", "ops/s",
        _rates(secretshare_oracle.split_secret, split_secret,
               secret, 3, 6, rng),
    )
    record(
        "shamir_combine", "ops/s",
        _rates(secretshare_oracle.combine_secret, combine_secret,
               held, 3, 6),
    )
    return rows, speedups


def _dir_fs(names: list[str]):
    """A file system whose ``/d`` holds ``names``, read once so its
    decoded entries are cached; returns the file system and ``/d``'s
    inode."""
    sim = Simulation()
    cache = BufferCache(sim, BlockDevice(sim, n_blocks=4096),
                        capacity_blocks=256)
    fs = LocalFileSystem(sim, cache)

    def populate():
        yield from fs.mkdir("/d")
        for name in names:
            yield from fs.create(f"/d/{name}")
        yield from fs.readdir("/d")
        return (yield from fs.getattr("/d")).ino

    return fs, fs._inodes[sim.run_process(populate())]


def _shamir_inputs():
    """The cluster's shape: a 32-byte K_R split 3-of-6 from an HMAC-DRBG,
    and three of its shares (one per region of the federated arm)."""
    secret, rng = bytes(range(32)), HmacDrbg(b"bench-kernels", b"shamir")
    shares = split_secret(secret, 3, 6, rng)
    return secret, rng, {0: shares[0], 2: shares[2], 5: shares[5]}


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


def _encrypt_inputs():
    """A warm ``IbePublic`` (its lines and the r·P table built) and an
    endless supply of identities it has never seen — the shape of
    ``meta_ibe``, where every create and rename locks to a new path.
    The payload is an 80-byte wrapped data key."""
    pub = PrivateKeyGenerator(TOY, master_seed=b"bench-kernels").public()
    pub.encrypt(b"warm-up", b"K" * 80)
    fresh = (b"dir/file-%d|audit-id" % i for i in itertools.count())
    return pub, fresh


def _scalar_mults(fn, *args) -> int:
    """``CurveGroup.multiply`` calls made by one ``fn(*args)``."""
    with mock.patch.object(CurveGroup, "multiply", autospec=True,
                           side_effect=CurveGroup.multiply) as spy:
        fn(*args)
    return spy.call_count


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


def _secretshare_calls(fn, *args) -> int:
    """Profiled calls one ``fn(*args)`` charges to ``crypto.secretshare``,
    attributed exactly as the ledger's traced run does."""
    spec = importlib.util.spec_from_file_location("_ledger_layers", _LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    profile = cProfile.Profile()
    profile.enable()
    fn(*args)
    profile.disable()
    return layers.attribute(profile)["layers"]["crypto.secretshare"]["calls"]


def _inverse_schedules_per_key_wrap() -> int:
    """``AES._invert_key_schedule`` calls in one data-key wrap + unwrap
    round trip: a seal and an open, each under its own AES-CTR AEAD
    keyed by K_R, as ``core.header.wrap_data_key`` / ``unwrap_data_key``
    do."""
    remote_key, nonce = b"R" * 32, b"n" * 16
    with mock.patch.object(AES, "_invert_key_schedule", autospec=True,
                           side_effect=AES._invert_key_schedule) as spy:
        sealed = AesCtrHmacAead(remote_key).seal(nonce, b"D" * 32, aad=b"kd-wrap")
        AesCtrHmacAead(remote_key).open(nonce, sealed, aad=b"kd-wrap")
    return spy.call_count


def _counts() -> dict[str, int]:
    curve, g, q, scalar, d_id, u = _ibe_inputs()
    secret, rng, held = _shamir_inputs()
    pub, fresh = _encrypt_inputs()
    return {
        "inversions_per_scalar_mult": _inversions(curve.multiply, g, scalar),
        "inversions_per_pairing": _inversions(modified_pairing, curve, d_id, u, q),
        "scalar_mults_per_encrypt": _scalar_mults(pub.encrypt, next(fresh), b"K" * 80),
        "inversions_per_encrypt": _inversions(pub.encrypt, next(fresh), b"K" * 80),
        "inverse_schedules_per_key_wrap": _inverse_schedules_per_key_wrap(),
        "secretshare_calls_per_split": _secretshare_calls(
            split_secret, secret, 3, 6, rng),
        "secretshare_calls_per_combine": _secretshare_calls(
            combine_secret, held, 3, 6),
    }


def build_table() -> ResultTable:
    wall0, cpu0 = time.perf_counter(), time.process_time()
    rows, speedups = _bench_rows()
    counts = _counts()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    table = ResultTable(
        "Hot-path kernel microbenchmarks (reference vs optimized)",
        ["kernel", "unit", "reference", "optimized", "speedup"],
    )
    for row in rows:
        table.add(*row)
    table.note("reference implementations are the byte-exactness oracles "
               "the optimized kernels are tested against")
    table.note("exact counts: "
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
    assert speedups["ibe_encrypt"] > 1.5
    assert speedups["shamir_split"] > 4.0
    assert speedups["shamir_combine"] > 10.0
    assert table.perf.meta["counts"] == {
        "inversions_per_scalar_mult": 1, "inversions_per_pairing": 1,
        "scalar_mults_per_encrypt": 0, "inversions_per_encrypt": 2,
        "inverse_schedules_per_key_wrap": 0,
        "secretshare_calls_per_split": 17,
        "secretshare_calls_per_combine": 15}


if __name__ == "__main__":
    import pathlib

    from repro.harness.runner import write_bench_json

    table = build_table()
    print(table.render())
    print(write_bench_json(table.perf,
                           pathlib.Path(__file__).parent / "results"))
