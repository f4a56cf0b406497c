"""k-of-n secret sharing for remote keys (K_R).

The paper's availability discussion ("Improving Availability / Multiple
Key Services") proposes running several key services with K_R
*secret-shared* across them: a fetch then needs shares from k distinct
services, each of which independently logs the access — auditing gets
strictly stronger (a thief must be logged by every share-holder it
contacts) while any m − k services may be down without blocking reads.

Two schemes, chosen automatically by :func:`split_secret`:

* **XOR** (k == n): share_0 ⊕ … ⊕ share_{n-1} = secret.  All shares
  are required; information-theoretically, any n − 1 reveal nothing.
* **Shamir** (k < n): each secret byte is the constant term of a random
  degree-(k−1) polynomial over GF(2⁸) (the AES field, x⁸+x⁴+x³+x+1);
  share i holds the evaluations at x = i + 1.  Any k shares
  reconstruct by Lagrange interpolation at 0; fewer reveal nothing.

Shares are exactly ``len(secret)`` bytes — the evaluation point is the
replica's index, carried implicitly — so a share fits wherever a whole
K_R fits (:data:`~repro.core.services.keyservice.REMOTE_KEY_LEN`).
Randomness comes from a caller-supplied DRBG so splits are
deterministic given a seed, like everything else in the simulation.

The field runs on tables built once at import from the generator 3:
``_EXP`` (3^i, doubled so a sum of two logs needs no reduction) and
``_LOG``, and ``_MUL_ROWS[c]``, the 256-byte multiply-by-c row that
``bytes.translate`` applies to a whole buffer at C speed (256 rows,
64 KiB; public field constants, nothing keyed by key or share bytes).
A split is Horner over whole buffers — the n partial values side by
side, each step one translate per evaluation point and one wide XOR —
and a combine computes the k Lagrange weights in the log domain and
XORs k translated shares as one wide int.  The share bytes, and the
DRBG reads that produce them, are those of the bitwise per-byte code
kept in ``tests/secretshare_oracle.py``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.crypto.kernels import xor_bytes
from repro.errors import CryptoError

__all__ = [
    "split_secret",
    "combine_secret",
    "gf256_mul",
    "gf256_inv",
]

_GF_MODULUS = 0x11B  # the AES reduction polynomial


def _build_tables() -> tuple[bytes, bytes]:
    exp = bytearray(510)
    log = bytearray(256)  # log[0] is never read: zero has no logarithm
    x = 1
    for i in range(255):
        exp[i] = exp[i + 255] = x
        log[x] = i
        x2 = x << 1  # x · 3 = x · 2 ⊕ x
        if x2 & 0x100:
            x2 ^= _GF_MODULUS
        x ^= x2
    return bytes(exp), bytes(log)


_EXP, _LOG = _build_tables()
#: ``_MUL_ROWS[c][b] == gf256_mul(c, b)``: row c maps byte b to 3^(log c + log b)
_MUL_ROWS = (bytes(256),) + tuple(
    b"\x00" + _LOG[1:].translate(_EXP[_LOG[c]:_LOG[c] + 256])
    for c in range(1, 256)
)


def gf256_mul(a: int, b: int) -> int:
    """Multiply in GF(2⁸) reduced by the AES polynomial (a, b < 256)."""
    if not a or not b:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def gf256_inv(a: int) -> int:
    """Multiplicative inverse: 3^(255 − log a)."""
    if a == 0:
        raise CryptoError("no inverse of 0 in GF(256)")
    return _EXP[255 - _LOG[a]]


def _check_params(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise CryptoError(f"need 1 <= k <= n, got k={k} n={n}")
    if n > 255:
        raise CryptoError("at most 255 shares (evaluation points are bytes)")


def split_secret(secret: bytes, k: int, n: int, rng) -> list[bytes]:
    """Split ``secret`` into ``n`` shares, any ``k`` of which suffice.

    ``rng`` is any object with a ``generate(n_bytes) -> bytes`` method
    (e.g. :class:`~repro.crypto.drbg.HmacDrbg`).  Share ``i`` belongs to
    replica ``i``; its evaluation point ``x = i + 1`` is implicit.
    """
    _check_params(k, n)
    if n == 1:
        return [bytes(secret)]
    if k == n:  # XOR sharing: n − 1 random pads, last share closes the sum
        shares = []
        last = bytes(secret)
        for _ in range(n - 1):
            pad = rng.generate(len(secret))
            shares.append(pad)
            last = xor_bytes(last, pad)
        shares.append(last)
        return shares
    # Shamir: one random polynomial per secret byte, all coefficients
    # drawn in a single DRBG read; coefficient j of byte b is
    # coeffs[j * len + b], so row j is one slice.  Horner, highest
    # coefficient first: share x = (…(c_{k-2}·x ⊕ c_{k-3})·x ⊕ … ⊕ c_0)·x ⊕ s.
    # The n partial values sit side by side in one buffer; a step
    # multiplies part x by x (its translate row) and XORs the next
    # coefficient row, repeated n times, into the whole buffer.
    length = len(secret)
    coeffs = rng.generate(length * (k - 1))
    rows = [bytes(secret)] * k
    for j in range(k - 1):
        rows[k - 2 - j] = coeffs[j * length:(j + 1) * length]
    acc = rows[0] * n
    parts = [b""] * n
    for row in rows[1:]:
        for i in range(n):
            parts[i] = acc[i * length:(i + 1) * length].translate(
                _MUL_ROWS[i + 1])
        acc = xor_bytes(b"".join(parts), row * n)
    for i in range(n):  # part i of the last step is share i
        parts[i] = acc[i * length:(i + 1) * length]
    return parts


def combine_secret(
    shares: Mapping[int, bytes] | Sequence[tuple[int, bytes]],
    k: int,
    n: int,
) -> bytes:
    """Reconstruct the secret from ``{replica_index: share}``.

    Exactly ``k`` distinct shares are consumed (extras are ignored);
    fewer raise :class:`~repro.errors.CryptoError`.
    """
    _check_params(k, n)
    items = sorted(dict(shares).items())
    if len(items) < k:
        raise CryptoError(f"need {k} shares, got {len(items)}")
    items = items[:k]
    length = len(items[0][1])
    for _, share in items[1:]:
        if len(share) != length:
            raise CryptoError("shares have mismatched lengths")
    for i, _ in items:
        if not 0 <= i < n:
            raise CryptoError("share index out of range")
    if n == 1:
        return bytes(items[0][1])
    if k == n:
        out = bytes(length)
        for _, share in items:
            out = xor_bytes(out, share)
        return out
    # Lagrange interpolation at x = 0 (in GF(2⁸), subtraction is XOR):
    # weight_j = Π_{l≠j} x_l / Π_{l≠j} (x_l ⊕ x_j), summed as logs.
    secret = 0
    for i, share in items:
        x_j = i + 1
        log_w = 0
        for l, _ in items:
            if l != i:
                x_l = l + 1
                log_w += _LOG[x_l] - _LOG[x_l ^ x_j]
        secret ^= int.from_bytes(
            share.translate(_MUL_ROWS[_EXP[log_w % 255]]), "little")
    return secret.to_bytes(length, "little")
