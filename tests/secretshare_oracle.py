"""The secret-sharing oracle: bitwise GF(2⁸) and per-byte Shamir.

``repro.crypto.secretshare`` runs on log/exp tables: a product is one
table lookup, a split is Horner over whole buffers with one 256-byte
multiply-by-x row per evaluation point (``bytes.translate``), and a
combine is k Lagrange weights in the log domain and k translates.  The
code here is what it replaced — a shift-and-add ``gf256_mul``, an
inverse by Fermat (a²⁵⁴), and Horner / Lagrange one byte at a time —
kept so the tests can demand the same products, the same inverses and
the same share bytes from both.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import CryptoError

__all__ = [
    "gf256_mul",
    "gf256_pow",
    "gf256_inv",
    "split_secret",
    "combine_secret",
]

_GF_MODULUS = 0x11B  # the AES reduction polynomial


def gf256_mul(a: int, b: int) -> int:
    """Carry-less multiply in GF(2⁸) reduced by the AES polynomial."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        if a & 0x100:
            a ^= _GF_MODULUS
        b >>= 1
    return out


def gf256_pow(a: int, e: int) -> int:
    out = 1
    while e:
        if e & 1:
            out = gf256_mul(out, a)
        a = gf256_mul(a, a)
        e >>= 1
    return out


def gf256_inv(a: int) -> int:
    """Multiplicative inverse (a²⁵⁴, by Fermat)."""
    if a == 0:
        raise CryptoError("no inverse of 0 in GF(256)")
    return gf256_pow(a, 254)


def _check_params(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise CryptoError(f"need 1 <= k <= n, got k={k} n={n}")
    if n > 255:
        raise CryptoError("at most 255 shares (evaluation points are bytes)")


def split_secret(secret: bytes, k: int, n: int, rng) -> list[bytes]:
    """Per-byte split: the same DRBG reads and the same share bytes."""
    _check_params(k, n)
    if n == 1:
        return [bytes(secret)]
    if k == n:
        shares = [rng.generate(len(secret)) for _ in range(n - 1)]
        last = bytes(secret)
        for share in shares:
            last = bytes(a ^ b for a, b in zip(last, share))
        shares.append(last)
        return shares
    coeffs = rng.generate(len(secret) * (k - 1))
    shares = []
    for i in range(n):
        x = i + 1
        share = bytearray(len(secret))
        for b, s in enumerate(secret):
            acc = 0
            for j in range(k - 2, -1, -1):
                acc = gf256_mul(acc, x) ^ coeffs[j * len(secret) + b]
            share[b] = gf256_mul(acc, x) ^ s
        shares.append(bytes(share))
    return shares


def combine_secret(
    shares: Mapping[int, bytes] | Sequence[tuple[int, bytes]],
    k: int,
    n: int,
) -> bytes:
    """Per-byte Lagrange interpolation at x = 0."""
    _check_params(k, n)
    items = sorted(dict(shares).items())
    if len(items) < k:
        raise CryptoError(f"need {k} shares, got {len(items)}")
    items = items[:k]
    lengths = {len(share) for _, share in items}
    if len(lengths) != 1:
        raise CryptoError("shares have mismatched lengths")
    if any(not 0 <= i < n for i, _ in items):
        raise CryptoError("share index out of range")
    if n == 1:
        return bytes(items[0][1])
    if k == n:
        out = bytes(len(items[0][1]))
        for _, share in items:
            out = bytes(a ^ b for a, b in zip(out, share))
        return out
    xs = [i + 1 for i, _ in items]
    length = lengths.pop()
    secret = bytearray(length)
    for j, (_, share) in enumerate(items):
        num, den = 1, 1
        for l, x_l in enumerate(xs):
            if l == j:
                continue
            num = gf256_mul(num, x_l)
            den = gf256_mul(den, x_l ^ xs[j])
        weight = gf256_mul(num, gf256_inv(den))
        for b in range(length):
            secret[b] ^= gf256_mul(share[b], weight)
    return bytes(secret)
