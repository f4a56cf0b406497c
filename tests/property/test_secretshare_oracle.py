"""The table-driven secret sharing against its bitwise oracle.

``repro.crypto.secretshare`` multiplies by log/exp lookup, splits by
Horner over whole buffers (one ``bytes.translate`` row per evaluation
point) and combines with log-domain Lagrange weights; the shift-and-add
field and the per-byte split/combine it replaced live on in
``tests/secretshare_oracle.py``.  Checked here:

(a) **same field** — every one of the 65,536 products and all 255
    inverses equal the oracle's, and ``gf256_inv(0)`` still raises
    ``CryptoError``;
(b) **same shares** — for k ≤ n ≤ 12 (n == 1 and k == n included) and
    secrets of 0–64 bytes, both splits make the same DRBG reads and
    return the same share bytes;
(c) **same secrets** — every k-subset combines to the secret in both,
    and with extra shares or one tampered share both return the same
    bytes.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto import secretshare
from repro.crypto.drbg import HmacDrbg
from repro.errors import CryptoError
from tests import secretshare_oracle as oracle


class _RecordingDrbg:
    """An ``HmacDrbg`` that remembers the size of every read."""

    def __init__(self, seed: int):
        self._drbg = HmacDrbg(b"secretshare-oracle", seed.to_bytes(8, "big"))
        self.reads: list[int] = []

    def generate(self, n_bytes: int) -> bytes:
        self.reads.append(n_bytes)
        return self._drbg.generate(n_bytes)


@st.composite
def shapes(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.integers(min_value=1, max_value=n))
    secret = draw(st.binary(min_size=0, max_size=64))
    return k, n, secret


def _split_both(k, n, secret, seed):
    new_rng, old_rng = _RecordingDrbg(seed), _RecordingDrbg(seed)
    new = secretshare.split_secret(secret, k, n, new_rng)
    old = oracle.split_secret(secret, k, n, old_rng)
    assert new_rng.reads == old_rng.reads
    assert new == old
    assert all(type(share) is bytes for share in new)
    return new


def test_every_product_and_inverse():
    for a in range(256):
        for b in range(256):
            assert secretshare.gf256_mul(a, b) == oracle.gf256_mul(a, b), (a, b)
    for a in range(1, 256):
        assert secretshare.gf256_inv(a) == oracle.gf256_inv(a), a
    with pytest.raises(CryptoError):
        secretshare.gf256_inv(0)


@settings(max_examples=150, deadline=None)
@given(shapes(), st.integers(min_value=0, max_value=2 ** 32))
@example((1, 1, b"lone"), 0)
@example((1, 5, bytes(range(32))), 1)
@example((4, 4, bytes(range(32))), 2)
@example((2, 3, b""), 3)
@example((12, 12, bytes(range(64))), 4)
@example((11, 12, bytes(range(64))), 5)
def test_same_shares_and_every_subset_recovers(shape, seed):
    k, n, secret = shape
    shares = _split_both(k, n, secret, seed)
    for subset in itertools.combinations(range(n), k):
        picked = {i: shares[i] for i in subset}
        assert secretshare.combine_secret(picked, k, n) == secret
    for subset in itertools.islice(itertools.combinations(range(n), k), 8):
        picked = {i: shares[i] for i in subset}
        assert oracle.combine_secret(picked, k, n) == secret


@settings(max_examples=150, deadline=None)
@given(shapes(), st.integers(min_value=0, max_value=2 ** 32), st.data())
def test_extra_and_tampered_shares_combine_alike(shape, seed, data):
    k, n, secret = shape
    shares = _split_both(k, n, secret, seed)
    held = data.draw(st.lists(st.integers(0, n - 1), min_size=k,
                              max_size=n, unique=True))
    picked = {i: shares[i] for i in held}
    assert (secretshare.combine_secret(picked, k, n)
            == oracle.combine_secret(picked, k, n) == secret)
    if not secret:
        return
    # Tamper with one of the k shares a combine consumes (the k lowest
    # indices), so the output must move — identically in both.
    victim = data.draw(st.sampled_from(sorted(held)[:k]))
    byte = data.draw(st.integers(min_value=0, max_value=len(secret) - 1))
    tampered = bytearray(picked[victim])
    tampered[byte] ^= data.draw(st.integers(min_value=1, max_value=255))
    picked[victim] = bytes(tampered)
    new = secretshare.combine_secret(picked, k, n)
    assert new == oracle.combine_secret(picked, k, n)
    assert new != secret
