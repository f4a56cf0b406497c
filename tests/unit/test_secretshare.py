"""k-of-m secret sharing over GF(2^8): the cluster's key-splitting core."""

from __future__ import annotations

import itertools

import pytest

from repro.crypto.drbg import HmacDrbg
from repro.crypto.secretshare import combine_secret, split_secret
from repro.errors import CryptoError


def _rng(label: bytes = b"test") -> HmacDrbg:
    return HmacDrbg(b"secret-share-tests", label)


SECRET = bytes(range(32))


@pytest.mark.parametrize("k,m", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 5), (5, 5)])
def test_roundtrip_every_k_subset(k, m):
    shares = split_secret(SECRET, k, m, _rng())
    assert len(shares) == m
    assert all(len(s) == len(SECRET) for s in shares)
    for subset in itertools.combinations(range(m), k):
        assert combine_secret({i: shares[i] for i in subset}, k, m) == SECRET


def test_extra_shares_do_not_hurt():
    shares = split_secret(SECRET, 2, 4, _rng())
    assert combine_secret(dict(enumerate(shares)), 2, 4) == SECRET


def test_fewer_than_threshold_rejected():
    shares = split_secret(SECRET, 3, 5, _rng())
    with pytest.raises(CryptoError):
        combine_secret({0: shares[0], 1: shares[1]}, 3, 5)


def test_single_share_leaks_nothing_for_2_of_2():
    # k == m == 2 is the XOR path: one share is a one-time pad.
    shares = split_secret(SECRET, 2, 2, _rng())
    assert shares[0] != SECRET and shares[1] != SECRET
    assert bytes(a ^ b for a, b in zip(*shares)) == SECRET


def test_shamir_shares_differ_from_secret():
    for share in split_secret(SECRET, 2, 3, _rng()):
        assert share != SECRET


def test_deterministic_given_same_rng_stream():
    assert (split_secret(SECRET, 2, 3, _rng())
            == split_secret(SECRET, 2, 3, _rng()))
    assert (split_secret(SECRET, 2, 3, _rng(b"a"))
            != split_secret(SECRET, 2, 3, _rng(b"b")))


def test_mismatched_share_lengths_rejected():
    shares = split_secret(SECRET, 2, 3, _rng())
    with pytest.raises(CryptoError):
        combine_secret({0: shares[0], 1: shares[1][:-1]}, 2, 3)


def test_invalid_parameters_rejected():
    with pytest.raises(CryptoError):
        split_secret(SECRET, 0, 3, _rng())
    with pytest.raises(CryptoError):
        split_secret(SECRET, 4, 3, _rng())
    shares = split_secret(SECRET, 2, 3, _rng())
    with pytest.raises(CryptoError):
        combine_secret({0: shares[0], 7: shares[1]}, 2, 3)  # bad index


def test_wrong_share_combination_gives_wrong_secret():
    shares = split_secret(SECRET, 2, 3, _rng())
    tampered = bytes(b ^ 0xFF for b in shares[1])
    assert combine_secret({0: shares[0], 1: tampered}, 2, 3) != SECRET


# Shares of SECRET under HmacDrbg(b"secret-share-tests", b"kat"), computed
# with the bitwise per-byte code (tests/secretshare_oracle.py); the
# table-driven split must reproduce every byte.
KNOWN_SHARES = {
    (2, 3): [
        "59add0f6e3aa8dca93968e8a792fd93daeb0f424bf5e64650e9fb5c05e65d1aa",
        "b242bdf2d1400b86252c1912e649bb6b7748c57d5983f2f3340e5fb698ed9b6e",
        "ebee6f0736ef804bbeb39d93936b6c59c9e9234af2c880812288f06dda9554db",
    ],
    (3, 6): [
        "410242925682cff64eb78fca1a4f8a166adfba43b6323e1130bd52901f534349",
        "d2c8c37933e018767ca81d0971d2ecc74aefe6fa7d288138cc86eeed8735e5cf",
        "93cb83e86167d1873a1698c8679068de30214eaadf0fa93ee422a666847bb899",
        "e49984e0103950f32d653c55a9df38412a092be51eb812c58d21622d73abec4f",
        "a59ac47142be99026bdbb994bf9dbc5850c783b5bc9f3ac3a5852aa670e5b119",
        "3650459a27dc4e8259c42b57d400da8970f7df0c778585ea59be96dbe883179f",
    ],
    (3, 3): [  # k == n: the XOR path
        "59acd2f5e7af8bcd9b9f84817522d732bea1e637ab4b72721686afdb4278cfb5",
        "5e78e5d93bd2fb0293ac7f0a75da509d7ed647b5ae08460a3f9af3aa795deb3e",
        "07d5352fd87876c8003af1800cf589a0d066b3911156226f3105466a27383a94",
    ],
}


@pytest.mark.parametrize("k,m", sorted(KNOWN_SHARES))
def test_known_answer_shares(k, m):
    shares = split_secret(SECRET, k, m, _rng(b"kat"))
    assert [s.hex() for s in shares] == KNOWN_SHARES[(k, m)]
    for subset in itertools.combinations(range(m), k):
        assert combine_secret({i: shares[i] for i in subset}, k, m) == SECRET
