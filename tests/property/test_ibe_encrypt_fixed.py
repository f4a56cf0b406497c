"""IBE encryption on its fixed arguments against the long composition.

``IbePublic`` evaluates P_pub's precomputed Miller lines
(``pairing.MillerLines``) at H1's raw point P0 and folds the cofactor
into the final exponent (``boneh_franklin._folded_pairing``), and takes
r·P from the generator's window table (``curve.FixedBase``).  What it
replaced — Q_ID = h·P0, ê(Q_ID, P_pub), ``multiply(P, r)`` — is still in
``src/`` (the PKG and decryption use it) and composed as
``tests/ibe_oracle.encrypt``.  Driven by hypothesis on TOY and SMALL:

(a) **same g_ID** — ``_g_id`` equals ``_pairing(_hash_to_point(id),
    P_pub)`` for random identities, and whole ciphertexts from the same
    seed equal the oracle's;
(b) **same lines** — ``MillerLines(A).power(B, (p + 1)/q)`` equals
    ``modified_pairing(A, B)`` for any second argument, and the table
    refuses an A whose order is not q;
(c) **same r·P** — the table equals ``multiply`` for 1, 2, 15, 16,
    q − 1 and random k, and refuses k ≤ 0 and k ≥ q;
(d) **same retries** — an order-2 or order-3 P0 makes the folded helper
    signal a retry, H1 walks its counter past them exactly as
    ``_hash_to_point`` does, and a zero Miller value falls back to the
    long composition.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.ibe import SMALL, TOY, PrivateKeyGenerator, get_params
from repro.crypto.ibe import boneh_franklin as bf
from repro.crypto.ibe.curve import coords
from repro.crypto.ibe.fp2 import Fp2
from repro.crypto.ibe.pairing import MillerLines, modified_pairing
from repro.errors import CryptoError
from tests import ibe_oracle

PKGS = {name: PrivateKeyGenerator(name, master_seed=b"fixed-" + name.encode())
        for name in (TOY, SMALL)}

identities = st.binary(min_size=0, max_size=48)


def _reference_g_id(pkg, identity: bytes) -> Fp2:
    params = pkg.params
    return bf._pairing(params, bf._hash_to_point(params, identity), pkg.public_point)


class TestGId:
    @given(identities)
    @example(b"")
    @example(b"dir7/prepared_taxes_2011.pdf|ID42")
    @settings(max_examples=60, deadline=None)
    def test_matches_the_long_composition_toy(self, identity):
        pkg = PKGS[TOY]
        assert pkg.public()._g_id(identity) == _reference_g_id(pkg, identity)

    @given(identities)
    @settings(max_examples=4, deadline=None)
    def test_matches_the_long_composition_small(self, identity):
        pkg = PKGS[SMALL]
        assert pkg.public()._g_id(identity) == _reference_g_id(pkg, identity)

    @given(st.lists(identities, min_size=1, max_size=6),
           st.binary(min_size=0, max_size=64), st.binary(min_size=1, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_ciphertexts_match_the_oracle(self, idents, plaintext, seed):
        """Same seed, same identities (repeats hit the g_ID cache):
        the same r, U and sealed bytes, and each one decrypts."""
        pkg = PKGS[TOY]
        fast, slow = pkg.public(seed=seed), pkg.public(seed=seed)
        for identity in idents + idents[:1]:
            ct = fast.encrypt(identity, plaintext)
            assert ct == ibe_oracle.encrypt(slow, identity, plaintext)
            assert bf.decrypt(pkg.params, pkg.extract(identity), ct) == plaintext

    def test_small_ciphertext_matches_the_oracle(self):
        pkg = PKGS[SMALL]
        fast, slow = pkg.public(seed=b"small"), pkg.public(seed=b"small")
        ct = fast.encrypt(b"dir/f|1", b"the wrapped data key")
        assert ct == ibe_oracle.encrypt(slow, b"dir/f|1", b"the wrapped data key")


def _subgroup_point(params, k: int):
    return params.curve.multiply(params.generator, 1 + k % (params.q - 1))


class TestMillerLines:
    @given(st.integers(min_value=0, max_value=2 ** 80),
           st.sampled_from(["subgroup", "any", "order2", "order3"]),
           st.integers(min_value=0, max_value=2 ** 160))
    @settings(max_examples=60, deadline=None)
    def test_power_is_the_modified_pairing(self, a, kind, seed):
        params = get_params(TOY)
        curve, p, q = params.curve, params.p, params.q
        first = _subgroup_point(params, a)
        second = {"subgroup": lambda: _subgroup_point(params, seed),
                  "any": lambda: curve.point_from_y(seed % p),
                  "order2": lambda: curve.point(p - 1, 0),
                  "order3": lambda: curve.point(0, 1 if seed % 2 else p - 1)}[kind]()
        assert MillerLines(curve, first, q).power(*coords(second), (p + 1) // q) == \
            modified_pairing(curve, first, second, q)

    def test_power_is_the_modified_pairing_small(self):
        params = get_params(SMALL)
        curve, p, q = params.curve, params.p, params.q
        first, second = _subgroup_point(params, 12345), _subgroup_point(params, 678)
        assert MillerLines(curve, first, q).power(*coords(second), (p + 1) // q) == \
            modified_pairing(curve, first, second, q)

    def test_first_argument_of_wrong_order_refused(self):
        params = get_params(TOY)
        curve = params.curve
        for bad in (curve.infinity, curve.point(0, 1), curve.point(params.p - 1, 0),
                    curve.point_from_y(12345)):
            with pytest.raises(CryptoError):
                MillerLines(curve, bad, params.q)


class TestFixedBase:
    @pytest.mark.parametrize("name", [TOY, SMALL])
    def test_special_scalars(self, name):
        params = get_params(name)
        curve, g, q = params.curve, params.generator, params.q
        for k in (1, 2, 15, 16, 17, 255, 256, q - 2, q - 1):
            assert params.generator_table.multiply(k) == curve.multiply(g, k)

    @given(st.integers(min_value=1, max_value=get_params(TOY).q - 1))
    @settings(max_examples=80, deadline=None)
    def test_random_scalars_toy(self, k):
        params = get_params(TOY)
        assert params.generator_table.multiply(k) == \
            params.curve.multiply(params.generator, k)

    @given(st.integers(min_value=1, max_value=get_params(SMALL).q - 1))
    @settings(max_examples=10, deadline=None)
    def test_random_scalars_small(self, k):
        params = get_params(SMALL)
        assert params.generator_table.multiply(k) == \
            params.curve.multiply(params.generator, k)

    @pytest.mark.parametrize("name", [TOY, SMALL])
    def test_out_of_range_refused(self, name):
        params = get_params(name)
        q = params.q
        for k in (0, -1, -q, q, q + 1, 2 * q):
            with pytest.raises(ValueError):
                params.generator_table.multiply(k)

    def test_built_once_per_parameter_set(self):
        params = get_params(TOY)
        assert params.generator_table is params.generator_table


class TestRetries:
    @pytest.mark.parametrize("name", [TOY, SMALL])
    def test_retry_points(self, name):
        """h·P0 = ∞ for an order-2 or order-3 P0 (2 and 3 divide h):
        the folded helper must ask H1 for its next counter."""
        pkg = PKGS[name]
        params, curve, p = pkg.params, pkg.params.curve, pkg.params.p
        lines = MillerLines(curve, pkg.public_point, params.q)
        for raw in (curve.point(p - 1, 0), curve.point(0, 1), curve.point(0, p - 1)):
            assert curve.multiply(raw, params.cofactor).infinity
            assert bf._folded_pairing(params, lines, raw) is None

    def test_h1_counter_walks_past_them_as_before(self):
        pkg = PKGS[TOY]
        params, curve, p = pkg.params, pkg.params.curve, pkg.params.p
        real = curve.point_from_y(424242)
        script = [curve.point(p - 1, 0), curve.point(0, 1), real]
        with mock.patch.object(bf, "_h1_candidates",
                               side_effect=lambda *_: iter(script)):
            assert bf._hash_to_point(params, b"id") == curve.multiply(real, params.cofactor)
            expected = _reference_g_id(pkg, b"id")
            assert pkg.public()._g_id(b"id") == expected

    def test_zero_miller_value_falls_back(self):
        pkg = PKGS[TOY]
        pub = pkg.public()
        with mock.patch.object(MillerLines, "power",
                               return_value=Fp2.zero(pkg.params.p)):
            assert pub._g_id(b"id") == _reference_g_id(pkg, b"id")
