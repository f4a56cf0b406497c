"""IBE subsystem tests: field, curve, pairing, and Boneh-Franklin."""

from unittest import mock

import pytest

from repro.crypto import numbers
from repro.crypto.aead import NONCE_LEN, AesCtrHmacAead
from repro.crypto.ibe import (
    SMALL,
    TOY,
    PrivateKeyGenerator,
    decrypt,
    get_params,
)
from repro.crypto.ibe.boneh_franklin import IbeCiphertext, _hash_to_point, _kdf_from_gt
from repro.crypto.ibe.fp2 import Fp2
from repro.crypto.ibe.pairing import modified_pairing
from repro.crypto.numbers import (
    cbrt_mod,
    invmod,
    is_probable_prime,
    sqrt_mod,
)
from repro.crypto.sha256 import sha256_fast
from repro.errors import CryptoError, IntegrityError


@pytest.fixture(scope="module")
def params():
    return get_params(TOY)


@pytest.fixture(scope="module")
def pkg():
    return PrivateKeyGenerator(TOY, master_seed=b"test-master")


class TestNumbers:
    def test_primality_known_values(self):
        assert is_probable_prime(2)
        assert is_probable_prime(97)
        assert is_probable_prime(2**127 - 1)  # Mersenne prime
        assert not is_probable_prime(1)
        assert not is_probable_prime(0)
        assert not is_probable_prime(561)  # Carmichael number
        assert not is_probable_prime(2**128 + 1)

    def test_invmod(self):
        p = 10007
        for a in (1, 2, 3, 9999, 123):
            assert (a * invmod(a, p)) % p == 1
        with pytest.raises(ZeroDivisionError):
            invmod(0, p)
        with pytest.raises(ValueError):
            invmod(6, 9)

    def test_sqrt_mod_both_prime_shapes(self):
        for p in (10007, 1000003, 2**61 - 1):  # includes p ≡ 1 (mod 4)
            for x in (2, 5, 1234):
                square = (x * x) % p
                root = sqrt_mod(square, p)
                assert (root * root) % p == square
    def test_sqrt_mod_rejects_non_residue(self):
        p = 10007
        non_residue = next(
            x for x in range(2, 100) if pow(x, (p - 1) // 2, p) == p - 1
        )
        with pytest.raises(ValueError):
            sqrt_mod(non_residue, p)

    def test_cbrt_mod(self):
        p = 10007  # 10007 % 3 == 2
        for x in (2, 42, 9999):
            cube = pow(x, 3, p)
            assert pow(cbrt_mod(cube, p), 3, p) == cube
        with pytest.raises(ValueError):
            cbrt_mod(4, 10009)  # 10009 % 3 == 1


class TestFp2:
    P = 10007  # ≡ 3 (mod 4)

    def test_mul_matches_definition(self):
        x = Fp2(3, 4, self.P)
        y = Fp2(5, 6, self.P)
        # (3+4i)(5+6i) = 15 + 18i + 20i + 24i² = (15−24) + 38i
        assert x * y == Fp2(-9, 38, self.P)

    def test_square_matches_mul(self):
        x = Fp2(1234, 5678, self.P)
        assert x.square() == x * x

    def test_inverse(self):
        x = Fp2(37, 91, self.P)
        assert (x * x.inverse()).is_one()

    def test_pow_agrees_with_repeated_mul(self):
        x = Fp2(3, 7, self.P)
        acc = Fp2.one(self.P)
        for _ in range(13):
            acc = acc * x
        assert x.pow(13) == acc

    def test_negative_pow(self):
        x = Fp2(3, 7, self.P)
        assert (x.pow(-3) * x.pow(3)).is_one()

    def test_conjugate_norm_in_base_field(self):
        x = Fp2(3, 7, self.P)
        norm = x * x.conjugate()
        assert norm.b == 0

    def test_to_bytes_fixed_width(self):
        x = Fp2(1, 2, self.P)
        assert len(x.to_bytes()) == 2 * ((self.P.bit_length() + 7) // 8)


class TestCurve:
    def test_generator_on_curve_and_order(self, params):
        curve = params.curve
        assert curve.contains(params.generator)
        assert curve.multiply(params.generator, params.q).infinity
        assert not curve.multiply(params.generator, 2).infinity

    def test_group_law_associativity_sample(self, params):
        curve = params.curve
        g = params.generator
        a = curve.multiply(g, 7)
        b = curve.multiply(g, 11)
        c = curve.multiply(g, 13)
        left = curve.add(curve.add(a, b), c)
        right = curve.add(a, curve.add(b, c))
        assert left == right == curve.multiply(g, 31)

    def test_identity_and_inverse(self, params):
        curve = params.curve
        g = params.generator
        assert curve.add(g, curve.infinity) == g
        assert curve.add(g, curve.negate(g)).infinity

    def test_scalar_mult_distributes(self, params):
        curve = params.curve
        g = params.generator
        assert curve.multiply(g, 20) == curve.add(
            curve.multiply(g, 9), curve.multiply(g, 11)
        )

    def test_distortion_map_leaves_curve_invariant(self, params):
        curve = params.curve
        pt = curve.multiply(params.generator, 5)
        phi = curve.distort(pt)
        assert curve.contains(phi)
        assert phi != pt

    def test_hash_to_point_is_on_curve_with_right_order(self, params):
        for ident in (b"a", b"/home/taxes_2011.pdf", b"\x00" * 50):
            pt = _hash_to_point(params, ident)
            assert params.curve.contains(pt)
            assert params.curve.multiply(pt, params.q).infinity
            assert not pt.infinity

    def test_hash_to_point_deterministic_and_distinct(self, params):
        a1 = _hash_to_point(params, b"file-a")
        a2 = _hash_to_point(params, b"file-a")
        b = _hash_to_point(params, b"file-b")
        assert a1 == a2
        assert a1 != b


class TestPairing:
    def test_non_degenerate(self, params):
        e = modified_pairing(params.curve, params.generator, params.generator, params.q)
        assert not e.is_one()
        assert not e.is_zero()

    def test_output_has_order_q(self, params):
        e = modified_pairing(params.curve, params.generator, params.generator, params.q)
        assert e.pow(params.q).is_one()

    def test_bilinearity(self, params):
        curve, g, q = params.curve, params.generator, params.q
        e_gg = modified_pairing(curve, g, g, q)
        for a, b in [(2, 3), (17, 91), (12345, 67890)]:
            lhs = modified_pairing(curve, curve.multiply(g, a), curve.multiply(g, b), q)
            assert lhs == e_gg.pow(a * b)

    def test_linearity_in_first_argument(self, params):
        curve, g, q = params.curve, params.generator, params.q
        a = curve.multiply(g, 5)
        b = curve.multiply(g, 9)
        lhs = modified_pairing(curve, curve.add(a, b), g, q)
        rhs = modified_pairing(curve, a, g, q) * modified_pairing(curve, b, g, q)
        assert lhs == rhs

    def test_infinity_pairs_to_one(self, params):
        e = modified_pairing(params.curve, params.curve.infinity, params.generator, params.q)
        assert e.is_one()


def _fp_pair(point):
    assert point.x.b == 0 and point.y.b == 0
    return point.x.a, point.y.a


class TestKnownAnswers:
    """Values computed with the affine F_p² implementation (extended-Euclid
    inversions, one per group operation and Miller step) that the int
    arithmetic replaced.  The reduced Tate pairing is unique, so every
    value must be reproduced bit for bit."""

    TOY_G = (0x286AC955868D9B124D9B4C1102A02FA2B57CC997,
             0x1FFF484C2A53D00F9870C171F9EF1E53718A3D5D)
    TOY_E_GG = (0x38F8EFDE072D9968702F83231F8AC0EE3A4E3DE0,
                0x6A5B8A72C7840ABC1804553D7F9D181AB5C2C900)
    SMALL_E_GG = (
        int("3086dd389ceb6dc80eab91b14a5e417b47d3eb83e4d27d515f514feed9c9ed07"
            "98dd74b9e97f793290f3fa18b61a947f107857f65228b1e0b5966a960575dda5", 16),
        int("3cec8b99644f7d1145f76a74232eeb1ad70bcf8ff7ddec26c6d0c441950a4310"
            "13b22d5fb9908c452b40ab39956cd9fb548be958e27e438cacd67f25f1344b7e", 16),
    )
    EXTRACT_ID = (0x4E5B7F8B423B6F6B7F8D5471BB0AE1F1E30FCD64,
                  0x5B7F41DFA0822D5FA2B32853B1361F5A3177AE0A)
    ENCRYPT_U = (0x18B6AABED22C950469B40227C80EEF97585A67EB,
                 0x85E4444AA60856B670165452BCDEF4C6F77FD69E)
    ENCRYPT_SEALED = bytes.fromhex(
        "0fc786e112c5a53f9d8994b03319842a0b7d1846b49fd45312688363d59ee577"
        "47b4eb4888cebfabb1c94905759b38e8ab15d9ab"
    )

    def test_toy_generator(self, params):
        assert _fp_pair(params.generator) == self.TOY_G

    def test_toy_pairing_of_generator(self, params):
        e = modified_pairing(params.curve, params.generator, params.generator, params.q)
        assert (e.a, e.b) == self.TOY_E_GG

    def test_small_pairing_of_generator(self):
        small = get_params(SMALL)
        e = modified_pairing(small.curve, small.generator, small.generator, small.q)
        assert (e.a, e.b) == self.SMALL_E_GG

    def test_extract(self, pkg):
        assert _fp_pair(pkg.extract(b"id").point) == self.EXTRACT_ID

    def test_encrypt(self, pkg):
        ct = pkg.public(seed=b"kat-seed").encrypt(b"id", b"the wrapped data key")
        assert ct == IbeCiphertext(u_x=self.ENCRYPT_U[0], u_y=self.ENCRYPT_U[1],
                                   sealed=self.ENCRYPT_SEALED)
        assert decrypt(pkg.params, pkg.extract(b"id"), ct) == b"the wrapped data key"


def _inversions(fn) -> int:
    """How many times ``fn()`` calls ``numbers.invmod``."""
    real = numbers.invmod
    calls = []

    def counting(a, m):
        calls.append(a)
        return real(a, m)

    with mock.patch.object(numbers, "invmod", counting):
        fn()
    return len(calls)


class TestInversionCounts:
    def test_one_inversion_per_scalar_multiplication(self, params):
        curve, g, q = params.curve, params.generator, params.q
        for k in (q - 2, 0xDEADBEEFCAFEF00D, params.cofactor):
            assert _inversions(lambda: curve.multiply(g, k)) == 1

    def test_one_inversion_per_pairing(self, params, pkg):
        curve, g, q = params.curve, params.generator, params.q
        d_id = pkg.extract(b"id").point
        assert _inversions(lambda: modified_pairing(curve, g, g, q)) == 1
        assert _inversions(lambda: modified_pairing(curve, d_id, g, q)) == 1


class TestBonehFranklin:
    def test_encrypt_decrypt_roundtrip(self, pkg):
        pub = pkg.public()
        ident = b"dir7/prepared_taxes_2011.pdf|ID42"
        ct = pub.encrypt(ident, b"the wrapped data key")
        sk = pkg.extract(ident)
        assert decrypt(pkg.params, sk, ct) == b"the wrapped data key"

    def test_wrong_identity_key_fails(self, pkg):
        pub = pkg.public()
        ct = pub.encrypt(b"identity-A", b"payload")
        wrong = pkg.extract(b"identity-B")
        with pytest.raises((IntegrityError, CryptoError)):
            decrypt(pkg.params, wrong, ct)

    def test_ciphertexts_randomized(self, pkg):
        pub = pkg.public()
        c1 = pub.encrypt(b"id", b"payload")
        c2 = pub.encrypt(b"id", b"payload")
        assert (c1.u_x, c1.u_y) != (c2.u_x, c2.u_y)
        sk = pkg.extract(b"id")
        assert decrypt(pkg.params, sk, c1) == decrypt(pkg.params, sk, c2)

    def test_tampered_ciphertext_rejected(self, pkg):
        pub = pkg.public()
        ct = pub.encrypt(b"id", b"payload")
        tampered = IbeCiphertext(
            u_x=ct.u_x,
            u_y=ct.u_y,
            sealed=bytes([ct.sealed[0] ^ 1]) + ct.sealed[1:],
        )
        with pytest.raises(IntegrityError):
            decrypt(pkg.params, pkg.extract(b"id"), tampered)

    def test_off_curve_point_rejected(self, pkg):
        pub = pkg.public()
        ct = pub.encrypt(b"id", b"payload")
        bogus = IbeCiphertext(u_x=ct.u_x + 1, u_y=ct.u_y, sealed=ct.sealed)
        with pytest.raises(CryptoError):
            decrypt(pkg.params, pkg.extract(b"id"), bogus)

    @pytest.mark.parametrize("order", [3, 2])
    def test_small_order_u_forgery_refused(self, pkg, order):
        """U of order 3 or 2 is on the curve and pairs to 1 with every
        private key: without the subgroup check anyone could seal under
        H2(1) and have decrypt return their bytes."""
        p = pkg.params.p
        u_x, u_y = (0, 1) if order == 3 else (p - 1, 0)
        identity = b"dir7/prepared_taxes_2011.pdf|ID42"
        u_bytes = Fp2.from_int(u_x, p).to_bytes() + Fp2.from_int(u_y, p).to_bytes()
        nonce = sha256_fast(b"ibe-nonce|" + u_bytes)[:NONCE_LEN]
        key = _kdf_from_gt(Fp2.one(p), identity)
        forged = IbeCiphertext(
            u_x=u_x, u_y=u_y,
            sealed=AesCtrHmacAead(key).seal(nonce, b"attacker key", aad=identity),
        )
        with pytest.raises(CryptoError, match="order-q subgroup"):
            decrypt(pkg.params, pkg.extract(identity), forged)

    def test_different_masters_incompatible(self):
        pkg_a = PrivateKeyGenerator(TOY, master_seed=b"A")
        pkg_b = PrivateKeyGenerator(TOY, master_seed=b"B")
        ct = pkg_a.public().encrypt(b"id", b"payload")
        with pytest.raises((IntegrityError, CryptoError)):
            decrypt(pkg_b.params, pkg_b.extract(b"id"), ct)

    def test_extract_deterministic(self, pkg):
        assert pkg.extract(b"id").point == pkg.extract(b"id").point

    def test_empty_payload(self, pkg):
        pub = pkg.public()
        ct = pub.encrypt(b"id", b"")
        assert decrypt(pkg.params, pkg.extract(b"id"), ct) == b""

    def test_ciphertext_size_accounting(self, pkg):
        ct = pkg.public().encrypt(b"id", b"x" * 48)
        coord = (pkg.params.p.bit_length() + 7) // 8
        assert ct.size_bytes(pkg.params) == 2 * coord + len(ct.sealed)


class TestParams:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            get_params("BOGUS")

    def test_params_cached(self):
        assert get_params(TOY) is get_params(TOY)

    def test_structure(self, params):
        assert (params.p + 1) % params.q == 0
        assert params.p % 12 == 11
        assert is_probable_prime(params.p)
        assert is_probable_prime(params.q)
