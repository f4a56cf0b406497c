"""SHA-256 / HMAC / KDF / DRBG tests against published vectors."""

import hashlib
import hmac as stdlib_hmac

import pytest

from repro.crypto import hmac as hmac_mod
from repro.crypto.aead import AesCtrHmacAead, StreamHmacAead
from repro.crypto.drbg import HmacDrbg
from repro.crypto.hmac import constant_time_equal, hmac_sha256
from repro.crypto.kdf import hkdf_expand, hkdf_extract, hkdf_sha256, pbkdf2_sha256
from repro.crypto.sha256 import SHA256, sha256, sha256_fast


class TestSha256:
    # NIST FIPS 180-4 example vectors.
    VECTORS = [
        (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"a" * 1_000_000,
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        ),
    ]

    @pytest.mark.parametrize("message,expected", VECTORS)
    def test_nist_vectors(self, message, expected):
        assert sha256(message).hex() == expected

    def test_incremental_update_equals_oneshot(self):
        h = SHA256()
        h.update(b"abc")
        h.update(b"dbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
        assert h.hexdigest() == self.VECTORS[2][1]

    def test_digest_does_not_finalize(self):
        h = SHA256(b"ab")
        first = h.digest()
        assert h.digest() == first
        h.update(b"c")
        assert h.hexdigest() == self.VECTORS[1][1]

    def test_copy_is_independent(self):
        h = SHA256(b"ab")
        clone = h.copy()
        clone.update(b"c")
        h.update(b"X")
        assert clone.hexdigest() == self.VECTORS[1][1]
        assert h.hexdigest() != clone.hexdigest()

    @pytest.mark.parametrize("size", [0, 1, 55, 56, 57, 63, 64, 65, 127, 128, 1000])
    def test_boundary_lengths_match_hashlib(self, size):
        data = bytes(range(256)) * (size // 256 + 1)
        data = data[:size]
        assert sha256(data) == hashlib.sha256(data).digest()

    def test_fast_path_matches_reference(self):
        data = b"keypad" * 999
        assert sha256_fast(data) == sha256(data)

    def test_update_rejects_str(self):
        with pytest.raises(TypeError):
            SHA256().update("not bytes")


class TestHmac:
    # RFC 4231 test cases.
    def test_rfc4231_case1(self):
        key = b"\x0b" * 20
        assert hmac_sha256(key, b"Hi There").hex() == (
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        )

    def test_rfc4231_case2(self):
        assert hmac_sha256(b"Jefe", b"what do ya want for nothing?").hex() == (
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        )

    def test_rfc4231_case6_long_key(self):
        key = b"\xaa" * 131
        msg = b"Test Using Larger Than Block-Size Key - Hash Key First"
        assert hmac_sha256(key, msg).hex() == (
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        )

    @pytest.mark.parametrize("key_len", [0, 1, 32, 64, 65, 200])
    def test_matches_stdlib(self, key_len):
        key = bytes(range(key_len % 256 or 1)) * ((key_len // 256) + 1)
        key = key[:key_len]
        msg = b"keypad audit message"
        assert hmac_sha256(key, msg) == stdlib_hmac.new(key, msg, "sha256").digest()

    def test_constant_time_equal(self):
        assert constant_time_equal(b"abc", b"abc")
        assert not constant_time_equal(b"abc", b"abd")
        assert not constant_time_equal(b"abc", b"abcd")
        assert constant_time_equal(b"", b"")
        tag = hmac_sha256(b"k" * 32, b"m")
        assert constant_time_equal(tag, bytes(tag))
        for bit in (0, 7, 8 * 31 + 7):  # one-bit differences, first to last byte
            flipped = bytearray(tag)
            flipped[bit // 8] ^= 1 << (bit % 8)
            assert not constant_time_equal(tag, bytes(flipped))
        assert not constant_time_equal(tag, tag[:-1])


class TestSecretsOffTheHmacCache:
    """K_R must not outlive Texp: nothing derived from it may stay in the
    module-level HMAC state cache after a data-key wrap and unwrap."""

    def test_wrap_unwrap_leaves_no_derived_key_in_the_cache(self):
        from repro.core.header import unwrap_data_key, wrap_data_key

        remote_key = hashlib.sha256(b"a fresh K_R").digest()
        data_key = b"D" * 32
        blob = wrap_data_key(data_key, remote_key, HmacDrbg(b"wrap", b"nonce"))
        assert unwrap_data_key(blob, remote_key) == data_key
        prk = hkdf_extract(b"", remote_key)
        mac_key = hkdf_expand(prk, AesCtrHmacAead.name.encode() + b"|mac", 32)
        assert prk not in hmac_mod._state_cache
        assert mac_key not in hmac_mod._state_cache
        assert remote_key not in hmac_mod._state_cache

    @pytest.mark.parametrize("suite,sealed", [
        (AesCtrHmacAead,
         "dacab3991343b3dec9c22055a6a358177c992905e5fdc4a016590247eeec9b7a"
         "0913dead102b85f37cb08260f58f90ca1b6276e7"),
        (StreamHmacAead,
         "cae880ea96638423671ebaff18817300d58750121aa6527318670a61a5b2052d"
         "6c00dc2a9bcf64fa2bc8e426b9dffa45450a2e6d"),
    ])
    def test_sealed_bytes_unchanged(self, suite, sealed):
        """Known answers from two independent hkdf_sha256 calls per sub-key."""
        aead = suite(bytes(range(32)))
        assert aead.seal(b"n" * 16, b"the wrapped data key",
                         aad=b"kd-wrap").hex() == sealed
        label = suite.name.encode()
        assert aead._enc_key == hkdf_sha256(bytes(range(32)), b"", label + b"|enc", 32)


class TestPbkdf2:
    def test_rfc_style_vector(self):
        # Cross-checked against hashlib.pbkdf2_hmac.
        derived = pbkdf2_sha256(b"password", b"salt", 4096, 32)
        expected = hashlib.pbkdf2_hmac("sha256", b"password", b"salt", 4096, 32)
        assert derived == expected

    @pytest.mark.parametrize("dklen", [1, 16, 32, 33, 64, 100])
    def test_lengths_match_hashlib(self, dklen):
        derived = pbkdf2_sha256(b"pw", b"na", 10, dklen)
        assert derived == hashlib.pbkdf2_hmac("sha256", b"pw", b"na", 10, dklen)

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            pbkdf2_sha256(b"pw", b"salt", 0)

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            pbkdf2_sha256(b"pw", b"salt", 1, 0)


class TestHkdf:
    def test_rfc5869_case1(self):
        ikm = b"\x0b" * 22
        salt = bytes.fromhex("000102030405060708090a0b0c")
        info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
        okm = hkdf_sha256(ikm, salt, info, 42)
        assert okm.hex() == (
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865"
        )

    def test_rfc5869_case3_empty_salt_info(self):
        okm = hkdf_sha256(b"\x0b" * 22, b"", b"", 42)
        assert okm.hex() == (
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8"
        )

    def test_distinct_infos_give_independent_keys(self):
        a = hkdf_sha256(b"master", b"", b"enc", 32)
        b = hkdf_sha256(b"master", b"", b"mac", 32)
        assert a != b

    def test_length_limit(self):
        with pytest.raises(ValueError):
            hkdf_sha256(b"x", b"", b"", 255 * 32 + 1)


class TestHmacDrbg:
    def test_deterministic(self):
        a = HmacDrbg(b"seed", b"ctx").generate(64)
        b = HmacDrbg(b"seed", b"ctx").generate(64)
        assert a == b

    def test_personalization_separates_streams(self):
        a = HmacDrbg(b"seed", b"one").generate(32)
        b = HmacDrbg(b"seed", b"two").generate(32)
        assert a != b

    def test_sequential_outputs_differ(self):
        drbg = HmacDrbg(b"seed")
        assert drbg.generate(32) != drbg.generate(32)

    def test_reseed_changes_stream(self):
        a = HmacDrbg(b"seed")
        b = HmacDrbg(b"seed")
        b.reseed(b"more entropy")
        assert a.generate(32) != b.generate(32)

    def test_randint_below_bounds(self):
        drbg = HmacDrbg(b"seed")
        for bound in (1, 2, 7, 256, 10**30):
            for _ in range(20):
                value = drbg.randint_below(bound)
                assert 0 <= value < bound

    def test_randint_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            HmacDrbg(b"s").randint_below(0)

    def test_generate_zero_bytes(self):
        assert HmacDrbg(b"s").generate(0) == b""

    def test_generate_negative_rejected(self):
        with pytest.raises(ValueError):
            HmacDrbg(b"s").generate(-1)
