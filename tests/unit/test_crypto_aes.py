"""AES / modes / AEAD tests against FIPS-197 and SP 800-38A vectors."""

from unittest import mock

import pytest

from repro.core.header import unwrap_data_key, wrap_data_key
from repro.crypto.aead import AesCtrHmacAead, StreamHmacAead
from repro.crypto.aes import AES
from repro.crypto.modes import (
    cbc_decrypt,
    cbc_encrypt,
    ctr_transform,
    pkcs7_pad,
    pkcs7_unpad,
)
from repro.crypto.drbg import HmacDrbg
from repro.errors import IntegrityError


def _inverse_schedule_spy():
    """Patch ``AES._invert_key_schedule`` with a call-counting wrapper."""
    return mock.patch.object(AES, "_invert_key_schedule", autospec=True,
                             side_effect=AES._invert_key_schedule)


class TestAesBlock:
    def test_fips197_aes128(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plain = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        cipher = AES(key)
        assert cipher.encrypt_block(plain) == expected
        assert cipher.decrypt_block(expected) == plain

    def test_fips197_aes192(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
        plain = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("dda97ca4864cdfe06eaf70a0ec0d7191")
        cipher = AES(key)
        assert cipher.encrypt_block(plain) == expected
        assert cipher.decrypt_block(expected) == plain

    def test_fips197_aes256(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f"
            "101112131415161718191a1b1c1d1e1f"
        )
        plain = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
        cipher = AES(key)
        assert cipher.encrypt_block(plain) == expected
        assert cipher.decrypt_block(expected) == plain

    def test_sp80038a_ecb_aes128(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        cipher = AES(key)
        blocks = [
            ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"),
            ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf"),
            ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688"),
        ]
        for plain_hex, ct_hex in blocks:
            assert cipher.encrypt_block(bytes.fromhex(plain_hex)).hex() == ct_hex

    @pytest.mark.parametrize("bad_len", [0, 8, 15, 17, 31])
    def test_invalid_key_length_rejected(self, bad_len):
        with pytest.raises(ValueError):
            AES(bytes(bad_len))

    def test_invalid_block_length_rejected(self):
        cipher = AES(bytes(16))
        with pytest.raises(ValueError):
            cipher.encrypt_block(b"short")
        with pytest.raises(ValueError):
            cipher.decrypt_block(b"x" * 17)


class TestLazyInverseSchedule:
    def test_ctr_seal_open_never_builds_it(self):
        key, drbg = bytes(range(32)), HmacDrbg(b"aes-tests", b"lazy")
        with _inverse_schedule_spy() as spy:
            suite = AesCtrHmacAead(key)
            sealed = suite.seal(b"n" * 16, b"payload", aad=b"hdr")
            assert suite.open(b"n" * 16, sealed, aad=b"hdr") == b"payload"
            blob = wrap_data_key(b"d" * 32, key, drbg)
            assert unwrap_data_key(blob, key) == b"d" * 32
        assert spy.call_count == 0

    def test_first_decrypt_builds_it_once(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plain = bytes.fromhex("00112233445566778899aabbccddeeff")
        with _inverse_schedule_spy() as spy:
            cipher = AES(key)
            block = cipher.encrypt_block(plain)
            assert spy.call_count == 0
            assert cipher.decrypt_block(block) == plain
            assert cipher.decrypt_block(block) == plain
        assert spy.call_count == 1


class TestCtrMode:
    def test_sp80038a_ctr_aes128(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        # SP 800-38A F.5.1: counter blocks start at f0f1...ff.
        nonce = bytes.fromhex("f0f1f2f3f4f5f6f7")
        initial = int.from_bytes(bytes.fromhex("f8f9fafbfcfdfeff"), "big")
        plain = bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172a"
            "ae2d8a571e03ac9c9eb76fac45af8e51"
        )
        expected = bytes.fromhex(
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff"
        )
        out = ctr_transform(AES(key), nonce, plain, initial_counter=initial)
        assert out == expected

    def test_ctr_roundtrip_odd_length(self):
        cipher = AES(bytes(32))
        data = b"not a multiple of sixteen bytes!!"
        ct = ctr_transform(cipher, b"12345678", data)
        assert ctr_transform(cipher, b"12345678", ct) == data

    def test_short_nonce_rejected(self):
        with pytest.raises(ValueError):
            ctr_transform(AES(bytes(16)), b"short", b"data")


class TestCbcMode:
    def test_sp80038a_cbc_aes128(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        iv = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plain = bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172a"
            "ae2d8a571e03ac9c9eb76fac45af8e51"
        )
        expected = bytes.fromhex(
            "7649abac8119b246cee98e9b12e9197d"
            "5086cb9b507219ee95db113a917678b2"
        )
        out = cbc_encrypt(AES(key), iv, plain, pad=False)
        assert out == expected
        assert cbc_decrypt(AES(key), iv, expected, pad=False) == plain

    def test_cbc_padded_roundtrip(self):
        cipher = AES(b"k" * 16)
        iv = b"i" * 16
        for size in (0, 1, 15, 16, 17, 100):
            data = bytes(range(size % 256 or 1))[:size]
            assert cbc_decrypt(cipher, iv, cbc_encrypt(cipher, iv, data)) == data

    def test_pkcs7(self):
        assert pkcs7_pad(b"abc") == b"abc" + b"\x0d" * 13
        assert pkcs7_unpad(pkcs7_pad(b"")) == b""
        with pytest.raises(ValueError):
            pkcs7_unpad(b"abc")  # bad length
        with pytest.raises(ValueError):
            pkcs7_unpad(b"a" * 15 + b"\x00")  # zero pad byte
        with pytest.raises(ValueError):
            pkcs7_unpad(b"a" * 14 + b"\x03\x02")  # inconsistent


@pytest.mark.parametrize("suite_cls", [AesCtrHmacAead, StreamHmacAead])
class TestAead:
    KEY = bytes(range(32))
    NONCE = b"n" * 16

    def test_roundtrip(self, suite_cls):
        suite = suite_cls(self.KEY)
        sealed = suite.seal(self.NONCE, b"secret payload", aad=b"hdr")
        assert suite.open(self.NONCE, sealed, aad=b"hdr") == b"secret payload"

    def test_tamper_detected(self, suite_cls):
        suite = suite_cls(self.KEY)
        sealed = bytearray(suite.seal(self.NONCE, b"secret payload"))
        sealed[0] ^= 1
        with pytest.raises(IntegrityError):
            suite.open(self.NONCE, bytes(sealed))

    def test_tag_tamper_detected(self, suite_cls):
        suite = suite_cls(self.KEY)
        sealed = bytearray(suite.seal(self.NONCE, b"p"))
        sealed[-1] ^= 1
        with pytest.raises(IntegrityError):
            suite.open(self.NONCE, bytes(sealed))

    def test_wrong_aad_detected(self, suite_cls):
        suite = suite_cls(self.KEY)
        sealed = suite.seal(self.NONCE, b"p", aad=b"right")
        with pytest.raises(IntegrityError):
            suite.open(self.NONCE, sealed, aad=b"wrong")

    def test_wrong_nonce_detected(self, suite_cls):
        suite = suite_cls(self.KEY)
        sealed = suite.seal(self.NONCE, b"p")
        with pytest.raises(IntegrityError):
            suite.open(b"m" * 16, sealed)

    def test_wrong_key_detected(self, suite_cls):
        sealed = suite_cls(self.KEY).seal(self.NONCE, b"p")
        with pytest.raises(IntegrityError):
            suite_cls(bytes(32)).open(self.NONCE, sealed)

    def test_empty_plaintext(self, suite_cls):
        suite = suite_cls(self.KEY)
        sealed = suite.seal(self.NONCE, b"")
        assert suite.open(self.NONCE, sealed) == b""

    def test_truncated_blob_rejected(self, suite_cls):
        suite = suite_cls(self.KEY)
        with pytest.raises(IntegrityError):
            suite.open(self.NONCE, b"too-short")

    def test_key_length_enforced(self, suite_cls):
        with pytest.raises(ValueError):
            suite_cls(b"short")

    def test_nonce_length_enforced(self, suite_cls):
        suite = suite_cls(self.KEY)
        with pytest.raises(ValueError):
            suite.seal(b"short", b"p")


def test_aead_suites_are_distinct_ciphers():
    key = bytes(32)
    nonce = b"n" * 16
    a = AesCtrHmacAead(key).seal(nonce, b"payload")
    b = StreamHmacAead(key).seal(nonce, b"payload")
    assert a != b
