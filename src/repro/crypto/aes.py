"""AES-128/192/256 block cipher from scratch (FIPS 197).

Table-driven implementation: the S-box and the four T-tables are
generated at import time from first principles (GF(2^8) arithmetic),
then encryption/decryption run as table lookups.  Validated against the
FIPS 197 and NIST SP 800-38A known-answer vectors in the test suite.

This is the *reference-grade* block cipher used for headers, keys, and
all security-critical small payloads.  Bulk file content in long
simulations uses the faster stream suite in :mod:`repro.crypto.aead`,
which is itself keyed and validated through this module.
"""

from __future__ import annotations

import struct

__all__ = ["AES"]


def _gf_mul(a: int, b: int) -> int:
    """Multiply in GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        carry = a & 0x80
        a = (a << 1) & 0xFF
        if carry:
            a ^= 0x1B
        b >>= 1
    return result


def _build_sbox() -> tuple[list[int], list[int]]:
    # Multiplicative inverses in GF(2^8) via exponentiation by generator 3.
    exp = [0] * 256
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = _gf_mul(x, 3)
    exp[255] = exp[0]

    def inverse(a: int) -> int:
        return 0 if a == 0 else exp[255 - log[a]]

    sbox = [0] * 256
    for i in range(256):
        c = inverse(i)
        # Affine transform.
        s = c
        for shift in (1, 2, 3, 4):
            s ^= ((c << shift) | (c >> (8 - shift))) & 0xFF
        sbox[i] = s ^ 0x63
    inv_sbox = [0] * 256
    for i, s in enumerate(sbox):
        inv_sbox[s] = i
    return sbox, inv_sbox


_SBOX, _INV_SBOX = _build_sbox()

# Round constants for the key schedule.
_RCON = [0x01]
for _ in range(13):
    _RCON.append(_gf_mul(_RCON[-1], 2))


def _build_enc_tables() -> list[list[int]]:
    t0 = []
    for x in range(256):
        s = _SBOX[x]
        word = (
            (_gf_mul(s, 2) << 24)
            | (s << 16)
            | (s << 8)
            | _gf_mul(s, 3)
        )
        t0.append(word)
    tables = [t0]
    for shift in (8, 16, 24):
        tables.append([((w >> shift) | (w << (32 - shift))) & 0xFFFFFFFF for w in t0])
    return tables


def _build_dec_tables() -> list[list[int]]:
    d0 = []
    for x in range(256):
        s = _INV_SBOX[x]
        word = (
            (_gf_mul(s, 14) << 24)
            | (_gf_mul(s, 9) << 16)
            | (_gf_mul(s, 13) << 8)
            | _gf_mul(s, 11)
        )
        d0.append(word)
    tables = [d0]
    for shift in (8, 16, 24):
        tables.append([((w >> shift) | (w << (32 - shift))) & 0xFFFFFFFF for w in d0])
    return tables


_T0, _T1, _T2, _T3 = _build_enc_tables()
_D0, _D1, _D2, _D3 = _build_dec_tables()
_MASK32 = 0xFFFFFFFF


class AES:
    """AES block cipher over 16-byte blocks.

    >>> cipher = AES(bytes(16))
    >>> cipher.decrypt_block(cipher.encrypt_block(b"sixteen byte msg"))
    b'sixteen byte msg'
    """

    block_size = 16

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise ValueError(f"AES key must be 16/24/32 bytes, got {len(key)}")
        self.key_size = len(key)
        self._rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._enc_keys = self._expand_key(key)
        # Built on the first decrypt_block: CTR mode (every AEAD seal and
        # open) only ever encrypts, so most ciphers never need it.
        self._dec_keys: list[int] | None = None

    # -- key schedule ---------------------------------------------------------
    def _expand_key(self, key: bytes) -> list[int]:
        nk = len(key) // 4
        words = list(struct.unpack(f">{nk}I", key))
        total = 4 * (self._rounds + 1)
        for i in range(nk, total):
            temp = words[i - 1]
            if i % nk == 0:
                temp = ((temp << 8) | (temp >> 24)) & _MASK32  # RotWord
                temp = (
                    (_SBOX[(temp >> 24) & 0xFF] << 24)
                    | (_SBOX[(temp >> 16) & 0xFF] << 16)
                    | (_SBOX[(temp >> 8) & 0xFF] << 8)
                    | _SBOX[temp & 0xFF]
                )
                temp ^= _RCON[i // nk - 1] << 24
            elif nk > 6 and i % nk == 4:
                temp = (
                    (_SBOX[(temp >> 24) & 0xFF] << 24)
                    | (_SBOX[(temp >> 16) & 0xFF] << 16)
                    | (_SBOX[(temp >> 8) & 0xFF] << 8)
                    | _SBOX[temp & 0xFF]
                )
            words.append(words[i - nk] ^ temp)
        return words

    def _invert_key_schedule(self, enc: list[int]) -> list[int]:
        """Equivalent-inverse-cipher round keys (InvMixColumns applied)."""
        rounds = self._rounds
        dec = [0] * len(enc)
        for i in range(4):
            dec[i] = enc[4 * rounds + i]
            dec[4 * rounds + i] = enc[i]
        for r in range(1, rounds):
            for i in range(4):
                w = enc[4 * (rounds - r) + i]
                dec[4 * r + i] = (
                    _D0[_SBOX[(w >> 24) & 0xFF]]
                    ^ _D1[_SBOX[(w >> 16) & 0xFF]]
                    ^ _D2[_SBOX[(w >> 8) & 0xFF]]
                    ^ _D3[_SBOX[w & 0xFF]]
                )
        return dec

    # -- block operations -------------------------------------------------------
    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError("AES operates on exactly 16-byte blocks")
        rk = self._enc_keys
        s0, s1, s2, s3 = struct.unpack(">4I", block)
        s0 ^= rk[0]
        s1 ^= rk[1]
        s2 ^= rk[2]
        s3 ^= rk[3]
        k = 4
        for _ in range(self._rounds - 1):
            t0 = (_T0[(s0 >> 24) & 0xFF] ^ _T1[(s1 >> 16) & 0xFF]
                  ^ _T2[(s2 >> 8) & 0xFF] ^ _T3[s3 & 0xFF] ^ rk[k])
            t1 = (_T0[(s1 >> 24) & 0xFF] ^ _T1[(s2 >> 16) & 0xFF]
                  ^ _T2[(s3 >> 8) & 0xFF] ^ _T3[s0 & 0xFF] ^ rk[k + 1])
            t2 = (_T0[(s2 >> 24) & 0xFF] ^ _T1[(s3 >> 16) & 0xFF]
                  ^ _T2[(s0 >> 8) & 0xFF] ^ _T3[s1 & 0xFF] ^ rk[k + 2])
            t3 = (_T0[(s3 >> 24) & 0xFF] ^ _T1[(s0 >> 16) & 0xFF]
                  ^ _T2[(s1 >> 8) & 0xFF] ^ _T3[s2 & 0xFF] ^ rk[k + 3])
            s0, s1, s2, s3 = t0, t1, t2, t3
            k += 4
        # Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
        o0 = ((_SBOX[(s0 >> 24) & 0xFF] << 24) | (_SBOX[(s1 >> 16) & 0xFF] << 16)
              | (_SBOX[(s2 >> 8) & 0xFF] << 8) | _SBOX[s3 & 0xFF]) ^ rk[k]
        o1 = ((_SBOX[(s1 >> 24) & 0xFF] << 24) | (_SBOX[(s2 >> 16) & 0xFF] << 16)
              | (_SBOX[(s3 >> 8) & 0xFF] << 8) | _SBOX[s0 & 0xFF]) ^ rk[k + 1]
        o2 = ((_SBOX[(s2 >> 24) & 0xFF] << 24) | (_SBOX[(s3 >> 16) & 0xFF] << 16)
              | (_SBOX[(s0 >> 8) & 0xFF] << 8) | _SBOX[s1 & 0xFF]) ^ rk[k + 2]
        o3 = ((_SBOX[(s3 >> 24) & 0xFF] << 24) | (_SBOX[(s0 >> 16) & 0xFF] << 16)
              | (_SBOX[(s1 >> 8) & 0xFF] << 8) | _SBOX[s2 & 0xFF]) ^ rk[k + 3]
        return struct.pack(">4I", o0 & _MASK32, o1 & _MASK32, o2 & _MASK32, o3 & _MASK32)

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError("AES operates on exactly 16-byte blocks")
        rk = self._dec_keys
        if rk is None:
            rk = self._dec_keys = self._invert_key_schedule(self._enc_keys)
        s0, s1, s2, s3 = struct.unpack(">4I", block)
        s0 ^= rk[0]
        s1 ^= rk[1]
        s2 ^= rk[2]
        s3 ^= rk[3]
        k = 4
        for _ in range(self._rounds - 1):
            t0 = (_D0[(s0 >> 24) & 0xFF] ^ _D1[(s3 >> 16) & 0xFF]
                  ^ _D2[(s2 >> 8) & 0xFF] ^ _D3[s1 & 0xFF] ^ rk[k])
            t1 = (_D0[(s1 >> 24) & 0xFF] ^ _D1[(s0 >> 16) & 0xFF]
                  ^ _D2[(s3 >> 8) & 0xFF] ^ _D3[s2 & 0xFF] ^ rk[k + 1])
            t2 = (_D0[(s2 >> 24) & 0xFF] ^ _D1[(s1 >> 16) & 0xFF]
                  ^ _D2[(s0 >> 8) & 0xFF] ^ _D3[s3 & 0xFF] ^ rk[k + 2])
            t3 = (_D0[(s3 >> 24) & 0xFF] ^ _D1[(s2 >> 16) & 0xFF]
                  ^ _D2[(s1 >> 8) & 0xFF] ^ _D3[s0 & 0xFF] ^ rk[k + 3])
            s0, s1, s2, s3 = t0, t1, t2, t3
            k += 4
        o0 = ((_INV_SBOX[(s0 >> 24) & 0xFF] << 24) | (_INV_SBOX[(s3 >> 16) & 0xFF] << 16)
              | (_INV_SBOX[(s2 >> 8) & 0xFF] << 8) | _INV_SBOX[s1 & 0xFF]) ^ rk[k]
        o1 = ((_INV_SBOX[(s1 >> 24) & 0xFF] << 24) | (_INV_SBOX[(s0 >> 16) & 0xFF] << 16)
              | (_INV_SBOX[(s3 >> 8) & 0xFF] << 8) | _INV_SBOX[s2 & 0xFF]) ^ rk[k + 1]
        o2 = ((_INV_SBOX[(s2 >> 24) & 0xFF] << 24) | (_INV_SBOX[(s1 >> 16) & 0xFF] << 16)
              | (_INV_SBOX[(s0 >> 8) & 0xFF] << 8) | _INV_SBOX[s3 & 0xFF]) ^ rk[k + 2]
        o3 = ((_INV_SBOX[(s3 >> 24) & 0xFF] << 24) | (_INV_SBOX[(s2 >> 16) & 0xFF] << 16)
              | (_INV_SBOX[(s1 >> 8) & 0xFF] << 8) | _INV_SBOX[s0 & 0xFF]) ^ rk[k + 3]
        return struct.pack(">4I", o0 & _MASK32, o1 & _MASK32, o2 & _MASK32, o3 & _MASK32)
