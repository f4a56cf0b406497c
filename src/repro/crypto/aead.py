"""Authenticated encryption (encrypt-then-MAC) suites.

Two interchangeable suites sit behind one interface:

* :class:`AesCtrHmacAead` — AES-256-CTR + HMAC-SHA256, built on the
  from-scratch AES.  Used for everything security-critical and small:
  file headers, wrapped data keys, RPC payloads.
* :class:`StreamHmacAead` — a SHA-256-based CTR keystream + HMAC-SHA256.
  Much faster in pure Python; used for bulk file *content* in long
  simulations, where millions of bytes flow through the encrypted FS.

Both derive independent encryption and MAC sub-keys from the caller's
key via HKDF (one extract, two expands), and authenticate
``aad || nonce || ciphertext``.  Neither sub-key nor the PRK enters the
module HMAC cache: the caller's key is often K_R, which must not
outlive its ``Texp``, so everything derived from it lives on the AEAD
object.
"""

from __future__ import annotations

import hashlib
import struct

from repro.crypto.aes import AES
from repro.crypto.hmac import constant_time_equal, hmac_states, hmac_with_states
from repro.crypto.kdf import hkdf_expand, hkdf_extract
from repro.crypto.kernels import xor_bytes, xor_bytes_reference
from repro.crypto.modes import ctr_transform
from repro.errors import IntegrityError

__all__ = ["Aead", "AesCtrHmacAead", "StreamHmacAead", "TAG_LEN", "NONCE_LEN"]

TAG_LEN = 32
NONCE_LEN = 16


class Aead:
    """Interface: construct with a key, then seal/open with nonces."""

    name = "aead"

    def __init__(self, key: bytes):
        if len(key) != 32:
            raise ValueError("AEAD key must be 32 bytes")
        prk = hkdf_extract(b"", key)
        label = self.name.encode()
        self._enc_key = hkdf_expand(prk, label + b"|enc", 32)
        # The MAC key's HMAC states live (and die) with this object.
        self._mac_states = hmac_states(hkdf_expand(prk, label + b"|mac", 32))

    @staticmethod
    def sealed_len(plaintext_len: int) -> int:
        """Exactly ``len(seal(nonce, plaintext))`` for a plaintext of the
        given length (CTR modes never pad) — lets transports charge wire
        sizes without running the cipher."""
        return plaintext_len + TAG_LEN

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate; returns ciphertext || 32-byte tag."""
        if len(nonce) != NONCE_LEN:
            raise ValueError(f"nonce must be {NONCE_LEN} bytes")
        ciphertext = self._transform(nonce, plaintext)
        tag = self._mac(nonce, ciphertext, aad)
        return ciphertext + tag

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        """Verify and decrypt; raises :class:`IntegrityError` on tamper."""
        if len(nonce) != NONCE_LEN:
            raise ValueError(f"nonce must be {NONCE_LEN} bytes")
        if len(sealed) < TAG_LEN:
            raise IntegrityError("sealed blob shorter than the MAC tag")
        ciphertext, tag = sealed[:-TAG_LEN], sealed[-TAG_LEN:]
        expected = self._mac(nonce, ciphertext, aad)
        if not constant_time_equal(tag, expected):
            raise IntegrityError("authentication tag mismatch")
        return self._transform(nonce, ciphertext)

    def _mac(self, nonce: bytes, ciphertext: bytes, aad: bytes) -> bytes:
        header = struct.pack(">QQ", len(aad), len(ciphertext))
        return hmac_with_states(self._mac_states, header + aad + nonce + ciphertext)


class AesCtrHmacAead(Aead):
    """AES-256-CTR + HMAC-SHA256 (reference-grade)."""

    name = "aes256-ctr-hmac"

    def __init__(self, key: bytes):
        super().__init__(key)
        self._aes = AES(self._enc_key)

    def _transform(self, nonce: bytes, data: bytes) -> bytes:
        return ctr_transform(self._aes, nonce, data)


class StreamHmacAead(Aead):
    """SHA-256 CTR-keystream + HMAC-SHA256 (fast bulk path).

    Keystream block ``i`` is ``SHA256(enc_key || nonce || i)``; security
    reduces to SHA-256 behaving as a PRF under a secret prefix key,
    which is the same assumption HMAC-DRBG makes.
    """

    name = "sha256-stream-hmac"

    def __init__(self, key: bytes):
        super().__init__(key)
        # SHA-256 state pre-fed with the 32-byte enc key; each keystream
        # block resumes a cheap copy() instead of re-hashing the prefix.
        self._stream_base = hashlib.sha256(self._enc_key)

    #: counter suffixes for typical message sizes (RPC payloads are a
    #: few hundred bytes), precomputed once instead of struct.pack'd on
    #: every keystream block of every seal/open.
    _CTR_SUFFIX = [i.to_bytes(8, "big") for i in range(256)]

    def _transform(self, nonce: bytes, data: bytes) -> bytes:
        if not data:
            return b""
        base = self._stream_base.copy()
        base.update(nonce)
        n_blocks = -(-len(data) // 32)
        copy = base.copy
        suffixes = self._CTR_SUFFIX
        if n_blocks > len(suffixes):
            pack = struct.pack
            suffixes = [pack(">Q", i) for i in range(n_blocks)]
        blocks = []
        append = blocks.append
        for ctr in suffixes[:n_blocks]:
            h = copy()
            h.update(ctr)
            append(h.digest())
        return xor_bytes(data, b"".join(blocks))

    def _transform_reference(self, nonce: bytes, data: bytes) -> bytes:
        """The original per-byte transform (oracle for ``_transform``)."""
        if not data:
            return b""
        prefix = self._enc_key + nonce
        n_blocks = -(-len(data) // 32)
        stream = b"".join(
            hashlib.sha256(prefix + struct.pack(">Q", i)).digest()
            for i in range(n_blocks)
        )
        return xor_bytes_reference(data, stream)
