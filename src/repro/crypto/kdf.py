"""Key-derivation functions: PBKDF2-HMAC-SHA256 and HKDF-SHA256.

PBKDF2 derives the EncFS *volume key* from the user's password — the
layer the paper assumes may be breached (weak passwords, sticky notes,
cold-boot attacks).  HKDF derives sub-keys (filename-encryption key,
per-block tweaks, RPC session keys) from master secrets.
"""

from __future__ import annotations

import struct

from repro.crypto.hmac import hmac_sha256, hmac_states, hmac_with_states

__all__ = ["pbkdf2_sha256", "hkdf_sha256", "hkdf_extract", "hkdf_expand"]

_HASH_LEN = 32


def pbkdf2_sha256(password: bytes, salt: bytes, iterations: int, dklen: int = 32) -> bytes:
    """PBKDF2 (RFC 2898) with HMAC-SHA256 as the PRF."""
    if iterations < 1:
        raise ValueError("PBKDF2 requires at least one iteration")
    if dklen < 1:
        raise ValueError("requested key length must be positive")
    blocks = []
    n_blocks = -(-dklen // _HASH_LEN)  # ceil
    for i in range(1, n_blocks + 1):
        u = hmac_sha256(password, salt + struct.pack(">I", i))
        acc = int.from_bytes(u, "big")
        for _ in range(iterations - 1):
            u = hmac_sha256(password, u)
            acc ^= int.from_bytes(u, "big")
        blocks.append(acc.to_bytes(_HASH_LEN, "big"))
    return b"".join(blocks)[:dklen]


def hkdf_extract(salt: bytes, ikm: bytes) -> bytes:
    """HKDF-Extract (RFC 5869): PRK = HMAC(salt, IKM)."""
    return hmac_sha256(salt or b"\x00" * _HASH_LEN, ikm)


def hkdf_expand(prk: bytes, info: bytes, length: int) -> bytes:
    """HKDF-Expand (RFC 5869).

    The PRK is a secret derived per call site, so its HMAC states are
    built here and dropped, never left in the module cache of
    ``repro.crypto.hmac``.
    """
    if length > 255 * _HASH_LEN:
        raise ValueError("HKDF-Expand output too long")
    states = hmac_states(prk)
    okm = b""
    t = b""
    counter = 1
    while len(okm) < length:
        t = hmac_with_states(states, t + info + bytes([counter]))
        okm += t
        counter += 1
    return okm[:length]


def hkdf_sha256(ikm: bytes, salt: bytes, info: bytes, length: int) -> bytes:
    """Full extract-then-expand HKDF."""
    return hkdf_expand(hkdf_extract(salt, ikm), info, length)
