"""HMAC-SHA256 from scratch (RFC 2104 / FIPS 198-1).

Used for message authentication on Keypad's encrypted RPC channel, for
the encrypt-then-MAC AEAD suites, and as the PRF inside PBKDF2, HKDF,
and the HMAC-DRBG.

Two implementations live here:

* :func:`hmac_sha256_reference` — the straight-line RFC 2104
  transcription (per-byte pad XORs, two full hash passes).  It is the
  byte-exactness oracle the test suite checks the fast path against.
* :func:`hmac_sha256` — the production hot path.  A single Apache-
  compile arm calls HMAC ~19k times, overwhelmingly with repeated keys
  (the channel MAC key, the per-suite AEAD sub-keys), so it caches the
  ipad/opad-derived *hash states* per key and resumes them with
  ``hashlib``'s cheap ``copy()``; the pad XORs use ``bytes.translate``
  instead of a per-byte generator expression.  Short-lived secrets keep
  their states on their owner instead (``hmac_states`` /
  ``hmac_with_states``), so they die with it.
"""

from __future__ import annotations

import hashlib
from hmac import compare_digest

from repro.crypto.sha256 import sha256_fast

__all__ = [
    "hmac_sha256",
    "hmac_sha256_reference",
    "hmac_states",
    "hmac_with_states",
    "constant_time_equal",
]

_BLOCK = 64
_IPAD = bytes(0x36 for _ in range(_BLOCK))
_OPAD = bytes(0x5C for _ in range(_BLOCK))

# 256-byte translation tables: byte b -> b ^ pad, applied with the C-level
# bytes.translate instead of a per-byte generator expression.
_IPAD_TRANS = bytes(b ^ 0x36 for b in range(256))
_OPAD_TRANS = bytes(b ^ 0x5C for b in range(256))

# key -> (inner, outer) hashlib states pre-fed with the padded key blocks.
# Bounded so pathological many-key workloads cannot grow it without limit;
# on overflow the whole cache resets (the next calls simply re-derive).
# Only long-lived keys belong here: a secret whose lifetime the paper
# bounds (K_R and everything derived from it lives for Texp) holds its
# own states from ``hmac_states`` and MACs with ``hmac_with_states``.
_MAX_CACHED_KEYS = 512
_state_cache: dict[bytes, tuple] = {}


def hmac_states(key: bytes) -> tuple:
    """The (inner, outer) SHA-256 states for ``key``, not cached."""
    block_key = sha256_fast(key) if len(key) > _BLOCK else key
    padded = block_key.ljust(_BLOCK, b"\x00")
    return (hashlib.sha256(padded.translate(_IPAD_TRANS)),
            hashlib.sha256(padded.translate(_OPAD_TRANS)))


def _key_states(key: bytes) -> tuple:
    """The (inner, outer) SHA-256 states for ``key``, cached per key."""
    states = _state_cache.get(key)
    if states is None:
        if len(_state_cache) >= _MAX_CACHED_KEYS:
            _state_cache.clear()
        states = _state_cache[key] = hmac_states(key)
    return states


def hmac_with_states(states: tuple, message: bytes) -> bytes:
    """HMAC-SHA256 of ``message`` under the key ``states`` came from."""
    inner_proto, outer_proto = states
    inner = inner_proto.copy()
    inner.update(message)
    outer = outer_proto.copy()
    outer.update(inner.digest())
    return outer.digest()


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """Compute HMAC-SHA256(key, message) (fast path; byte-identical to
    :func:`hmac_sha256_reference`).  ``hmac_with_states`` inlined: this
    is the hottest call in the package."""
    inner_proto, outer_proto = _key_states(bytes(key))
    inner = inner_proto.copy()
    inner.update(message)
    outer = outer_proto.copy()
    outer.update(inner.digest())
    return outer.digest()


def hmac_sha256_reference(key: bytes, message: bytes) -> bytes:
    """The straight RFC 2104 construction (oracle for the fast path)."""
    if len(key) > _BLOCK:
        key = sha256_fast(key)
    key = key.ljust(_BLOCK, b"\x00")
    inner_key = bytes(k ^ p for k, p in zip(key, _IPAD))
    outer_key = bytes(k ^ p for k, p in zip(key, _OPAD))
    return sha256_fast(outer_key + sha256_fast(inner_key + message))


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Compare MACs without early exit: ``hmac.compare_digest``, the C
    comparison whose running time does not depend on where the inputs
    differ.  Tag comparisons in this package always go through here."""
    return compare_digest(a, b)
