"""Boneh-Franklin identity-based encryption (BasicIdent, hybrid mode).

The property Keypad leverages (§3.4 of the paper): the *encryptor*
needs only the public system parameters and an arbitrary identity
string — here the file's ``directoryID/filename`` path joined with its
audit ID — while the *decryption key* for that identity can only be
produced by the Private Key Generator (the metadata service) holding
the master secret.  A thief therefore cannot unlock an IBE-locked file
without presenting the correct, up-to-date path to the audit service.

BasicIdent is used as a KEM: the pairing value keys an AEAD that seals
the actual payload (the file's wrapped data key), giving integrity on
top of the textbook scheme.

Encryption works on its fixed arguments.  ê(Q_ID, P_pub) is computed
as t(P_pub, φ(P0))^(h·(h mod q)) from H1's raw point P0 = point_from_y(y)
with P_pub's Miller lines precomputed once per ``IbePublic``, so Q_ID =
h·P0 is never formed, and U = r·P comes from a window table of the
generator's multiples built once per ``BfParams``.  ``IbePublic`` caches
g_ID per identity string; neither that cache nor the lines nor the
table hold secret material — g_ID is computable by anyone from public
values.  The PKG side (``extract``, ``decrypt``) pairs a private key
with a ciphertext point and keeps the general ``modified_pairing``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.crypto.aead import NONCE_LEN, AesCtrHmacAead
from repro.crypto.drbg import HmacDrbg
from repro.crypto.ibe.curve import Point, coords
from repro.crypto.ibe.fp2 import Fp2
from repro.crypto.ibe.pairing import MillerLines, modified_pairing
from repro.crypto.ibe.params import SMALL, BfParams, get_params
from repro.crypto.sha256 import sha256_fast
from repro.errors import CryptoError

__all__ = ["IbeCiphertext", "IbePrivateKey", "PrivateKeyGenerator", "IbePublic"]


@dataclass(frozen=True)
class IbePrivateKey:
    """d_ID = s·Q_ID — extractable only by the PKG."""

    identity: bytes
    point: Point


@dataclass(frozen=True)
class IbeCiphertext:
    """(U, sealed): U = rP plus the AEAD-sealed payload."""

    u_x: int  # U's affine coordinates over F_p (b-components are zero)
    u_y: int
    sealed: bytes

    def size_bytes(self, params: BfParams) -> int:
        coord = (params.p.bit_length() + 7) // 8
        return 2 * coord + len(self.sealed)


def _h1_candidates(params: BfParams, identity: bytes) -> Iterator[Point]:
    """H1's raw points P0 = point_from_y(y), one per counter value."""
    p, curve = params.p, params.curve
    for counter in itertools.count():
        digest = b""
        material = b"H1|" + identity + b"|" + counter.to_bytes(4, "big")
        while len(digest) * 8 < p.bit_length() + 128:
            digest += sha256_fast(material + len(digest).to_bytes(4, "big"))
        yield curve.point_from_y(int.from_bytes(digest, "big") % p)


def _hash_to_point(params: BfParams, identity: bytes) -> Point:
    """H1: identity → E(F_p)[q], via y-coordinate hashing + cofactor:
    the first candidate with h·P0 ≠ ∞ (a retry has probability ~1/q)."""
    for raw in _h1_candidates(params, identity):
        candidate = params.curve.multiply(raw, params.cofactor)
        if not candidate.infinity:
            return candidate


def _kdf_from_gt(value: Fp2, salt: bytes) -> bytes:
    """H2: pairing value → 32-byte AEAD key."""
    return sha256_fast(b"H2|" + salt + b"|" + value.to_bytes())


def _ciphertext_point(params: BfParams, u_x: int, u_y: int) -> Point:
    """U from a ciphertext's ints, refused unless it has order q.

    A point of small order — (0, ±1) has order 3, (p − 1, 0) order 2 —
    pairs to 1 with every private key, so a ciphertext built on one
    would open under H2(1) for any identity without the PKG.  (The int
    pair cannot encode ∞.)
    """
    curve = params.curve
    u = curve.point(u_x, u_y)
    if not curve.contains(u):
        raise CryptoError("ciphertext point not on curve")
    if not curve.multiply(u, params.q).infinity:
        raise CryptoError("ciphertext point not in the order-q subgroup")
    return u


def _pairing(params: BfParams, a: Point, b: Point) -> Fp2:
    """ê(A, B), refused when degenerate (0 or 1)."""
    value = modified_pairing(params.curve, a, b, params.q)
    if value.is_zero() or value.is_one():
        raise CryptoError("degenerate pairing value")
    return value


def _folded_pairing(params: BfParams, lines: MillerLines, raw: Point) -> Optional[Fp2]:
    """ê(h·P0, P_pub) from H1's raw point P0, without forming h·P0.

    ê(h·P0, P_pub) = t(P_pub, φ(h·P0)) = t(P_pub, φ(P0))^h by symmetry
    and linearity in the second argument, and t(P_pub, φ(P0))^h has
    order q, so the final exponent (p + 1)/q = h becomes h·(h mod q).
    ``None`` means h·P0 = ∞ — H1 moves to the next counter: the value 1
    (E(F_p) is cyclic, so h·P0 ≠ ∞ has order q and pairs to a value
    ≠ 1), and x0 = 0, whose points have order 3, which divides h.  Fp2
    zero means φ(P0) met a line; the caller composes the pairing the
    long way.
    """
    x0, y0 = coords(raw)
    if not x0:
        return None
    h = params.cofactor
    value = lines.power(x0, y0, h * (h % params.q))
    return None if value.is_one() else value


class IbePublic:
    """The public side: system params + PKG public key; can encrypt.

    Caches the per-identity pairing g_ID = ê(Q_ID, P_pub): Keypad
    re-encrypts to the same identities (paths) frequently, so the cache
    turns most encryptions into one fixed-base r·P plus one F_p²
    exponentiation.  A miss evaluates P_pub's Miller lines — built on
    the first miss, once per ``IbePublic`` — at H1's raw point and folds
    the cofactor into the final exponent, so Q_ID is never formed (see
    ``_folded_pairing``).  Nothing here is keyed by secret bytes: the
    lines belong to P_pub and the r·P table (on ``BfParams``) to P.
    """

    def __init__(self, params: BfParams, public_point: Point, seed: bytes = b"ibe-enc"):
        self.params = params
        self.public_point = public_point
        self._drbg = HmacDrbg(seed, b"ibe-ephemeral")
        self._gid_cache: dict[bytes, Fp2] = {}
        self._lines: Optional[MillerLines] = None

    def _g_id(self, identity: bytes) -> Fp2:
        g = self._gid_cache.get(identity)
        if g is None:
            g = self._pair_identity(identity)
            self._gid_cache[identity] = g
        return g

    def _pair_identity(self, identity: bytes) -> Fp2:
        params = self.params
        if self._lines is None:
            self._lines = MillerLines(params.curve, self.public_point, params.q)
        for raw in _h1_candidates(params, identity):
            value = _folded_pairing(params, self._lines, raw)
            if value is None:
                continue
            if value.is_zero():
                return _pairing(params, _hash_to_point(params, identity),
                                self.public_point)
            return value

    def encrypt(self, identity: bytes, plaintext: bytes) -> IbeCiphertext:
        params = self.params
        r = 1 + self._drbg.randint_below(params.q - 1)
        u = params.generator_table.multiply(r)
        shared = self._g_id(identity).pow(r)
        key = _kdf_from_gt(shared, identity)
        nonce = sha256_fast(b"ibe-nonce|" + u.x.to_bytes() + u.y.to_bytes())[:NONCE_LEN]
        sealed = AesCtrHmacAead(key).seal(nonce, plaintext, aad=identity)
        return IbeCiphertext(u_x=u.x.a, u_y=u.y.a, sealed=sealed)


def decrypt(
    params: BfParams, private_key: IbePrivateKey, ciphertext: IbeCiphertext
) -> bytes:
    """Unseal with d_ID; raises IntegrityError/CryptoError on mismatch."""
    u = _ciphertext_point(params, ciphertext.u_x, ciphertext.u_y)
    shared = _pairing(params, private_key.point, u)
    key = _kdf_from_gt(shared, private_key.identity)
    nonce = sha256_fast(b"ibe-nonce|" + u.x.to_bytes() + u.y.to_bytes())[:NONCE_LEN]
    return AesCtrHmacAead(key).open(nonce, ciphertext.sealed, aad=private_key.identity)


class PrivateKeyGenerator:
    """The PKG: holds the master secret, extracts identity keys.

    In Keypad the *metadata service* runs the PKG; Extract happens only
    after the service has durably logged the identity string (the file
    path + audit ID), which is exactly what forces a thief to reveal
    correct metadata.
    """

    def __init__(self, params_name: str = SMALL, master_seed: bytes = b"pkg-master"):
        self.params = get_params(params_name)
        drbg = HmacDrbg(master_seed, b"ibe-master-secret")
        self._master = 1 + drbg.randint_below(self.params.q - 1)
        self.public_point = self.params.curve.multiply(
            self.params.generator, self._master
        )
        self._qid_cache: dict[bytes, Point] = {}

    def public(self, seed: bytes = b"ibe-enc") -> IbePublic:
        return IbePublic(self.params, self.public_point, seed=seed)

    def extract(self, identity: bytes) -> IbePrivateKey:
        q_id = self._qid_cache.get(identity)
        if q_id is None:
            q_id = _hash_to_point(self.params, identity)
            self._qid_cache[identity] = q_id
        return IbePrivateKey(
            identity=identity,
            point=self.params.curve.multiply(q_id, self._master),
        )
