"""FullIdent: the CCA-secure Boneh-Franklin variant.

BasicIdent (what the prototype needs) is only CPA-secure; Boneh and
Franklin harden it with the Fujisaki-Okamoto transform.  We implement
FullIdent as an *extension* — a drop-in for deployments that cannot
rule out chosen-ciphertext access to the unlock oracle:

    Encrypt(ID, m):  σ ←$ {0,1}^n
                     r  = H3(σ, m)            (mod q)
                     U  = r·P
                     V  = σ ⊕ H2(ê(Q_ID, P_pub)^r)
                     W  = m ⊕ H4(σ)
    Decrypt(d_ID, (U,V,W)):
                     σ  = V ⊕ H2(ê(d_ID, U))
                     m  = W ⊕ H4(σ)
                     r  = H3(σ, m); reject unless U = r·P

The re-encryption check makes decryption reject any mauled ciphertext,
which is exactly what the transform buys over BasicIdent.  A U outside
the order-q subgroup is refused before the pairing, as in BasicIdent.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.ibe.boneh_franklin import (
    IbePrivateKey,
    IbePublic,
    _ciphertext_point,
    _pairing,
)
from repro.crypto.ibe.curve import Point
from repro.crypto.ibe.fp2 import Fp2
from repro.crypto.ibe.params import BfParams
from repro.crypto.kernels import xor_bytes
from repro.crypto.sha256 import sha256_fast
from repro.errors import CryptoError

__all__ = ["FullIdentCiphertext", "FullIdentPublic", "fullident_decrypt"]

_SIGMA_LEN = 32


@dataclass(frozen=True)
class FullIdentCiphertext:
    u_x: int
    u_y: int
    v: bytes          # σ ⊕ H2(g^r)
    w: bytes          # m ⊕ H4(σ), same length as m


def _h2(value: Fp2) -> bytes:
    return sha256_fast(b"FI-H2|" + value.to_bytes())


def _h3(params: BfParams, sigma: bytes, message: bytes) -> int:
    digest = b""
    counter = 0
    while len(digest) * 8 < params.q.bit_length() + 128:
        digest += sha256_fast(
            b"FI-H3|" + sigma + b"|" + message + counter.to_bytes(4, "big")
        )
        counter += 1
    return 1 + int.from_bytes(digest, "big") % (params.q - 1)


def _h4_stream(sigma: bytes, length: int) -> bytes:
    out = b""
    counter = 0
    while len(out) < length:
        out += sha256_fast(b"FI-H4|" + sigma + counter.to_bytes(4, "big"))
        counter += 1
    return out[:length]


class FullIdentPublic(IbePublic):
    """Encryption side of FullIdent (reuses BasicIdent's g_ID cache)."""

    def encrypt_fullident(
        self, identity: bytes, message: bytes
    ) -> FullIdentCiphertext:
        params = self.params
        sigma = self._drbg.generate(_SIGMA_LEN)
        r = _h3(params, sigma, message)
        u = params.generator_table.multiply(r)
        shared = self._g_id(identity).pow(r)
        v = xor_bytes(sigma, _h2(shared))
        w = xor_bytes(message, _h4_stream(sigma, len(message)))
        return FullIdentCiphertext(u_x=u.x.a, u_y=u.y.a, v=v, w=w)


def fullident_decrypt(
    params: BfParams,
    private_key: IbePrivateKey,
    ciphertext: FullIdentCiphertext,
) -> bytes:
    """Decrypt and verify; raises CryptoError on any tampering."""
    u = _ciphertext_point(params, ciphertext.u_x, ciphertext.u_y)
    if len(ciphertext.v) != _SIGMA_LEN:
        raise CryptoError("FullIdent: malformed V component")
    shared = _pairing(params, private_key.point, u)
    sigma = xor_bytes(ciphertext.v, _h2(shared))
    message = xor_bytes(ciphertext.w, _h4_stream(sigma, len(ciphertext.w)))
    # Fujisaki-Okamoto re-encryption check.
    r = _h3(params, sigma, message)
    expected_u = params.curve.multiply(params.generator, r)
    if expected_u != u:
        raise CryptoError("FullIdent: re-encryption check failed")
    return message


def make_fullident_public(
    params: BfParams, public_point: Point, seed: bytes = b"fullident"
) -> FullIdentPublic:
    return FullIdentPublic(params, public_point, seed=seed)
