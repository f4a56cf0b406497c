"""The IBE oracles: the affine F_p² group law and Miller loop.

``repro.crypto.ibe`` runs on plain ints: ``CurveGroup.multiply`` in
Jacobian coordinates with one inversion, ``modified_pairing`` with T in
Jacobian coordinates, lines evaluated as int pairs, and a
(p − 1)·((p + 1)/q) final exponentiation sharing one inversion.  The code
here is what they replaced — every point an affine pair of ``Fp2``
objects, one extended-Euclid inversion per group operation and per
Miller step, numerator and denominator divided once and raised to
(p² − 1)/q by plain square-and-multiply — kept so the tests can demand
the same points and the same pairing values from both.  The reduced
Tate pairing is unique, so "the same" means bit-identical.

``encrypt`` is the BasicIdent encryption ``IbePublic.encrypt`` replaced
with its fixed-argument path: H1 with its cofactor multiplication, a
full pairing ê(Q_ID, P_pub) and a variable-base r·P on every call.
"""

from __future__ import annotations

from repro.crypto.aead import NONCE_LEN, AesCtrHmacAead
from repro.crypto.ibe.boneh_franklin import (
    IbeCiphertext,
    IbePublic,
    _hash_to_point,
    _kdf_from_gt,
    _pairing,
)
from repro.crypto.ibe.curve import CurveGroup, Point
from repro.crypto.ibe.fp2 import Fp2
from repro.crypto.sha256 import sha256_fast

__all__ = [
    "invmod",
    "add",
    "double",
    "multiply",
    "tate_pairing",
    "modified_pairing",
    "encrypt",
]


def _egcd(a: int, b: int) -> tuple[int, int]:
    old_r, r = a, b
    old_x, x = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
    return old_r, old_x


def invmod(a: int, m: int) -> int:
    """Modular inverse via the extended Euclidean algorithm."""
    a %= m
    if a == 0:
        raise ZeroDivisionError("inverse of zero")
    g, x = _egcd(a, m)
    if g != 1:
        raise ValueError(f"{a} is not invertible modulo {m}")
    return x % m


def _div(num: Fp2, den: Fp2) -> Fp2:
    norm = den.a * den.a + den.b * den.b
    inv = invmod(norm, den.p)
    return num * Fp2(den.a * inv, -den.b * inv, den.p)


def _pow(x: Fp2, exponent: int) -> Fp2:
    result = Fp2.one(x.p)
    base = x
    while exponent:
        if exponent & 1:
            result = result * base
        base = base.square()
        exponent >>= 1
    return result


# -- affine group law over F_p² ----------------------------------------------------
def add(curve: CurveGroup, p1: Point, p2: Point) -> Point:
    if p1.infinity:
        return p2
    if p2.infinity:
        return p1
    if p1.x == p2.x:
        if p1.y == p2.y:
            return double(curve, p1)
        return curve.infinity  # P + (−P)
    slope = _div(p2.y - p1.y, p2.x - p1.x)
    x3 = slope.square() - p1.x - p2.x
    y3 = slope * (p1.x - x3) - p1.y
    return Point(x3, y3)


def double(curve: CurveGroup, pt: Point) -> Point:
    if pt.infinity or pt.y.is_zero():
        return curve.infinity
    # slope = 3x² / 2y  (a = 0 for y² = x³ + 1)
    slope = _div(pt.x.square().scale(3), pt.y.scale(2))
    x3 = slope.square() - pt.x - pt.x
    y3 = slope * (pt.x - x3) - pt.y
    return Point(x3, y3)


def multiply(curve: CurveGroup, pt: Point, scalar: int) -> Point:
    if scalar < 0:
        return multiply(curve, curve.negate(pt), -scalar)
    result = curve.infinity
    addend = pt
    while scalar:
        if scalar & 1:
            result = add(curve, result, addend)
        addend = double(curve, addend)
        scalar >>= 1
    return result


# -- Miller loop -------------------------------------------------------------------
def _line(
    curve: CurveGroup, t: Point, p2: Point, q_pt: Point
) -> tuple[Fp2, Fp2, Point]:
    """Evaluate the line through ``t`` and ``p2`` (tangent if equal) at
    ``q_pt``; return (numerator, denominator-contribution, t+p2).

    The denominator contribution is the vertical line through t+p2.
    """
    p = curve.p
    one = Fp2.one(p)
    if t.infinity or p2.infinity:
        # Line through infinity: the function is the vertical through
        # the finite point; sum is the finite point itself.
        finite = p2 if t.infinity else t
        if finite.infinity:
            return one, one, finite
        return q_pt.x - finite.x, one, finite

    if t.x == p2.x and t.y != p2.y:
        # Vertical chord: t + p2 = ∞; line is x − x_t, no vertical after.
        return q_pt.x - t.x, one, curve.infinity

    if t.x == p2.x:
        if t.y.is_zero():
            return q_pt.x - t.x, one, curve.infinity
        slope = _div(t.x.square().scale(3), t.y.scale(2))
    else:
        slope = _div(p2.y - t.y, p2.x - t.x)

    x3 = slope.square() - t.x - p2.x
    summed = Point(x3, slope * (t.x - x3) - t.y)
    numerator = slope * (q_pt.x - t.x) - (q_pt.y - t.y)
    return numerator, q_pt.x - summed.x, summed


def tate_pairing(curve: CurveGroup, p_pt: Point, q_pt: Point, order: int) -> Fp2:
    """Reduced Tate pairing t(P, Q) with P of prime order ``order``."""
    p = curve.p
    if p_pt.infinity or q_pt.infinity:
        return Fp2.one(p)
    f_num = Fp2.one(p)
    f_den = Fp2.one(p)
    t = p_pt
    bits = bin(order)[3:]  # skip the leading 1
    for bit in bits:
        num, den, t = _line(curve, t, t, q_pt)
        f_num = f_num.square() * num
        f_den = f_den.square() * den
        if bit == "1":
            num, den, t = _line(curve, t, p_pt, q_pt)
            f_num = f_num * num
            f_den = f_den * den
        if f_num.is_zero() or f_den.is_zero():
            # Q lies on one of the lines; signal with zero.
            return Fp2.zero(p)
    return _pow(_div(f_num, f_den), (p * p - 1) // order)


def modified_pairing(curve: CurveGroup, a: Point, b: Point, order: int) -> Fp2:
    """Symmetric pairing ê(A, B) = tate(A, φ(B)) for A, B ∈ E(F_p)[q]."""
    return tate_pairing(curve, a, curve.distort(b), order)


# -- BasicIdent encryption, composed the long way -------------------------------
def encrypt(public: IbePublic, identity: bytes, plaintext: bytes) -> IbeCiphertext:
    """``IbePublic.encrypt`` as composed before its fixed-argument path;
    draws r from ``public``'s DRBG exactly as the real one does."""
    params = public.params
    r = 1 + public._drbg.randint_below(params.q - 1)
    u = params.curve.multiply(params.generator, r)
    g_id = _pairing(params, _hash_to_point(params, identity), public.public_point)
    key = _kdf_from_gt(g_id.pow(r), identity)
    nonce = sha256_fast(b"ibe-nonce|" + u.x.to_bytes() + u.y.to_bytes())[:NONCE_LEN]
    sealed = AesCtrHmacAead(key).seal(nonce, plaintext, aad=identity)
    return IbeCiphertext(u_x=u.x.a, u_y=u.y.a, sealed=sealed)
