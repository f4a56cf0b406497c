"""The modified Tate pairing on E: y² = x³ + 1, via Miller's algorithm.

``modified_pairing(curve, A, B, q)`` is the symmetric pairing
Boneh-Franklin uses, ê(A, B) = t(A, φ(B)): the reduced Tate pairing
f_{q,A}(Q)^((p²−1)/q) at Q = φ(B) = (ζ·x_B, y_B), for A of prime order q
in E(F_p) and B ∈ E(F_p).

Everything runs on ints.  T = k·A stays in Jacobian coordinates over F_p
for the whole Miller loop.  Each tangent, chord and vertical is
evaluated at Q as an ``(a, b)`` pair standing for a + b·i, already
multiplied by the F_p denominator its Jacobian form carries: the final
exponentiation contains the factor p − 1, which sends every element of
F_p* to 1, so those factors — and the lines' signs — drop out and the
value is bit-identical to the affine computation.  The verticals cannot
be dropped the same way, because x_Q = ζ·x_B is not in F_p; they go
into a second accumulator.  The last step, (q − 1)·A + A, is the
vertical chord x − x_A, taken exactly.

The final exponentiation splits (p² − 1)/q = (p − 1)·((p + 1)/q).  With
f = num/den and Frobenius acting as conjugation (p ≡ 3 mod 4),
f^(p−1) = conj(f)/f = conj(g)²/N(g) for g = num·conj(den), N(g) ∈ F_p:
the combine and the quotient share one inversion per pairing, and the
rest is a (p + 1)/q power.
"""

from __future__ import annotations

from repro.crypto import numbers
from repro.crypto.ibe.curve import CurveGroup, Point, coords
from repro.crypto.ibe.fp2 import Fp2, pow_pair
from repro.errors import CryptoError

__all__ = ["modified_pairing"]

_WRONG_ORDER = "first pairing argument does not have the given order"


def modified_pairing(curve: CurveGroup, a: Point, b: Point, order: int) -> Fp2:
    """Symmetric pairing ê(A, B) = t(A, φ(B)) for A, B ∈ E(F_p)[q].

    Returns Fp2 zero when φ(B) lies on one of the Miller lines
    (probability ~1/q for random inputs; callers re-randomize), and
    raises ``CryptoError`` when A does not have order ``order``.
    """
    p = curve.p
    pa, pb = coords(a), coords(b)
    if pa is None or pb is None:
        return Fp2.one(p)
    xp, yp = pa
    x_b, yq = pb
    # x_Q = ζ·x_B = xa + xb·i; y_Q = y_B ∈ F_p.
    xa, xb = curve.zeta.a * x_b % p, curve.zeta.b * x_b % p
    dx, dy = xa - xp, yq - yp  # the chord lines' constant offsets
    na, nb = 1, 0  # Miller numerator (lines)
    da, db = 1, 0  # Miller denominator (verticals)
    X, Y, Z = xp, yp, 1
    bits = bin(order)[3:]  # skip the leading 1
    last = len(bits) - 1
    for step, bit in enumerate(bits):
        # Tangent at T, times Z'·Z² (Z' = 2YZ): M·(x_Q·Z² − X) − y_Q·Z'·Z² + 2Y².
        ZZ = Z * Z % p
        YY = Y * Y % p
        M = 3 * X * X % p
        Z2 = 2 * Y * Z % p
        la = (M * (xa * ZZ - X) - yq * Z2 * ZZ + 2 * YY) % p
        lb = M * xb * ZZ % p
        # T ← 2T.
        S = 4 * X * YY % p
        X = (M * M - 2 * S) % p
        Y = (M * (S - X) - 8 * YY * YY) % p
        Z = Z2
        if not Z:
            raise CryptoError(_WRONG_ORDER)
        # Vertical at 2T, times Z²: x_Q·Z² − X.
        ZZ = Z * Z % p
        va, vb = (xa * ZZ - X) % p, xb * ZZ % p
        # num ← num²·l, den ← den²·v.
        sa, sb = (na + nb) * (na - nb) % p, 2 * na * nb % p
        na, nb = (sa * la - sb * lb) % p, (sa * lb + sb * la) % p
        sa, sb = (da + db) * (da - db) % p, 2 * da * db % p
        da, db = (sa * va - sb * vb) % p, (sa * vb + sb * va) % p
        if bit == "0":
            continue
        # T + A: H = x_A·Z² − X, R = y_A·Z³ − Y.
        H = (xp * ZZ - X) % p
        R = (yp * ZZ * Z - Y) % p
        if step == last:
            if H or not R:
                raise CryptoError(_WRONG_ORDER)
            # T = −A: the chord is the vertical x − x_A; T + A = ∞.
            na, nb = (na * dx - nb * xb) % p, (na * xb + nb * dx) % p
            break
        if not H:
            raise CryptoError(_WRONG_ORDER)
        # Chord through T and A, times Z' = Z·H: R·(x_Q − x_A) − Z'·(y_Q − y_A).
        HH = H * H % p
        HHH = H * HH % p
        V = X * HH % p
        X = (R * R - HHH - 2 * V) % p
        Y = (R * (V - X) - Y * HHH) % p
        Z = Z * H % p
        la, lb = (R * dx - Z * dy) % p, R * xb % p
        # Vertical at T + A, times Z²: x_Q·Z² − X.
        ZZ = Z * Z % p
        va, vb = (xa * ZZ - X) % p, xb * ZZ % p
        na, nb = (na * la - nb * lb) % p, (na * lb + nb * la) % p
        da, db = (da * va - db * vb) % p, (da * vb + db * va) % p
    # g = num·conj(den); f^(p−1) = conj(g)² / (g·conj(g)).
    ga, gb = (na * da + nb * db) % p, (nb * da - na * db) % p
    if not (ga or gb):
        return Fp2.zero(p)
    inv = numbers.invmod(ga * ga + gb * gb, p)
    ha, hb = (ga + gb) * (ga - gb) * inv % p, -2 * ga * gb * inv % p
    return Fp2(*pow_pair(ha, hb, (p + 1) // order, p), p)
