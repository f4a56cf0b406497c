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

``MillerLines`` is the same loop for a first argument that does not
change — IBE encryption pairs every identity with P_pub.  It runs A's
loop once, in affine form, and keeps each step's slope, offset and
landing point; a pairing then only evaluates those lines at φ(B), with
numerator and denominator in one accumulator, and takes the same
one-inversion final exponentiation.  Its exponent is the caller's, so
``boneh_franklin`` can fold H1's cofactor into it.
"""

from __future__ import annotations

from repro.crypto import numbers
from repro.crypto.ibe.curve import CurveGroup, Point, coords
from repro.crypto.ibe.fp2 import Fp2, pow_pair
from repro.errors import CryptoError

__all__ = ["modified_pairing", "MillerLines"]

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
    # g = num·conj(den) ∝ num/den.
    g = (na * da + nb * db) % p, (nb * da - na * db) % p
    return _final_power(g, (p + 1) // order, p)


def _final_power(g: tuple[int, int], exponent: int, p: int) -> Fp2:
    """g^((p−1)·exponent) as ``Fp2``, or Fp2 zero when g = 0.

    g^(p−1) = conj(g)/g = conj(g)²/(g·conj(g)): one inversion, in F_p.
    """
    ga, gb = g
    if not (ga or gb):
        return Fp2.zero(p)
    inv = numbers.invmod(ga * ga + gb * gb, p)
    ha, hb = (ga + gb) * (ga - gb) * inv % p, -2 * ga * gb * inv % p
    return Fp2(*pow_pair(ha, hb, exponent, p), p)


class MillerLines:
    """t(A, φ(·)) for one fixed A of prime order q, its Miller loop run once.

    The loop over A does not depend on the second argument, so every
    tangent and chord is computed once here, in affine form — the slope
    λ, the offset c of y = λx + c, and the point (x', y') the step lands
    on, whose vertical x − x' divides it out.  ``power`` then only
    evaluates those lines at φ(B) = (ζ·x_B, y_B).  Numerator and
    denominator share one accumulator: dividing by a vertical v is
    multiplying by conj(v)/N(v), and N(v) ∈ F_p* dies in the final
    exponentiation.  For l = y − λx − c and v = x − x' at φ(B),
    l·conj(v) = (y_B − c − λ·x_a)(x_a − x') − λ·x_b² − x_b·(y_B + y')·i,
    with ζ·x_B = x_a + x_b·i and y' = λ(x − x') − y the landing point's
    y.  Building the table refuses an A whose order is not ``order``.
    """

    def __init__(self, curve: CurveGroup, a: Point, order: int):
        pa = coords(a)
        if pa is None:
            raise CryptoError(_WRONG_ORDER)
        p = curve.p
        xp, yp = pa
        steps = []  # (square first?, λ, c, x', y')
        x, y = xp, yp
        bits = bin(order)[3:]  # skip the leading 1
        last = len(bits) - 1
        for step, bit in enumerate(bits):
            if not y:  # T of order 2: 2T = ∞
                raise CryptoError(_WRONG_ORDER)
            lam = 3 * x * x * numbers.invmod(2 * y, p) % p
            x2 = (lam * lam - 2 * x) % p
            y2 = (lam * (x - x2) - y) % p
            steps.append((True, lam, (y - lam * x) % p, x2, y2))
            x, y = x2, y2
            if bit == "0":
                continue
            if step == last:
                if x != xp or y == yp:
                    raise CryptoError(_WRONG_ORDER)
                break  # T = −A: the chord is the vertical x − x_A
            if x == xp:
                raise CryptoError(_WRONG_ORDER)
            lam = (y - yp) * numbers.invmod(x - xp, p) % p
            x2 = (lam * lam - x - xp) % p
            y2 = (lam * (x - x2) - y) % p
            steps.append((False, lam, (y - lam * x) % p, x2, y2))
            x, y = x2, y2
        else:
            raise CryptoError(_WRONG_ORDER)  # an even order never closes
        self._p = p
        self._xp = xp
        self._zeta = curve.zeta.a, curve.zeta.b
        self._steps = steps

    def power(self, x_b: int, y_b: int, exponent: int) -> Fp2:
        """f_{q,A}(φ(B))^((p−1)·exponent) for B = (x_b, y_b) ∈ E(F_p).

        With ``exponent`` = (p + 1)/q this is ``modified_pairing(A, B)``.
        Fp2 zero when φ(B) lies on one of the lines.
        """
        p = self._p
        za, zb = self._zeta
        xa, xb = za * x_b % p, zb * x_b % p
        xbb = xb * xb % p
        ga, gb = 1, 0
        for square, lam, c, x2, y2 in self._steps:
            if square:
                ga, gb = (ga + gb) * (ga - gb) % p, 2 * ga * gb % p
            fa = ((y_b - c - lam * xa) * (xa - x2) - lam * xbb) % p
            fb = -xb * (y_b + y2) % p
            ga, gb = (ga * fa - gb * fb) % p, (ga * fb + gb * fa) % p
        # The last chord, the vertical x − x_A (no vertical after it).
        dx = xa - self._xp
        g = (ga * dx - gb * xb) % p, (ga * xb + gb * dx) % p
        return _final_power(g, exponent, p)
