"""The supersingular curve E: y² = x³ + 1 over F_p (p ≡ 2 mod 3).

For such p the curve is supersingular with #E(F_p) = p + 1, and the map
x ↦ x³ is a bijection on F_p, giving a clean hash-to-point: pick y from
the hash, solve x = (y² − 1)^{1/3}, then clear the cofactor.

``Point`` carries F_p² coordinates so one type holds both E(F_p) points
(b-components zero) and the distorted points φ(P) in E(F_p²); it is the
boundary type callers build from wire ints.  The group law itself runs
on E(F_p) only, on plain ints: ``add``/``double`` are affine with one
inversion, ``multiply`` works in Jacobian coordinates (x = X/Z²,
y = Y/Z³) and inverts once, to return to affine.  A point with a
non-zero b-component is refused.  The distortion map is φ(x, y) = (ζ·x, y)
with ζ a primitive cube root of unity in F_p² \\ F_p; the pairing
evaluates it inline rather than through ``distort``.  ``FixedBase``
multiplies one fixed point by table look-ups and additions only (IBE
encryption's r·P).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.crypto import numbers
from repro.crypto.ibe.fp2 import Fp2
from repro.crypto.numbers import cbrt_mod, sqrt_mod

__all__ = ["Point", "CurveGroup", "FixedBase", "coords"]


@dataclass(frozen=True)
class Point:
    """Affine point on E(F_p²), or the point at infinity (x = y = None)."""

    x: Optional[Fp2]
    y: Optional[Fp2]

    @property
    def infinity(self) -> bool:
        return self.x is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.infinity:
            return "Point(∞)"
        return f"Point({self.x!r}, {self.y!r})"


_INFINITY = Point(None, None)


def coords(pt: Point) -> Optional[tuple[int, int]]:
    """(x, y) of an E(F_p) point as ints, or None for ∞.

    Raises ``ValueError`` for a point with an F_p² coordinate: the group
    law and the pairing's first argument live on E(F_p).
    """
    if pt.x is None:
        return None
    if pt.x.b or pt.y.b:
        raise ValueError("not a point of E(F_p): coordinate has an F_p² component")
    return pt.x.a, pt.y.a


class CurveGroup:
    """Group law, scalar multiplication, hashing, and the distortion map."""

    def __init__(self, p: int):
        if p % 3 != 2 or p % 4 != 3:
            raise ValueError("supersingular construction requires p ≡ 11 (mod 12)")
        self.p = p
        # ζ = (−1 + √−3)/2 in F_p²: since p ≡ 2 (mod 3), −3 is a
        # non-residue mod p, and √−3 = √3 · i with i² = −1 when 3 is a
        # residue... rather than case-split we solve ζ² + ζ + 1 = 0
        # directly: ζ = (−1 + s)/2 where s² = −3 in F_p².
        self.zeta = self._cube_root_of_unity()
        self.infinity = _INFINITY

    def _cube_root_of_unity(self) -> Fp2:
        p = self.p
        # s² = −3.  If −3 is a QR mod p it would put ζ in F_p,
        # contradicting p ≡ 2 (mod 3); so −3 is a non-residue and
        # s = i·√3 if 3 is a QR, else s = √(−3) has no F_p rep and we
        # use s = t·i with t² = 3 ... both cases reduce to: find u with
        # u² = 3 (mod p) if it exists, then s = u·i; otherwise −3 ≡ i²·3
        # fails and we find v with v² = −3·(−1) = 3 — identical.  Hence:
        u = sqrt_mod(3 % p, p)  # 3 is a QR mod p when p ≡ 11 (mod 12)
        inv2 = (p + 1) // 2  # 1/2 mod p
        zeta = Fp2(-1, u, p).scale(inv2)
        assert (zeta * zeta + zeta + Fp2.one(p)).is_zero(), "bad cube root of unity"
        return zeta

    def point(self, x: int, y: int) -> Point:
        """The E(F_p) point (x, y) in the ``Point`` boundary type."""
        p = self.p
        return Point(Fp2(x, 0, p), Fp2(y, 0, p))

    # -- membership ------------------------------------------------------------
    def contains(self, pt: Point) -> bool:
        if pt.infinity:
            return True
        lhs = pt.y.square()
        rhs = pt.x.square() * pt.x + Fp2.one(self.p)
        return lhs == rhs

    # -- group law (E(F_p), ints) ---------------------------------------------------
    def add(self, p1: Point, p2: Point) -> Point:
        c1, c2 = coords(p1), coords(p2)
        if c1 is None:
            return p2
        if c2 is None:
            return p1
        p = self.p
        (x1, y1), (x2, y2) = c1, c2
        if x1 == x2:
            if y1 != y2 or not y1:
                return _INFINITY  # P + (−P), or 2·P for P of order 2
            slope = 3 * x1 * x1 * numbers.invmod(2 * y1, p)  # a = 0
        else:
            slope = (y2 - y1) * numbers.invmod(x2 - x1, p)
        x3 = (slope * slope - x1 - x2) % p
        return self.point(x3, slope * (x1 - x3) - y1)

    def double(self, pt: Point) -> Point:
        return self.add(pt, pt)

    def negate(self, pt: Point) -> Point:
        if pt.infinity:
            return pt
        return Point(pt.x, -pt.y)

    def multiply(self, pt: Point, scalar: int) -> Point:
        """scalar·pt: left-to-right double-and-add in Jacobian coordinates
        (a = 0 doubling, mixed addition of the affine base), one inversion."""
        base = coords(pt)
        if base is None or not scalar:
            return _INFINITY
        p = self.p
        x, y = base
        if scalar < 0:
            scalar, y = -scalar, -y % p
        X, Y, Z = x, y, 1
        for bit in bin(scalar)[3:]:
            # 2T: S = 4XY², M = 3X², X' = M² − 2S, Y' = M(S − X') − 8Y⁴,
            # Z' = 2YZ (Z' = 0 when T is ∞ or of order 2).
            YY = Y * Y % p
            S = 4 * X * YY % p
            M = 3 * X * X % p
            X2 = (M * M - 2 * S) % p
            Y, Z = (M * (S - X2) - 8 * YY * YY) % p, 2 * Y * Z % p
            X = X2
            if bit == "1":
                if not Z:
                    X, Y, Z = x, y, 1
                    continue
                # T + (x, y): H = x·Z² − X, R = y·Z³ − Y.
                ZZ = Z * Z % p
                H = (x * ZZ - X) % p
                R = (y * ZZ * Z - Y) % p
                if not H:  # T = ±(x, y): the scalar exceeds the base's order
                    if R:
                        Z = 0  # T = −(x, y): the sum is ∞
                    else:
                        X, Y, Z = self._jacobian_double(x, y)
                    continue
                HH = H * H % p
                HHH = H * HH % p
                V = X * HH % p
                X = (R * R - HHH - 2 * V) % p
                Y = (R * (V - X) - Y * HHH) % p
                Z = Z * H % p
        if not Z:
            return _INFINITY
        zinv = numbers.invmod(Z, p)
        zz = zinv * zinv % p
        return self.point(X * zz, Y * zz * zinv)

    def _jacobian_double(self, x: int, y: int) -> tuple[int, int, int]:
        """2·(x, y) for an affine E(F_p) point, in Jacobian coordinates."""
        p = self.p
        yy = y * y % p
        s = 4 * x * yy % p
        m = 3 * x * x % p
        x2 = (m * m - 2 * s) % p
        return x2, (m * (s - x2) - 8 * yy * yy) % p, 2 * y % p

    # -- maps ---------------------------------------------------------------------
    def distort(self, pt: Point) -> Point:
        """φ(x, y) = (ζx, y): maps E(F_p) into E(F_p²) \\ E(F_p)."""
        if pt.infinity:
            return pt
        return Point(pt.x * self.zeta, pt.y)

    def point_from_y(self, y_int: int) -> Point:
        """The unique curve point over F_p with the given y-coordinate."""
        p = self.p
        x_int = cbrt_mod((y_int * y_int - 1) % p, p)
        return self.point(x_int, y_int)


class FixedBase:
    """k·B for one fixed B of prime order q, from a 4-bit window table.

    ``rows[i][d]`` is d·16^i·B as an affine int pair (d = 1..15), so
    k·B = Σ rows[i][k_i] over k's base-16 digits: one mixed Jacobian
    addition per non-zero digit, no doubling, and one inversion back to
    affine.  For 0 < k < q no partial sum meets ±(its addend) — two
    disjoint digit sums a, b have 0 < a + b ≤ k < q and a ≠ b — so the
    addition never degenerates.  The table holds multiples of a public
    point only.
    """

    WINDOW = 4

    def __init__(self, curve: CurveGroup, base: Point, order: int):
        self.curve = curve
        self.order = order
        self.rows: list[list[Optional[tuple[int, int]]]] = []
        start = base
        for _ in range(-(-order.bit_length() // self.WINDOW)):
            row: list[Optional[tuple[int, int]]] = [None]
            point = start
            for _ in range((1 << self.WINDOW) - 1):
                row.append(coords(point))
                point = curve.add(point, start)
            self.rows.append(row)
            start = point  # 16·start

    def multiply(self, scalar: int) -> Point:
        """scalar·B for 0 < scalar < q."""
        if not 0 < scalar < self.order:
            raise ValueError("fixed-base scalar must lie in (0, q)")
        p = self.curve.p
        mask = (1 << self.WINDOW) - 1
        X = Y = Z = 0
        for row in self.rows:
            digit = scalar & mask
            scalar >>= self.WINDOW
            if not digit:
                continue
            x, y = row[digit]
            if not Z:
                X, Y, Z = x, y, 1
                continue
            # T + (x, y): H = x·Z² − X, R = y·Z³ − Y.
            ZZ = Z * Z % p
            H = (x * ZZ - X) % p
            R = (y * ZZ * Z - Y) % p
            HH = H * H % p
            HHH = H * HH % p
            V = X * HH % p
            X = (R * R - HHH - 2 * V) % p
            Y = (R * (V - X) - Y * HHH) % p
            Z = Z * H % p
        zinv = numbers.invmod(Z, p)
        zz = zinv * zinv % p
        return self.curve.point(X * zz, Y * zz * zinv)
