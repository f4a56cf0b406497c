"""Arithmetic in F_p² = F_p[i]/(i² + 1), for primes p ≡ 3 (mod 4).

The Boneh-Franklin pairing takes values in F_p², and the distortion map
moves curve points into E(F_p²).  Elements are immutable ``a + b·i``
pairs of integers modulo p.  ``Fp2`` is the boundary type (pairing
values, H2 input, point coordinates); the pairing and ``pow`` run their
inner loops on bare ``(a, b)`` int pairs through ``pow_pair`` and build
one ``Fp2`` for the result.
"""

from __future__ import annotations

from repro.crypto import numbers

__all__ = ["Fp2", "pow_pair"]


def pow_pair(a: int, b: int, exponent: int, p: int) -> tuple[int, int]:
    """(a + b·i)^exponent in F_p² for exponent ≥ 0, as an int pair."""
    if not exponent:
        return 1, 0
    ra, rb = a, b
    for bit in bin(exponent)[3:]:
        ra, rb = (ra + rb) * (ra - rb) % p, 2 * ra * rb % p
        if bit == "1":
            ra, rb = (ra * a - rb * b) % p, (ra * b + rb * a) % p
    return ra, rb


class Fp2:
    """An element a + b·i of F_p²."""

    __slots__ = ("a", "b", "p")

    def __init__(self, a: int, b: int, p: int):
        self.a = a % p
        self.b = b % p
        self.p = p

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, p: int) -> "Fp2":
        return cls(0, 0, p)

    @classmethod
    def one(cls, p: int) -> "Fp2":
        return cls(1, 0, p)

    @classmethod
    def from_int(cls, a: int, p: int) -> "Fp2":
        return cls(a, 0, p)

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_one(self) -> bool:
        return self.a == 1 and self.b == 0

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other: "Fp2") -> "Fp2":
        return Fp2(self.a + other.a, self.b + other.b, self.p)

    def __sub__(self, other: "Fp2") -> "Fp2":
        return Fp2(self.a - other.a, self.b - other.b, self.p)

    def __neg__(self) -> "Fp2":
        return Fp2(-self.a, -self.b, self.p)

    def __mul__(self, other: "Fp2") -> "Fp2":
        # (a + bi)(c + di) = (ac − bd) + (ad + bc)i  [Karatsuba form]
        p = self.p
        ac = self.a * other.a
        bd = self.b * other.b
        cross = (self.a + self.b) * (other.a + other.b) - ac - bd
        return Fp2(ac - bd, cross, p)

    def square(self) -> "Fp2":
        # (a + bi)² = (a+b)(a−b) + 2ab·i
        p = self.p
        return Fp2((self.a + self.b) * (self.a - self.b), 2 * self.a * self.b, p)

    def scale(self, k: int) -> "Fp2":
        return Fp2(self.a * k, self.b * k, self.p)

    def inverse(self) -> "Fp2":
        # 1/(a + bi) = (a − bi)/(a² + b²)
        norm = self.a * self.a + self.b * self.b
        inv = numbers.invmod(norm, self.p)
        return Fp2(self.a * inv, -self.b * inv, self.p)

    def pow(self, exponent: int) -> "Fp2":
        if exponent < 0:
            return self.inverse().pow(-exponent)
        return Fp2(*pow_pair(self.a, self.b, exponent, self.p), self.p)

    def conjugate(self) -> "Fp2":
        return Fp2(self.a, -self.b, self.p)

    # -- comparison / hashing ---------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Fp2)
            and self.p == other.p
            and self.a == other.a
            and self.b == other.b
        )

    def to_bytes(self) -> bytes:
        size = (self.p.bit_length() + 7) // 8
        return self.a.to_bytes(size, "big") + self.b.to_bytes(size, "big")
