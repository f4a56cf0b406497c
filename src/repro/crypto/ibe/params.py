"""Boneh-Franklin parameter sets.

Parameters are derived deterministically from a fixed DRBG seed, so
every installation reproduces the identical groups without shipping
magic constants.  Three sizes:

* ``TOY``     — 64-bit q / 160-bit p.  Fast; used by the performance
  simulations, where IBE *latency* is charged from the cost model and
  only protocol correctness matters.
* ``SMALL``   — 160-bit q / 512-bit p.  Default for security tests;
  comparable to the Stanford IBE library's 2002-era defaults.
* ``STANDARD``— 160-bit q / 1024-bit p.  The parameterization the
  paper's prototype would have used.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from repro.crypto.drbg import HmacDrbg
from repro.crypto.ibe.curve import CurveGroup, FixedBase, Point
from repro.crypto.numbers import find_bf_prime, generate_prime

__all__ = ["BfParams", "get_params", "TOY", "SMALL", "STANDARD"]

TOY = "TOY"
SMALL = "SMALL"
STANDARD = "STANDARD"

_SIZES = {TOY: (64, 160), SMALL: (160, 512), STANDARD: (160, 1024)}


@dataclass(frozen=True)
class BfParams:
    """Public system parameters: the curve, its subgroup, a generator."""

    name: str
    p: int
    q: int
    curve: CurveGroup
    generator: Point

    @property
    def cofactor(self) -> int:
        return (self.p + 1) // self.q

    @cached_property
    def generator_table(self) -> FixedBase:
        """r·P for 0 < r < q by table look-ups; built on first use."""
        return FixedBase(self.curve, self.generator, self.q)


@lru_cache(maxsize=None)
def get_params(name: str = SMALL) -> BfParams:
    """Derive (deterministically) the named parameter set."""
    if name not in _SIZES:
        raise ValueError(f"unknown IBE parameter set {name!r}; "
                         f"choose from {sorted(_SIZES)}")
    q_bits, p_bits = _SIZES[name]
    drbg = HmacDrbg(b"keypad-repro-ibe-params", name.encode())
    q = generate_prime(q_bits, drbg)
    p = find_bf_prime(q, p_bits, drbg)
    curve = CurveGroup(p)
    generator = _find_generator(curve, p, q, drbg)
    return BfParams(name=name, p=p, q=q, curve=curve, generator=generator)


def _find_generator(curve: CurveGroup, p: int, q: int, drbg: HmacDrbg) -> Point:
    cofactor = (p + 1) // q
    while True:
        y = drbg.randint_below(p)
        candidate = curve.multiply(curve.point_from_y(y), cofactor)
        if not candidate.infinity:
            assert curve.multiply(candidate, q).infinity, "generator order check"
            return candidate
