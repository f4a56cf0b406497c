"""Number-theoretic utilities for the IBE subsystem.

Miller-Rabin primality testing, modular inverse/square roots, and the
prime-search routine used to generate Boneh-Franklin parameter sets
(p = 12·r·q − 1 with q | p+1, p ≡ 11 (mod 12)).
"""

from __future__ import annotations

from repro.crypto.drbg import HmacDrbg

__all__ = [
    "is_probable_prime",
    "invmod",
    "sqrt_mod",
    "cbrt_mod",
    "generate_prime",
    "find_bf_prime",
]

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)


def is_probable_prime(n: int, rounds: int = 40) -> bool:
    """Miller-Rabin with deterministic witnesses first, then random ones."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def trial(a: int) -> bool:
        x = pow(a, d, n)
        if x in (1, n - 1):
            return True
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                return True
        return False

    # Deterministic witnesses cover n < 3.3e24; extra random rounds for
    # the large numbers used in IBE parameters.
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == a:
            return True
        if not trial(a):
            return False
    drbg = HmacDrbg(n.to_bytes((n.bit_length() + 7) // 8, "big"), b"mr")
    for _ in range(rounds):
        a = 2 + drbg.randint_below(n - 3)
        if not trial(a):
            return False
    return True


def invmod(a: int, m: int) -> int:
    """Modular inverse, ``pow(a, -1, m)``.

    Every field inversion in ``repro.crypto.ibe`` calls this through the
    module attribute (``numbers.invmod``), so wrapping it counts them.
    Raises ``ZeroDivisionError`` for 0 and ``ValueError`` when ``a`` and
    ``m`` share a factor.
    """
    a %= m
    if a == 0:
        raise ZeroDivisionError("inverse of zero")
    return pow(a, -1, m)


def sqrt_mod(a: int, p: int) -> int:
    """Square root modulo an odd prime (Tonelli-Shanks).

    Raises ``ValueError`` if ``a`` is a non-residue.
    """
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError("not a quadratic residue")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks general case.
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2 = t
        i = 0
        while t2 != 1:
            t2 = (t2 * t2) % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, (b * b) % p
        t, r = (t * c) % p, (r * b) % p
    return r


def cbrt_mod(a: int, p: int) -> int:
    """Cube root modulo p when p ≡ 2 (mod 3) (cubing is a bijection)."""
    if p % 3 != 2:
        raise ValueError("cbrt_mod requires p ≡ 2 (mod 3)")
    return pow(a % p, (2 * p - 1) // 3, p)


def generate_prime(bits: int, drbg: HmacDrbg) -> int:
    """A random probable prime of exactly ``bits`` bits."""
    if bits < 8:
        raise ValueError("refusing to generate primes under 8 bits")
    while True:
        candidate = drbg.randint_below(1 << (bits - 1)) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate):
            return candidate


def find_bf_prime(q: int, p_bits: int, drbg: HmacDrbg) -> int:
    """Find p = 12·r·q − 1 prime with ~``p_bits`` bits.

    Such p satisfies p ≡ 11 (mod 12): q divides p+1 (curve order), and
    p ≡ 2 (mod 3) / p ≡ 3 (mod 4) as the supersingular construction and
    the F_p² representation (i² = −1) require.
    """
    r_bits = max(p_bits - q.bit_length() - 4, 2)
    while True:
        r = drbg.randint_below(1 << r_bits) | 1
        p = 12 * r * q - 1
        if p.bit_length() < p_bits - 2:
            continue
        if is_probable_prime(p):
            return p
