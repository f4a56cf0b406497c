"""The int-based curve arithmetic and pairing against their affine oracles.

``CurveGroup.multiply`` runs in Jacobian coordinates with one inversion,
``add``/``double`` are affine on ints, and ``modified_pairing`` keeps T
in Jacobian coordinates, evaluates lines as int pairs and finishes with a
one-inversion (p − 1)·((p + 1)/q) exponentiation.  The affine ``Fp2``
code they replaced lives on in ``tests/ibe_oracle.py``.  Driven by
hypothesis, on the TOY parameters (plus a few SMALL examples):

(a) **same points** — ``multiply`` equals the oracle for the scalars
    0, 1, q − 1, q, q + 1, negative and larger than q, on subgroup
    points, on points outside the q-subgroup and on the order-2 and
    order-3 points; ``add``/``double`` equal the oracle, including ∞,
    P + (−P) and doubling;
(b) **same pairing** — ê(a·G, b·G) equals the oracle bit for bit,
    including multiples ≡ 0 (mod q) and small-order second arguments;
(c) **bilinearity** — ê(a·G, b·G) = ê(G, G)^(ab) and
    ê(A + C, B) = ê(A, B)·ê(C, B).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.ibe import SMALL, TOY, get_params
from repro.crypto.ibe.pairing import modified_pairing
from tests import ibe_oracle

TOY_PARAMS = get_params(TOY)
Q = TOY_PARAMS.q

special_scalars = st.sampled_from(
    [0, 1, 2, 3, Q - 1, Q, Q + 1, 2 * Q, 2 * Q + 1, -1, -Q, -(Q + 1),
     TOY_PARAMS.cofactor, TOY_PARAMS.p + 1]
)
scalars = st.one_of(
    special_scalars,
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.integers(min_value=-(2 ** 200), max_value=2 ** 200),
)
multiples = st.one_of(
    st.sampled_from([0, 1, 2, Q - 1, Q, Q + 1]),
    st.integers(min_value=0, max_value=2 ** 80),
)


def _base_point(params, kind: str, seed: int):
    """A finite E(F_p) point: a subgroup point, a point of full order
    p + 1 (or a divisor), or one of the order-2 / order-3 points."""
    curve, p = params.curve, params.p
    if kind == "subgroup":
        return curve.multiply(params.generator, 1 + seed % (params.q - 1))
    if kind == "any":
        return curve.point_from_y(seed % p)
    if kind == "order2":
        return curve.point(p - 1, 0)
    return curve.point(0, 1 if seed % 2 else p - 1)  # order 3


points = st.tuples(
    st.sampled_from(["subgroup", "any", "order2", "order3"]),
    st.integers(min_value=0, max_value=2 ** 160),
)


class TestScalarMultiplication:
    @given(points, scalars)
    @settings(max_examples=120, deadline=None)
    def test_multiply_matches_oracle(self, spec, k):
        params = TOY_PARAMS
        pt = _base_point(params, *spec)
        assert params.curve.multiply(pt, k) == ibe_oracle.multiply(
            params.curve, pt, k)

    @given(st.integers(min_value=-(2 ** 170), max_value=2 ** 170))
    @settings(max_examples=5, deadline=None)
    def test_multiply_matches_oracle_small_params(self, k):
        params = get_params(SMALL)
        g = params.generator
        assert params.curve.multiply(g, k) == ibe_oracle.multiply(
            params.curve, g, k)

    @pytest.mark.parametrize("kind", ["order2", "order3", "any"])
    def test_every_small_scalar(self, kind):
        """Small scalars on small-order points reach every special case
        of the Jacobian loop: T = ∞, T = −P and T = P before an addition."""
        params = TOY_PARAMS
        for seed in (1, 2):
            pt = _base_point(params, kind, seed)
            for k in range(-9, 10):
                assert params.curve.multiply(pt, k) == ibe_oracle.multiply(
                    params.curve, pt, k)

    def test_infinity_times_anything(self):
        curve = TOY_PARAMS.curve
        for k in (0, 1, Q, -5):
            assert curve.multiply(curve.infinity, k).infinity


class TestGroupLaw:
    @given(points, points)
    @settings(max_examples=80, deadline=None)
    def test_add_matches_oracle(self, spec1, spec2):
        params = TOY_PARAMS
        curve = params.curve
        a, b = _base_point(params, *spec1), _base_point(params, *spec2)
        assert curve.add(a, b) == ibe_oracle.add(curve, a, b)
        assert curve.double(a) == ibe_oracle.double(curve, a)

    @given(points)
    @settings(max_examples=40, deadline=None)
    def test_infinity_inverse_and_doubling(self, spec):
        params = TOY_PARAMS
        curve = params.curve
        a = _base_point(params, *spec)
        assert curve.add(a, curve.infinity) == a
        assert curve.add(curve.infinity, a) == a
        assert curve.add(a, curve.negate(a)).infinity
        assert curve.add(a, a) == curve.double(a) == ibe_oracle.double(curve, a)
        assert curve.double(curve.infinity).infinity

    def test_fp2_points_refused(self):
        curve = TOY_PARAMS.curve
        phi = curve.distort(TOY_PARAMS.generator)
        for op in (lambda: curve.multiply(phi, 3),
                   lambda: curve.add(phi, TOY_PARAMS.generator),
                   lambda: curve.double(phi)):
            with pytest.raises(ValueError):
                op()


class TestPairing:
    @given(multiples, multiples)
    @settings(max_examples=40, deadline=None)
    def test_pairing_matches_oracle(self, a, b):
        params = TOY_PARAMS
        curve, g = params.curve, params.generator
        pa, pb = curve.multiply(g, a), curve.multiply(g, b)
        assert modified_pairing(curve, pa, pb, Q) == ibe_oracle.modified_pairing(
            curve, pa, pb, Q)

    @given(st.integers(min_value=1, max_value=2 ** 64), points)
    @settings(max_examples=30, deadline=None)
    def test_pairing_with_any_second_argument(self, a, spec):
        params = TOY_PARAMS
        curve = params.curve
        pa = curve.multiply(params.generator, a)
        b = _base_point(params, *spec)
        assert modified_pairing(curve, pa, b, Q) == ibe_oracle.modified_pairing(
            curve, pa, b, Q)

    @given(st.integers(min_value=1, max_value=2 ** 160),
           st.integers(min_value=1, max_value=2 ** 160))
    @settings(max_examples=3, deadline=None)
    def test_pairing_matches_oracle_small_params(self, a, b):
        params = get_params(SMALL)
        curve, g, q = params.curve, params.generator, params.q
        pa, pb = curve.multiply(g, a), curve.multiply(g, b)
        assert modified_pairing(curve, pa, pb, q) == ibe_oracle.modified_pairing(
            curve, pa, pb, q)

    @given(multiples, multiples, multiples)
    @settings(max_examples=25, deadline=None)
    def test_bilinearity(self, a, b, c):
        params = TOY_PARAMS
        curve, g = params.curve, params.generator
        e_gg = modified_pairing(curve, g, g, Q)
        pa, pb, pc = (curve.multiply(g, k) for k in (a, b, c))
        e_ab = modified_pairing(curve, pa, pb, Q)
        assert e_ab == e_gg.pow(a * b)
        assert modified_pairing(curve, curve.add(pa, pc), pb, Q) == (
            e_ab * modified_pairing(curve, pc, pb, Q))

    def test_first_argument_of_wrong_order_refused(self):
        from repro.errors import CryptoError

        params = TOY_PARAMS
        curve = params.curve
        for bad in (curve.point(0, 1), curve.point(params.p - 1, 0),
                    curve.point_from_y(12345)):
            with pytest.raises(CryptoError):
                modified_pairing(curve, bad, params.generator, Q)
