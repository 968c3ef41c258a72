"""Univariate core: squarefree tests, pole orders, gcd, interpolation."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from parahiggs import poly
from parahiggs.higgs import CharData
from parahiggs.poly import (
    RationalFunction,
    UniPoly,
    _int_gcd,
    _int_mul,
    _int_poly_mul_add,
    _int_prs_gcd,
    fraction_json,
    int_fraction_from_json,
    interpolate_int_range,
    is_squarefree,
    poly_gcd,
    rational_roots,
    root_multiplicity,
)

P = UniPoly.make
RF = RationalFunction.make


BIG = st.builds(lambda n, sign: sign * n, st.integers(2**63, 2**80), st.sampled_from((1, -1)))


def small_polys(max_deg=4, min_deg=0, lo=-4, hi=4):
    return (
        st.lists(st.integers(lo, hi), min_size=min_deg + 1, max_size=max_deg + 1)
        .map(P)
        .filter(lambda p: not p.is_zero)
    )


class TestUniPolyBasics:
    def test_normalization_strips_trailing_zeros(self):
        assert P([1, 2, 0, 0]) == P([1, 2])
        assert P([0, 0]).is_zero
        assert P([]).degree == -1

    def test_ring_ops(self):
        p, q = P([1, 1]), P([-1, 1])  # 1+t, -1+t
        assert p * q == P([-1, 0, 1])
        assert p * 0 == P([]) and 3 * p == P([3, 3])
        assert p ** 3 == P([1, 3, 3, 1])

    def test_divmod(self):
        num = P([-1, 0, 0, 1])  # t^3 - 1
        quo, rem = num.divmod(P([-1, 1]))
        assert quo == P([1, 1, 1])
        assert rem.is_zero

    def test_eval_and_derivative(self):
        p = P([2, 0, 3])  # 2 + 3t^2
        assert poly._hom_eval([2, 0, 3], 1, 2) == 11  # 2^2 * p(1/2), p(1/2) = 11/4
        assert p.derivative() == P([0, 6])


class TestGcd:
    def test_known_gcd(self):
        a = P([-1, 1]) * P([2, 1]) * P([2, 1])
        b = P([2, 1]) * P([0, 1])
        assert poly_gcd(a, b) == P([2, 1])

    @given(small_polys(3), small_polys(3), small_polys(2))
    @settings(max_examples=60, deadline=None)
    def test_gcd_divides_both(self, a, b, c):
        a, b = a * c, b * c
        g = poly_gcd(a, b)
        assert a.divmod(g)[1].is_zero
        assert b.divmod(g)[1].is_zero
        # the planted factor divides the gcd
        assert g.divmod(poly_gcd(g, c))[1].is_zero


    @given(st.lists(st.lists(BIG, min_size=1, max_size=7), min_size=3, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_heuristic_gcd_matches_prs(self, polys):
        """GCDHEU equals the primitive PRS on products with a planted common
        factor, every input coefficient of 64 bits or more."""
        a, b, c = polys
        prod_a, prod_b = [], []
        _int_poly_mul_add(prod_a, a, c)
        _int_poly_mul_add(prod_b, b, c)
        g = _int_gcd(prod_a, prod_b)
        assert g == _int_prs_gcd(prod_a, prod_b)
        assert len(g) >= len(c)

    def test_prs_fallback(self, monkeypatch):
        monkeypatch.setattr(poly, "_HEU_STEPS", 0)
        a = [-2, -1, 2, 1]  # (t + 1)(t - 1)(t + 2)
        assert poly._int_gcd(a, [2, 3, 1]) == [2, 3, 1]  # (t + 1)(t + 2)
        assert poly._int_gcd(a, [6, 2]) == [1]


class TestRationalRoots:
    def test_cubic(self):
        p = P([0, -1, 0, 1])  # t(t-1)(t+1)
        assert rational_roots(p) == [(Q(-1), 1), (Q(0), 1), (Q(1), 1)]

    def test_multiplicity_and_fractions(self):
        p = P([-1, 2]) ** 2 * P([0, 1]) ** 3  # (2t-1)^2 t^3
        assert rational_roots(p) == [(Q(0), 3), (Q(1, 2), 2)]

    def test_no_rational_roots(self):
        assert rational_roots(P([2, 0, 1])) == []  # t^2 + 2

    def test_root_multiplicity(self):
        p = P([-1, 1]) ** 3 * P([5, 1]) * P([-1, 2]) ** 2
        ints = [int(c) for c in p.coeffs]
        assert root_multiplicity(ints, 1) == 3
        assert root_multiplicity(ints, 2) == 0
        assert root_multiplicity(ints, Q(1, 2)) == 2
        with pytest.raises(ValueError, match="zero"):
            root_multiplicity([], 0)


class TestInterpolate:
    def test_recovers_poly(self):
        assert interpolate_int_range([3, 2, 19, 72]) == [3, -4, 0, 3]  # 3 - 4t + 3t^3
        assert interpolate_int_range([5, 5, 5]) == [5]
        assert interpolate_int_range([0, 0]) == []
        # 1 + t(t-1)(t-2)/6 takes integer values at integer nodes but is not in Z[t]
        with pytest.raises(ArithmeticError, match="not in Z"):
            interpolate_int_range([1, 1, 1, 2])

    @given(small_polys(4))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, p):
        ints = [int(c) for c in p.coeffs]
        got = interpolate_int_range([poly._hom_eval(ints, x, 1) for x in range(p.degree + 1)])
        assert got == ints


class TestRationalFunction:
    def test_reduction_and_monic_den(self):
        f = RF(P([0, 2]), P([0, 0, 4]))  # 2t / 4t^2 = (1/2)/t
        assert f.num == P([Q(1, 2)])
        assert f.den == P([0, 1])

    def test_pole_orders(self):
        # (t+1)/t^2 at 0 -> 2, as s_2 = e_2 / Delta^2 with e_2 = t + 1, Delta = t
        assert CharData(((), (1, 1)), (0, 1)).pole_order(2, Q(0)) == 2
        # t^2/t at 0 -> -1 (a zero of order 1)
        assert CharData(((0, 0, 1),), (0, 1)).pole_order(1, Q(0)) == -1
        # 1/(t^2-1) at 1 -> 1
        assert CharData(((1,),), (-1, 0, 1)).pole_order(1, Q(1)) == 1
        # (2t - 1)/(3 (2t - 1))^2 at 1/2 -> 1, over Delta = 6t - 3 of content 3
        assert CharData(((), (-1, 2)), (-3, 6)).pole_order(2, Q(1, 2)) == 1
        # zero section: regular everywhere
        assert CharData(((),), (0, 1)).pole_order(1, Q(0)) is None

    @given(small_polys(3), small_polys(3), small_polys(3), small_polys(3))
    @settings(max_examples=60, deadline=None)
    def test_pole_order_additive(self, a, b, c, d):
        # the pole order of (a/b) * (c/d), read off the product numerator and
        # denominator, is the sum of the pole orders of a/b and c/d
        def ints(p):
            return tuple(int(x) for x in p.coeffs)

        def order(num, den):
            return CharData((ints(num),), ints(den)).pole_order(1, Q(0))

        assert order(a * c, b * d) == order(a, b) + order(c, d)

    @pytest.mark.parametrize("text", [
        "0", "7", "-7", "0005", "-0", "1.5", "-3/6", "+3", " 7 ", "1e3", "1_000", "-.5",
        "3/-6", "--5", "-", "", "1/0", "0x10", "\u0663", "\u00b2", "1 / 2",
    ])
    def test_coefficients_parse_as_fractions_do(self, text):
        # the entry parse takes exactly the strings q_from_str takes, with the same values
        try:
            want = (Q(text), None)
        except (ValueError, ZeroDivisionError) as exc:
            want = (None, (type(exc), str(exc)))
        entry = {"num": [text], "den": ["1"]}
        try:
            n, delta = int_fraction_from_json(entry)
            got = (Q(n[0], delta[0]) if n else Q(0), None)
        except (ValueError, ZeroDivisionError) as exc:
            got = (None, (type(exc), str(exc)))
        assert got == want

    def test_json_roundtrip(self):
        num, den = [2, -1], [0, 0, 6]  # (1 - t/2) / (3t^2)
        entry = fraction_json(num, den)
        assert entry == {"num": ["1/3", "-1/6"], "den": ["0", "0", "1"]}
        assert RationalFunction.from_ints(*int_fraction_from_json(entry)) == RationalFunction.from_ints(num, den)

    @given(small_polys(3), small_polys(3), small_polys(2), st.integers(-6, 6).filter(bool))
    @settings(max_examples=80, deadline=None)
    def test_writer_prints_the_reduced_function(self, num, den, common, scale):
        # the integer writer prints the coefficients of the reduced function
        num, den, common = ([int(c) for c in p.coeffs] for p in (num, den, common))
        num, den = _int_mul(num, common), _int_mul(den, common)
        num = [scale * c for c in num]
        rf = RationalFunction.from_ints(num, den)
        want = {"num": [str(c) for c in rf.num.coeffs], "den": [str(c) for c in rf.den.coeffs]}
        assert fraction_json(num, den) == want
