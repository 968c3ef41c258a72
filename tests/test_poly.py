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
    _int_pow,
    _int_prs_gcd,
    _int_pseudo_rem,
    _int_trim,
    _q_pair,
    _split_at,
    fraction_writer,
    int_fraction_from_json,
    _hom_eval,
    interpolate_int_range,
    is_squarefree,
    poly_gcd,
    rational_roots,
    root_multiplicity,
)

P = UniPoly.make
RF = RationalFunction.make


def assert_pseudo_remainder(a, b):
    """`_int_pseudo_rem(a, b)` is lc(b)^(deg a - deg b + 1) a mod b, and a
    itself when deg a < deg b, with the remainder taken by `UniPoly.divmod`."""
    k = max(len(a) - len(b) + 1, 0)
    want = (P(a) * b[-1] ** k).divmod(P(b))[1]
    got = _int_pseudo_rem(a, b)
    assert all(type(c) is int for c in got)
    assert P(got) == want


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

    @given(small_polys(3, 1), small_polys(3, 1), small_polys(2, 1))
    @settings(max_examples=100, deadline=None)
    def test_prs_matches_heuristic_gcd_on_small_inputs(self, a, b, c):
        # the PRS fallback itself, on products with a planted common factor c
        a, b, c = ([int(x) for x in p.coeffs] for p in (a, b, c))
        prod_a, prod_b = _int_mul(a, c), _int_mul(b, c)
        g = _int_prs_gcd(prod_a, prod_b)
        assert g == _int_gcd(prod_a, prod_b)
        assert P(g).divmod(P(c))[1].is_zero

    @given(small_polys(6), small_polys(3, 1))
    @settings(max_examples=150, deadline=None)
    def test_pseudo_remainder(self, a, b):
        assert_pseudo_remainder([int(x) for x in a.coeffs], [int(x) for x in b.coeffs])

    @given(small_polys(3), small_polys(3, 2).filter(lambda p: p.degree >= 2), st.data())
    @settings(max_examples=100, deadline=None)
    def test_pseudo_remainder_after_a_cancelling_step(self, q, b, data):
        # a = q * b + r with deg r <= deg b - 2: after the first step the
        # leading terms cancel by more than one degree
        b = [int(x) for x in b.coeffs]
        r = data.draw(st.lists(st.integers(-4, 4), max_size=len(b) - 2))
        a = _int_mul([int(x) for x in q.coeffs], b)
        _int_poly_mul_add(a, r, [1])
        assert_pseudo_remainder(_int_trim(a), b)

    @pytest.mark.parametrize("a,b", [
        # after the first step the next top coefficient is already zero
        ([1, 0, 0, 1], [1, 0, 1]),  # t^3 + 1 = t (t^2 + 1) + 1 - t
        ([3, 2, 0, 0, 2], [1, 0, 2]),  # 2t^4 + 2t + 3 = (t^2 - 1/2)(2t^2 + 1) + 2t + 7/2
        ([5, 0, 0, 0, 3], [0, 0, 0, 7]),  # 3t^4 + 5 over 7t^3: the remainder drops to degree 0
        ([1, 1], [2, 0, 3]),  # deg a < deg b: a itself
        ([], [2, 1]),
    ])
    def test_pseudo_remainder_examples(self, a, b):
        assert_pseudo_remainder(a, b)

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

    @pytest.mark.parametrize("ys", [[0, 0, 1, 3], [0, 0, 1]])
    def test_inexact_top_level(self, ys):
        # C(t, 2) = t(t-1)/2: level 2 of the differences, [1, 1] or [1], is
        # its top nonzero level and is not divisible by 2
        with pytest.raises(ArithmeticError, match="not in Z"):
            interpolate_int_range(ys)

    @given(small_polys(4))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, p):
        ints = [int(c) for c in p.coeffs]
        got = interpolate_int_range([poly._hom_eval(ints, x, 1) for x in range(p.degree + 1)])
        assert got == ints

    @given(st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=81))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_high_degree(self, coeffs):
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        ys = [sum(c * x**k for k, c in enumerate(coeffs)) for x in range(max(len(coeffs), 1))]
        assert interpolate_int_range(ys) == coeffs


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
        " 3 ", "3 /5", "3/ 5", "3/0", "1/2/3", "\u22123", "\t-4\n", "1__0", "_1", "+-3",
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
        entry = fraction_writer(den, ())(num)
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
        assert fraction_writer(den, ())(num) == want


def reduced_json(num, den):
    """The JSON entry of num / den by the general gcd route: the coefficients
    of `RationalFunction.from_ints`, whose denominator is monic."""
    rf = RationalFunction.from_ints(num, den)
    return {"num": [str(c) for c in rf.num.coeffs], "den": [str(c) for c in rf.den.coeffs]}


MARKED = (Q(0), Q(1), Q(-1), Q(1, 2), Q(-2, 3), Q(3, 2))
# the part R of Delta off the marked points: none, a linear factor, and two
# irreducible quadratics
OFF_D = ([1], [-5, 3], [1, 0, 1], [3, 1, 2])
nonzero_ints = st.integers(-6, 6).filter(bool)


def linear(a):
    """b t - a' for the point a = a' / b."""
    return [-a.numerator, a.denominator]


@st.composite
def marked_denominators(draw):
    """(points, Delta, R) with Delta = c * prod (b_k t - a_k)^(v_k) * R over
    0..3 points, each v_k in 0..3; so Delta may be constant."""
    points = draw(st.lists(st.sampled_from(MARKED), max_size=3, unique=True))
    rest = draw(st.sampled_from(OFF_D))
    delta = _int_mul([draw(nonzero_ints)], rest)
    orders = []
    for a in points:
        orders.append(draw(st.integers(0, 3)))
        delta = _int_mul(delta, _int_pow(linear(a), orders[-1]))
    return points, orders, delta, rest


@st.composite
def numerators(draw, points, orders, rest, i):
    """Zero, a constant, or a small polynomial times factors planted at the
    points, up to one more than the order i * v_k of Delta^i there, and
    maybe times a power of R."""
    kind = draw(st.sampled_from(("zero", "constant", "planted")))
    if kind == "zero":
        return []
    if kind == "constant":
        return [draw(nonzero_ints)]
    p = [int(c) for c in draw(small_polys(2)).coeffs]
    for a, v in zip(points, orders):
        p = _int_mul(p, _int_pow(linear(a), draw(st.integers(0, i * v + 1))))
    return _int_mul(p, _int_pow(rest, draw(st.integers(0, 2))))


class TestSplitAt:
    """`_split_at` is the split delta = prod (b_k t - a_k)^(v_k) * rest at the
    marked points, with v_k = ord delta there."""

    @given(marked_denominators())
    @settings(max_examples=200, deadline=None)
    def test_split(self, drawn):
        points, planted, delta, _ = drawn
        orders, rest = _split_at(delta, points)
        assert orders == planted == [root_multiplicity(delta, a) for a in points]
        assert all(_hom_eval(list(rest), a.numerator, a.denominator) for a in points)
        product = list(rest)
        for a, v in zip(points, orders):
            product = _int_mul(product, _int_pow(linear(a), v))
        assert product == list(delta)

    def test_examples(self):
        # (2t - 1)^2 (3t + 2) (t^2 + 1) * 5 at 1/2, -2/3, 0 and 3/2
        delta = _int_mul([5], _int_mul(_int_pow([-1, 2], 2), _int_mul([2, 3], [1, 0, 1])))
        assert _split_at(delta, [Q(1, 2), Q(-2, 3), Q(0), Q(3, 2)]) == ([2, 1, 0, 0], [5, 0, 5])
        assert _split_at((7,), [Q(1, 2)]) == ([0], (7,))
        assert _split_at([0, 1], []) == ([], [0, 1])


class TestFractionWriter:
    """`fraction_writer` prints p / Delta^i as the general gcd route does,
    dividing out the factors of Delta at the marked points by evaluation."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_gcd_route(self, data):
        points, orders, delta, rest = data.draw(marked_denominators())
        write = fraction_writer(delta, points)
        for _ in range(3):  # one writer for several fractions, as for a matrix
            i = data.draw(st.integers(1, 4))
            p = data.draw(numerators(points, orders, rest, i))
            assert write(p, i) == reduced_json(p, _int_pow(delta, i))

    def test_constant_delta(self):
        write = fraction_writer([6], [Q(0), Q(1, 2)])
        assert write([]) == write([], 3) == {"num": [], "den": ["1"]}
        assert write([4]) == {"num": ["2/3"], "den": ["1"]}
        assert write([0, 9], 2) == {"num": ["0", "1/4"], "den": ["1"]}

    def test_strip_is_capped_at_the_order_of_the_denominator(self):
        # t^7 / (t^2 (2t - 1))^2 = t^3 / (2t - 1)^2 and t (2t - 1)^3 / Delta^2
        delta = [0, 0, -1, 2]
        write = fraction_writer(delta, [Q(0), Q(1, 2)])
        assert write([0] * 7 + [1], 2) == {"num": ["0", "0", "0", "1/4"], "den": ["1/4", "-1", "1"]}
        assert write(_int_mul([0, 1], _int_pow([-1, 2], 3)), 2) == {"num": ["-1", "2"], "den": ["0", "0", "0", "1"]}

    @pytest.mark.parametrize("rest,gcd_calls", [([1], 0), ([7], 0), ([1, 0, 1], 2)])
    def test_general_gcd_only_off_the_marked_points(self, rest, gcd_calls, monkeypatch):
        # Delta = t^2 (2t - 1) R: the general gcd runs only when R is not constant
        delta = _int_mul([0, 0, -1, 2], rest)
        fractions = [([0, 0, 5, 5], 1), (_int_mul([1, 1], rest), 2)]
        want = [reduced_json(p, _int_pow(delta, i)) for p, i in fractions]
        calls = []
        monkeypatch.setattr(poly, "_int_gcd", lambda a, b: calls.append(1) or _int_gcd(a, b))
        write = fraction_writer(delta, [Q(0), Q(1, 2)])
        assert [write(p, i) for p, i in fractions] == want
        assert len(calls) == gcd_calls


def fraction_or_error(text):
    try:
        return Q(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


class TestCoefficientReader:
    """`_q_pair` reads a coefficient string as `Fraction` does: the same value
    or the same exception type."""

    @staticmethod
    def read(text):
        try:
            p, q = _q_pair(text)
        except (ValueError, ZeroDivisionError) as exc:
            return type(exc)
        assert q > 0
        return Q(p, q)

    @given(st.text(st.sampled_from("0123456789+-_/ .e\t\u0663\u2212x"), max_size=7))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_fraction(self, text):
        assert self.read(text) == fraction_or_error(text)
