"""Matrix layer: the Z[t] char coefficients, Pfaffian and determinant against
brute-force expansions over integer coefficient lists."""

import itertools
import math
import random
import time
from fractions import Fraction as Q
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from parahiggs import linalg
from parahiggs.bipoly import discriminant_x
from parahiggs.groups import GROUP_KINDS, GroupSpec
from parahiggs.higgs import HiggsField, random_strongly_parabolic_higgs
from parahiggs.curves import build_plane_curve
from parahiggs.linalg import (
    SingularMatrixError,
    berkowitz_char_poly,
    int_char_poly,
    int_det,
    int_pfaffian,
    clear_fractions,
    pfaffian_adjugate,
    entry_ints,
    zmat_inverse,
    zmat_mul,
)
from parahiggs.poly import RationalFunction, UniPoly, poly_gcd

from helpers import bareiss_det, sylvester_matrix

P = UniPoly.make
RF = RationalFunction.make


# -- oracles over ascending integer coefficient lists, [] being zero ---------


def padd(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    while out and not out[-1]:
        out.pop()
    return out


def pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def pneg(a):
    return [-x for x in a]


def perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def leibniz_det(m):
    """Permutation-sum determinant over Z[t]; independent of Bareiss."""
    n = len(m)
    acc = []
    for perm in itertools.permutations(range(n)):
        term = [perm_sign(list(perm))]
        for i in range(n):
            term = pmul(term, list(m[i][perm[i]]))
        acc = padd(acc, term)
    return acc


def naive_char_coeffs(m):
    """e_i = (-1)^i * (sum of principal i x i minors); brute-force oracle."""
    n = len(m)
    out = []
    for i in range(1, n + 1):
        acc = []
        for rows in itertools.combinations(range(n), i):
            sub = [[m[r][c] for c in rows] for r in rows]
            acc = padd(acc, leibniz_det(sub))
        out.append(tuple(acc if i % 2 == 0 else pneg(acc)))
    return out


def matching_pfaffian(m):
    """Pfaffian as signed sum over perfect matchings (via permutations)."""
    n = len(m)
    acc = []
    for perm in itertools.permutations(range(n)):
        if any(perm[2 * i] > perm[2 * i + 1] for i in range(n // 2)):
            continue
        if any(perm[2 * i] > perm[2 * i + 2] for i in range(n // 2 - 1)):
            continue
        term = [perm_sign(list(perm))]
        for i in range(n // 2):
            term = pmul(term, list(m[perm[2 * i]][perm[2 * i + 1]]))
        acc = padd(acc, term)
    return tuple(acc)


def int_matrix(rows):
    """A Z[t] matrix from rows of coefficient lists (or integers)."""
    def entry(x):
        p = [x] if isinstance(x, int) else list(x)
        while p and not p[-1]:
            p.pop()
        return tuple(p)

    return tuple(tuple(entry(x) for x in row) for row in rows)


def random_int_matrix(rng, n, max_deg=2):
    return int_matrix([[rng.randint(-3, 3) for _ in range(max_deg + 1)] for _ in range(n)] for _ in range(n))


def random_antisymmetric(rng, n, max_deg=1):
    rows = [[()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            p = int_matrix([[[rng.randint(-2, 2) for _ in range(max_deg + 1)]]])[0][0]
            rows[i][j], rows[j][i] = p, tuple(-x for x in p)
    return tuple(tuple(row) for row in rows)


def bareiss(m):
    return tuple(bareiss_det([[list(p) for p in row] for row in m]))


class TestCharPoly:
    def test_two_by_two(self):
        assert int_char_poly(int_matrix([[1, 2], [3, -1]])) == [(), (-7,)]  # x^2 - 7

    def test_zero_matrix(self):
        assert int_char_poly(int_matrix([[0] * 4 for _ in range(4)])) == [()] * 4

    def test_nilpotent_with_pole_entry(self):
        # [[0, 1/t], [0, 0]] clears to M = [[0, 1], [0, 0]] over Delta = t: char x^2
        ints, d = clear_fractions([[entry_ints(x) for x in row] for row in [[RF(0), RF(P([1]), P([0, 1]))], [RF(0), RF(0)]]])
        assert d == (0, 1)
        assert int_char_poly(ints) == [(), ()]

    def test_single_pole_entry(self):
        # [[1/t]] clears to M = [[1]] over Delta = t: x - 1/t, s_1 = e_1 / t
        ints, d = clear_fractions([[entry_ints(RF(P([1]), P([0, 1])))]])
        assert (ints, d) == ((((1,),),), (0, 1))
        assert int_char_poly(ints) == [(-1,)]

    def test_matches_leibniz_oracle(self):
        rng = random.Random(7)
        for n in (2, 3, 4):
            for _ in range(4):
                m = random_int_matrix(rng, n)
                assert int_char_poly(m) == naive_char_coeffs(m)

    @pytest.mark.parametrize("n", range(5, 10))
    def test_matches_determinant_off_the_nodes(self, n):
        # field-audit runs n <= 9, past the reach of the Leibniz oracle: at
        # points t0 off the interpolation nodes 0..2n, det(x0 I - M(t0)) must
        # be x0^n + sum e_i(t0) x0^(n-i) at n + 1 points x0, which fixes
        # every e_i(t0)
        rng = random.Random(50 + n)
        for _ in range(2):
            m = random_int_matrix(rng, n)
            e = int_char_poly(m)
            for t0 in (-3, 10**6):
                at = [[sum(c * t0**k for k, c in enumerate(p)) for p in row] for row in m]
                e_at = [sum(c * t0**k for k, c in enumerate(p)) for p in e]
                for x0 in range(-n // 2, n // 2 + 2):
                    want = x0**n + sum(c * x0 ** (n - i) for i, c in enumerate(e_at, 1))
                    shifted = [[[x0 * (i == j) - x] for j, x in enumerate(row)] for i, row in enumerate(at)]
                    assert bareiss_det(shifted) == ([want] if want else [])

    def test_berkowitz_over_fractions(self):
        # the constant kernel works over any commutative ring: over Q it
        # must match the Leibniz oracle on constant (degree-0) entries
        rng = random.Random(13)
        for n in (1, 2, 3, 4):
            for _ in range(3):
                a = [[Q(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
                want = naive_char_coeffs([[(x,) if x else () for x in row] for row in a])
                assert berkowitz_char_poly(a) == [1, *(c[0] if c else 0 for c in want)]

    def test_det(self):
        rng = random.Random(11)
        for n in (1, 2, 3, 4):
            for _ in range(3):
                m = random_int_matrix(rng, n)
                assert list(int_det(m)) == list(bareiss(m)) == leibniz_det(m)


class TestPfaffian:
    def test_convention(self):
        a = (0, 1)
        assert int_pfaffian((((), a), ((0, -1), ()))) == a

    def test_four_by_four(self):
        vals = {(0, 1): 1, (0, 2): 2, (0, 3): 3, (1, 2): 4, (1, 3): 5, (2, 3): 6}
        rows = [[0] * 4 for _ in range(4)]
        for (i, j), v in vals.items():
            rows[i][j], rows[j][i] = v, -v
        m = int_matrix(rows)
        assert int_pfaffian(m) == (1 * 6 - 2 * 5 + 3 * 4,)
        assert leibniz_det(m) == [64]

    def test_block_diagonal_multiplicative(self):
        m = int_matrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
        assert int_pfaffian(m) == (1,)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="even"):
            int_pfaffian(int_matrix([[0]]))
        with pytest.raises(ValueError, match="antisymmetric"):
            int_pfaffian(int_matrix([[0, 1], [1, 0]]))

    def test_square_is_det_random(self):
        rng = random.Random(3)
        for n in (2, 4, 6):
            for _ in range(5):
                m = random_antisymmetric(rng, n)
                pf = list(int_pfaffian(m))
                assert pmul(pf, pf) == leibniz_det(m)
                assert list(int_det(m)) == list(bareiss(m)) == leibniz_det(m)
                if n <= 4:
                    assert tuple(pf) == matching_pfaffian(m)


class TestInverseAndKernel:
    def test_inverse(self):
        # a X = X a = delta I with delta = +-det a (the Leibniz oracle), on
        # random integer matrices, with zero pivots among them
        rng = random.Random(5)
        cases = [[[0, 1], [1, 0]], [[0, 0, 2], [0, 3, 0], [1, 0, 0]]]
        cases += [[[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)] for n in (1, 2, 3, 4, 5) for _ in range(10)]
        for m in cases:
            n = len(m)
            det = leibniz_det(int_matrix(m))
            if not det:
                with pytest.raises(SingularMatrixError):
                    zmat_inverse(m)
                continue
            x, delta = zmat_inverse(m)
            assert abs(delta) == abs(det[0])
            eye = [[delta * int(i == j) for j in range(n)] for i in range(n)]
            assert zmat_mul(m, x) == eye
            assert zmat_mul(x, m) == eye

    def test_singular_detected(self):
        with pytest.raises(SingularMatrixError):
            zmat_inverse([[1, 2], [2, 4]])


# -- the clearing routine against the per-entry clearing it replaced ----------


def per_entry_clearing(grid):
    """The clearing before the one-pass routine, kept as its oracle: reduce
    each entry n / delta over Q[t] to a monic denominator, take the monic lcm
    d of the reduced denominators, and scale d * Phi and d together by the
    one positive rational that makes all their coefficients integers of
    content 1; Delta is that multiple of d."""

    def exact(a, b):
        quo, rem = a.divmod(b)
        assert rem.is_zero
        return quo

    reduced = []
    for row in grid:
        out = []
        for n, delta in row:
            num, den = P(n), P(delta)
            if num.is_zero:
                out.append((num, P([1])))
                continue
            g = poly_gcd(num, den)
            num, den = exact(num, g), exact(den, g)
            out.append((num * (1 / den.lc), den.monic()))
        reduced.append(out)
    d = P([1])
    for row in reduced:
        for _, den in row:
            d = exact(d * den, poly_gcd(d, den)).monic()
    polys = [[num * exact(d, den) for num, den in row] for row in reduced]
    coeffs = [q for row in polys for p in row for q in p.coeffs] + list(d.coeffs)
    c = math.lcm(*(q.denominator for q in coeffs))
    c = Q(c, math.gcd(*(int(q * c) for q in coeffs)))
    ints = tuple(tuple(tuple(int(q * c) for q in p.coeffs) for p in row) for row in polys)
    return ints, tuple(int(q * c) for q in d.coeffs)


def strip(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


small_int_polys = st.lists(st.integers(-5, 5), max_size=3).map(strip)
nonzero_int_polys = small_int_polys.filter(bool)


@st.composite
def unreduced_grids(draw):
    """Grids of integer pairs n / delta with a factor planted in numerator and
    denominator of some entries, a factor common to every denominator, scaled
    and sign-flipped denominators and zero entries."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    common = draw(nonzero_int_polys)
    grid = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            num, den = draw(small_int_polys), draw(nonzero_int_polys)
            planted = draw(nonzero_int_polys)
            scale = draw(st.sampled_from([1, -1, 2, -3, 6]))
            den = [scale * x for x in pmul(pmul(den, planted), common)]
            num = pmul(num, planted) if draw(st.booleans()) else num
            row.append((tuple(num), tuple(den)))
        grid.append(row)
    return grid


class TestClearFractions:
    @given(unreduced_grids())
    @example([[((2,), (2,)), ((-3,), (6,))]])  # constant denominators with a content
    @example([[((), (5,)), ((), (0, 1))]])  # zero entries only
    @example([[((0, 2), (0, 4)), ((3,), (-6, 3))], [((1, 1), (2, 2)), ((), (7,))]])
    @settings(max_examples=150, deadline=None)
    def test_matches_per_entry_clearing(self, grid):
        assert clear_fractions(grid) == per_entry_clearing(grid)

    @given(unreduced_grids())
    @settings(max_examples=40, deadline=None)
    def test_entries_match_sympy_cancel(self, grid):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")

        def expr(coeffs):
            return sum(sympy.Rational(c) * t**k for k, c in enumerate(coeffs))

        ints, d = clear_fractions(grid)
        den = expr(d)
        for row, int_row in zip(grid, ints):
            for (n, delta), m in zip(row, int_row):
                assert sympy.cancel(expr(m) / den - expr(n) / expr(delta)) == 0
                assert sympy.cancel(expr(m) / den) == sympy.cancel(expr(n) / expr(delta))

    def test_generator_denominator_with_a_non_integer_root(self):
        # 1 / (2t - 1) and t / (4t - 2) over Delta = 4t - 2: M = (2, t), and
        # the content of M and Delta together is 1
        ints, d = clear_fractions([[((1,), (-1, 2))], [((0, 1), (-2, 4))]])
        assert (ints, d) == ((((2,),), ((0, 1),)), (-2, 4))

    @given(unreduced_grids(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_pair_is_canonical(self, grid, data):
        # lc(Delta) > 0, M and Delta together have content 1, and a factor
        # planted in each entry's numerator and denominator changes nothing
        ints, d = clear_fractions(grid)
        assert d[-1] > 0
        assert math.gcd(*d, *(x for row in ints for p in row for x in p)) == 1
        planted = [data.draw(st.lists(nonzero_int_polys, min_size=len(row), max_size=len(row))) for row in grid]
        grid = [
            [(tuple(pmul(n, f)), tuple(pmul(delta, f))) for (n, delta), f in zip(row, fs)]
            for row, fs in zip(grid, planted)
        ]
        assert clear_fractions(grid) == (ints, d)

    @pytest.mark.parametrize("kind", GROUP_KINDS)
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_json_roundtrip_keeps_the_pair(self, kind, m):
        for seed, marked in enumerate([(Q(0),), (Q(0), Q(1, 2)), (Q(0), Q(1, 2), Q(-2))]):
            fld = random_strongly_parabolic_higgs(GroupSpec(kind, m), marked, seed % 3, seed)
            assert HiggsField.from_dict(fld.to_dict()).cleared == fld.cleared


# -- the two routes of _interpolated ------------------------------------------


def on_route(route, fn, *args):
    """fn(*args) with `linalg._interpolated` held to one route: "nodes" or
    "kronecker", by the size limit it compares the packed result with."""
    limit = {"nodes": -1, "kronecker": math.inf}[route]
    with mock.patch.object(linalg, "KRONECKER_MAX_BITS", limit):
        return fn(*args)


def on_both_routes(fn, *args):
    nodes, kronecker = (on_route(route, fn, *args) for route in ("nodes", "kronecker"))
    assert nodes == kronecker
    return nodes


coefficients = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))
int_polys = st.lists(coefficients, max_size=4).map(lambda p: tuple(strip(p)))


@st.composite
def square_int_matrices(draw):
    n = draw(st.integers(1, 4))
    return tuple(tuple(draw(int_polys) for _ in range(n)) for _ in range(n))


@st.composite
def antisymmetric_int_matrices(draw, sizes):
    n = draw(sizes)
    rows = [[()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            p = draw(int_polys)
            rows[i][j], rows[j][i] = p, tuple(-x for x in p)
    return tuple(tuple(row) for row in rows)


@st.composite
def bivariates(draw):
    """f over Z[t][x] of x-degree 2..4, ascending in x, whose leading
    coefficient has positive t-degree."""
    r = draw(st.integers(2, 4))
    return [list(draw(int_polys)) for _ in range(r)] + [list(draw(int_polys.filter(lambda p: len(p) > 1)))]


def oracle_discriminant(f):
    """(-1)^(r(r-1)/2) Res_x(f, f_x) / lc(f), the resultant by Bareiss over
    Z[t] (`helpers.bareiss_det`) and the division by `UniPoly.divmod`."""
    r = len(f) - 1
    f_x = [[i * c for c in p] for i, p in enumerate(f)][1:]
    quo, rem = P(bareiss_det(sylvester_matrix(f, f_x))).divmod(P(f[-1]))
    assert rem.is_zero
    return quo * (-1) ** (r * (r - 1) // 2)


class TestInterpolationRoutes:
    @given(square_int_matrices())
    @example(int_matrix([[0] * 3 for _ in range(3)]))  # zero
    @example(int_matrix([[2, -1, 0], [5, 3, -7], [0, 1, 4]]))  # constant
    @example(int_matrix([[1] * 4] * 4))  # L = 1, e_1 = -4: the n! of the bound is needed
    @example(int_matrix([[[-(2**64), 0, 2**64 + 1]]]))  # 1 x 1
    @example(int_matrix([[[1] * 51, 0], [[0] * 50 + [-3], [2, -1]]]))  # t-degree 50
    @settings(max_examples=60, deadline=None)
    def test_char_poly(self, m):
        e = on_both_routes(int_char_poly, m)
        if len(m) <= 3:
            assert e == naive_char_coeffs(m)

    @given(antisymmetric_int_matrices(st.sampled_from([2, 4, 6])))
    @example(int_matrix([[0] * 4 for _ in range(4)]))
    @example(int_matrix([[0, [-(2**65), 1]], [[2**65, -1], 0]]))
    @example(int_matrix([[0, [0] * 60 + [7]], [[0] * 60 + [-7], 0]]))
    @settings(max_examples=40, deadline=None)
    def test_pfaffian(self, m):
        pf = on_both_routes(int_pfaffian, m)
        if len(m) <= 4:
            assert pf == matching_pfaffian(m)

    @given(antisymmetric_int_matrices(st.sampled_from([1, 3, 5])))
    @example(int_matrix([[0]]))
    @example(int_matrix([[0, 1, -2], [-1, 0, 3], [2, -3, 0]]))
    @settings(max_examples=40, deadline=None)
    def test_pfaffian_adjugate(self, m):
        w = on_both_routes(pfaffian_adjugate, m)
        # adj(m) = w w^T, so m w = 0
        for row in m:
            acc = []
            for p, q in zip(row, w):
                acc = padd(acc, pmul(list(p), list(q)))
            assert acc == []

    @given(square_int_matrices())
    @example(int_matrix([[0] * 3 for _ in range(3)]))  # zero
    @example(int_matrix([[1, 2], [2, 4]]))  # singular
    @example(int_matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))  # a row swap flips the sign
    @example(int_matrix([[[0, 1], 1], [1, [0, 1]]]))  # t^2 - 1, zero at the node 1
    @settings(max_examples=60, deadline=None)
    def test_det(self, m):
        assert on_both_routes(int_det, m) == bareiss(m)

    @given(bivariates())
    @example([[0, -1], [1], [1, 2]])  # (2t + 1) x^2 + x - t
    @example([[1], [], [0, 1]])  # t x^2 + 1: lc vanishes at the node 0
    @example([[0, 0, 1], [-1], [], [0, 1]])  # t x^3 - x + t^2
    @example([[0, 0, 2**70], [], [0, 1]])  # t x^2 + 2^70 t^2
    @example([[], [], [1], [0, 0, 0, 0, 0, 1]])  # t^5 x^3 + x^2: the degree bound is negative, Res = 0
    @settings(max_examples=60, deadline=None)
    def test_discriminant(self, f):
        assert on_both_routes(discriminant_x, f) == oracle_discriminant(f)

    @given(st.integers(1, 80), st.integers(0, 3), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_digit_at_the_bound(self, k, power, negative):
        # for [[c t^power]] with |c| = 2^k - 1 the bound B = bitlen(|c|) + 1
        # is tight: e_1 = -c t^power is a digit of exactly +-(2^(B-1) - 1)
        c = (2**k - 1) * (-1 if negative else 1)
        m = ((((0,) * power + (c,)),),)
        bits, _ = linalg._packing(m, 1)
        assert abs(c) == 2 ** (bits - 1) - 1
        assert on_both_routes(int_char_poly, m) == [(0,) * power + (-c,)]

    @given(st.integers(2, 90).flatmap(
        lambda bits: st.tuples(st.just(bits), st.lists(st.sampled_from([
            -(2 ** (bits - 1) - 1), 2 ** (bits - 1) - 1, -1, 0, 1, 2 ** (bits - 2), -(2 ** (bits - 2)),
        ]), max_size=8))))
    @settings(max_examples=100, deadline=None)
    def test_signed_digits_round_trip(self, bits_digits):
        # every digit sequence inside the bound, its extremes next to each
        # other and to zeros, is read back exactly from its packing at 2^B
        bits, digits = bits_digits
        packed = linalg._at_power_of_two(digits, bits)
        assert linalg._signed_digits(packed, bits, len(digits)) == tuple(strip(digits))

    @pytest.mark.parametrize("kind", GROUP_KINDS)
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_generated_fields(self, kind, m):
        for seed, marked in enumerate([(Q(0),), (Q(0), Q(1)), (Q(0), Q(1, 2), Q(-2))]):
            fld = random_strongly_parabolic_higgs(GroupSpec(kind, m), marked, seed % 3, seed)
            on_both_routes(int_char_poly, fld.cleared[0])
            prod = fld.gram_product[0]
            if kind == "so-even":
                on_both_routes(int_pfaffian, prod)
            if kind == "so-odd":
                on_both_routes(pfaffian_adjugate, prod)


# every field `gen -m M --marked 0,1 --deg-bound 1 --seed 0`, by the route its
# characteristic polynomial takes; its Pfaffian (so-even) and kernel line
# (so-odd), at most 5.4 kbit packed, take the Kronecker route at every m
CHAR_POLY_ROUTES = {
    ("sp", 1): "kronecker", ("sp", 2): "kronecker", ("sp", 3): "kronecker", ("sp", 4): "kronecker",
    ("sp", 5): "nodes", ("sp", 6): "nodes",
    ("so-odd", 1): "kronecker", ("so-odd", 2): "kronecker", ("so-odd", 3): "kronecker",
    ("so-odd", 4): "kronecker", ("so-odd", 5): "nodes", ("so-odd", 6): "nodes",
    ("so-even", 2): "kronecker", ("so-even", 3): "kronecker", ("so-even", 4): "kronecker",
    ("so-even", 5): "kronecker", ("so-even", 6): "nodes",
}


def route_taken(fn, *args):
    """The route `_interpolated` took for fn(*args): only the node route
    interpolates."""
    with mock.patch.object(linalg, "interpolate_int_range", wraps=linalg.interpolate_int_range) as spy:
        fn(*args)
    return "nodes" if spy.called else "kronecker"


# the route the quotient discriminant disc_Z G of `gen -m M --marked 0,1
# --deg-bound 1 --seed 0` takes; `analyze` certifies the curve by it
DISC_ROUTES = {
    (kind, m): "kronecker" if m <= 3 else "nodes" for kind in GROUP_KINDS for m in range(2, 7)
}


def quotient(kind, m):
    """G with H(t, x) = G(t, x^2) for the curve H of `gen --group kind -m m
    --marked 0,1 --deg-bound 1 --seed 0`."""
    return build_plane_curve(random_strongly_parabolic_higgs(GroupSpec(kind, m), (Q(0), Q(1)), 1, 0)).quotient


# wall-clock bound on the characteristic polynomial of `gen --group sp -m 6
# --marked 0,1 --deg-bound 1 --seed 0`, 34.6 kbit packed and so on the node
# route, which takes about 0.07 s on one core
NODE_ROUTE_BOUND_S = 2.0

# wall-clock bound on disc_Z G of the quotient of `gen --group sp -m 7
# --marked 0,1 --deg-bound 1 --seed 0`, 533 kbit packed and so on the node
# route, which takes about 0.5 s on one core; Bareiss over Z[t], the test-side
# reference in `helpers`, takes about 2.5 s
DISC_NODE_ROUTE_BOUND_S = 2.0


class TestRouteSelection:
    def test_node_route_is_bounded(self):
        a = random_strongly_parabolic_higgs(GroupSpec.sp(6), (Q(0), Q(1)), 1, 0).cleared[0]
        bits, count = linalg._packing(a, len(a))
        assert bits * count == 34595 > linalg.KRONECKER_MAX_BITS
        with mock.patch.object(linalg, "interpolate_int_range", wraps=linalg.interpolate_int_range) as spy:
            start = time.perf_counter()
            int_char_poly(a)
            seconds = time.perf_counter() - start
        assert spy.called
        assert seconds < NODE_ROUTE_BOUND_S

    def test_every_m6_char_poly_takes_the_nodes(self):
        assert len(CHAR_POLY_ROUTES) == 17
        assert {route for (_, m), route in CHAR_POLY_ROUTES.items() if m == 6} == {"nodes"}

    @pytest.mark.parametrize("kind,m", sorted(CHAR_POLY_ROUTES))
    def test_pinned_route(self, kind, m):
        fld = random_strongly_parabolic_higgs(GroupSpec(kind, m), (Q(0), Q(1)), 1, 0)
        assert route_taken(int_char_poly, fld.cleared[0]) == CHAR_POLY_ROUTES[kind, m]
        prod = fld.gram_product[0]
        if kind == "so-even":
            assert route_taken(int_pfaffian, prod) == "kronecker"
        if kind == "so-odd":
            assert route_taken(pfaffian_adjugate, prod) == "kronecker"

    def test_discriminant_node_route_is_bounded(self):
        g = quotient("sp", 7)
        with mock.patch.object(linalg, "interpolate_int_range", wraps=linalg.interpolate_int_range) as spy:
            start = time.perf_counter()
            discriminant_x(g)
            seconds = time.perf_counter() - start
        assert spy.called
        assert seconds < DISC_NODE_ROUTE_BOUND_S

    @pytest.mark.parametrize("kind,m", sorted(DISC_ROUTES))
    def test_pinned_discriminant_route(self, kind, m):
        assert route_taken(discriminant_x, quotient(kind, m)) == DISC_ROUTES[kind, m]
