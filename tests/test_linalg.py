"""Matrix layer: the Z[t] char coefficients, Pfaffian and determinant against
brute-force expansions over integer coefficient lists."""

import itertools
import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

from parahiggs.bipoly import bareiss_det
from parahiggs.groups import GROUP_KINDS, GroupSpec
from parahiggs.higgs import HiggsField, random_strongly_parabolic_higgs
from parahiggs.linalg import (
    SingularMatrixError,
    int_char_poly,
    int_pfaffian,
    clear_fractions,
    entry_ints,
    zmat_inverse,
    zmat_mul,
)
from parahiggs.poly import RationalFunction, UniPoly, poly_gcd

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

    def test_det(self):
        rng = random.Random(11)
        for n in (1, 2, 3, 4):
            for _ in range(3):
                m = random_int_matrix(rng, n)
                assert list(bareiss(m)) == leibniz_det(m)


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
                assert list(bareiss(m)) == leibniz_det(m)
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
