"""Matrix layer: char poly and Pfaffian against brute-force expansions."""

import itertools
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from parahiggs.linalg import (
    SingularMatrixError,
    char_poly,
    const_mat_mul,
    mat_det,
    mat_from_scalars,
    mat_inverse,
    pfaffian,
    rf,
)
from parahiggs.poly import RationalFunction, UniPoly

P = UniPoly.make
RF = RationalFunction.make


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
    """Permutation-sum determinant over Q(t); independent of char_poly."""
    n = len(m)
    acc = rf(0)
    for perm in itertools.permutations(range(n)):
        term = rf(perm_sign(list(perm)))
        for i in range(n):
            term = term * m[i][perm[i]]
        acc = acc + term
    return acc


def naive_char_coeffs(m):
    """s_i = (-1)^i * (sum of principal i x i minors); brute-force oracle."""
    n = len(m)
    out = []
    for i in range(1, n + 1):
        acc = rf(0)
        for rows in itertools.combinations(range(n), i):
            sub = [[m[r][c] for c in rows] for r in rows]
            acc = acc + leibniz_det(sub)
        out.append(acc if i % 2 == 0 else -acc)
    return out


def matching_pfaffian(m):
    """Pfaffian as signed sum over perfect matchings (via permutations)."""
    n = len(m)
    acc = rf(0)
    count = 0
    for perm in itertools.permutations(range(n)):
        if any(perm[2 * i] > perm[2 * i + 1] for i in range(n // 2)):
            continue
        if any(perm[2 * i] > perm[2 * i + 2] for i in range(n // 2 - 1)):
            continue
        term = rf(perm_sign(list(perm)))
        for i in range(n // 2):
            term = term * m[perm[2 * i]][perm[2 * i + 1]]
        acc = acc + term
        count += 1
    return acc


def random_rf_matrix(rng, n, max_deg=1):
    def entry():
        num = P([rng.randint(-3, 3) for _ in range(max_deg + 1)])
        den = P([rng.randint(-2, 2) for _ in range(2)])
        if den.is_zero:
            den = UniPoly.one()
        return RF(num, den)

    return [[entry() for _ in range(n)] for _ in range(n)]


class TestCharPoly:
    def test_two_by_two(self):
        m = mat_from_scalars([[1, 2], [3, -1]])
        s = char_poly(m)
        assert s[0] == rf(0)
        assert s[1] == rf(-7)  # x^2 - 7

    def test_zero_matrix(self):
        m = mat_from_scalars([[0] * 4 for _ in range(4)])
        assert all(c.is_zero for c in char_poly(m))

    def test_nilpotent_with_pole_entry(self):
        m = [[rf(0), RF(P([1]), P([0, 1]))], [rf(0), rf(0)]]
        assert all(c.is_zero for c in char_poly(m))  # x^2

    def test_single_pole_entry(self):
        m = [[RF(P([1]), P([0, 1]))]]
        s = char_poly(m)
        assert s[0] == RF(P([-1]), P([0, 1]))  # x - 1/t

    def test_matches_leibniz_oracle(self):
        rng = random.Random(7)
        for n in (2, 3, 4):
            for _ in range(4):
                m = random_rf_matrix(rng, n)
                assert char_poly(m) == naive_char_coeffs(m)

    def test_det(self):
        rng = random.Random(11)
        for n in (1, 2, 3):
            m = random_rf_matrix(rng, n)
            assert mat_det(m) == leibniz_det(m)


class TestPfaffian:
    def test_convention(self):
        a = RF(P([0, 1]))
        m = [[rf(0), a], [-a, rf(0)]]
        assert pfaffian(m) == a

    def test_four_by_four(self):
        vals = {(0, 1): 1, (0, 2): 2, (0, 3): 3, (1, 2): 4, (1, 3): 5, (2, 3): 6}
        m = [[rf(0)] * 4 for _ in range(4)]
        for (i, j), v in vals.items():
            m[i][j] = rf(v)
            m[j][i] = rf(-v)
        assert pfaffian(m) == rf(1 * 6 - 2 * 5 + 3 * 4)
        assert leibniz_det(m) == rf(64)

    def test_block_diagonal_multiplicative(self):
        m = [[rf(0)] * 4 for _ in range(4)]
        for i, j, v in ((0, 1, 1), (2, 3, 1)):
            m[i][j] = rf(v)
            m[j][i] = rf(-v)
        assert pfaffian(m) == rf(1)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="even"):
            pfaffian(mat_from_scalars([[0]]))
        with pytest.raises(ValueError, match="antisymmetric"):
            pfaffian(mat_from_scalars([[0, 1], [1, 0]]))

    def test_square_is_det_random(self):
        rng = random.Random(3)
        for n in (2, 4, 6):
            for _ in range(5):
                m = [[rf(0)] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        v = RF(P([rng.randint(-2, 2), rng.randint(-2, 2)]))
                        m[i][j] = v
                        m[j][i] = -v
                pf = pfaffian(m)
                assert pf * pf == leibniz_det(m)
                if n <= 4:
                    assert pf == matching_pfaffian(m)


class TestInverseAndKernel:
    def test_inverse(self):
        rng = random.Random(5)
        for _ in range(10):
            m = [[Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)] for _ in range(4)]
            try:
                inv = mat_inverse(m)
            except SingularMatrixError:
                continue
            eye = [[int(i == j) for j in range(4)] for i in range(4)]
            assert const_mat_mul(m, inv) == eye
            assert const_mat_mul(inv, m) == eye

    def test_singular_detected(self):
        with pytest.raises(SingularMatrixError):
            mat_inverse([[1, 2], [2, 4]])
