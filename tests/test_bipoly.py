"""Eliminants over Z[t][x]: Sylvester resultants and discriminants against a
naive determinant."""

import pytest
from hypothesis import given, settings, strategies as st

from parahiggs.bipoly import discriminant_x
from parahiggs.linalg import int_det
from parahiggs.poly import UniPoly

from helpers import sylvester_matrix

P = UniPoly.make


def trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def add(p, q):
    n = max(len(p), len(q))
    return trim([(p[k] if k < len(p) else 0) + (q[k] if k < len(q) else 0) for k in range(n)])


def mul(p, q):
    out = [0] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def B(*t_coeffs):
    """Bivariate integer polynomial from ascending x-coefficients, each an
    integer or an ascending integer coefficient list."""
    return trim(trim(c) if isinstance(c, (list, tuple)) else trim([c]) for c in t_coeffs)


def bimul(f, g):
    """f * g for bivariate integer polynomials."""
    out = [[] for _ in range(len(f) + len(g) - 1)]
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = add(out[i + j], mul(a, b))
    return trim(out)


def resultant(f, g):
    """Res_x(f, g) as `linalg.int_det` of the Sylvester matrix."""
    return list(int_det(sylvester_matrix(f, g)))


def naive_det(m):
    """Cofactor-expansion determinant over Z[t]; independent of Bareiss."""
    n = len(m)
    if n == 0:
        return [1]
    if n == 1:
        return trim(m[0][0])
    acc = []
    for j in range(n):
        if not m[0][j]:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = mul(m[0][j], naive_det(minor))
        acc = add(acc, term if j % 2 == 0 else [-c for c in term])
    return acc


def small_bipolys(max_dx=2, max_dt=2):
    coeff = st.lists(st.integers(-3, 3), min_size=1, max_size=max_dt + 1)
    return st.lists(coeff, min_size=1, max_size=max_dx + 1).map(lambda cs: B(*cs)).filter(bool)


class TestResultant:
    def test_linear_substitution(self):
        # Res_x(x^2 - t, x - 2) = f(2) = 4 - t
        assert resultant(B([0, -1], 0, 1), B(-2, 1)) == [4, -1]

    def test_two_linears_sign(self):
        # Res_x(x - t, x): 2x2 Sylvester determinant [[1, -t], [1, 0]] = t
        assert resultant(B([0, -1], 1), B(0, 1)) == [0, 1]

    def test_common_root(self):
        assert resultant(B(0, 0, 1), B(0, 1)) == []  # Res(x^2, x) = 0

    def test_constant_in_x(self):
        # Res(f, c) = c^deg f
        assert resultant(B([0, -1], 0, 1), B([0, 1])) == [0, 0, 1]

    @given(small_bipolys(), small_bipolys())
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_sylvester(self, f, g):
        if len(f) == 1 or len(g) == 1:
            return
        assert resultant(f, g) == naive_det(sylvester_matrix(f, g))

    @given(small_bipolys(1, 1), small_bipolys(1, 1), small_bipolys(1, 1))
    @settings(max_examples=40, deadline=None)
    def test_zero_iff_common_factor(self, f, g, h):
        # planted common factor h of positive x-degree forces a zero resultant
        if len(h) == 1:
            return
        assert resultant(bimul(f, h), bimul(g, h)) == []


class TestDiscriminant:
    def test_classical_quadratic(self):
        # x^2 - c -> 4c, with c = 5
        assert discriminant_x(B(-5, 0, 1)) == P([20])

    def test_x2_plus_t2(self):
        # Res_x(x^2 + t^2, 2x) via Sylvester determinant, normalized: -4t^2
        f = B([0, 0, 1], 0, 1)
        expected = [-c for c in naive_det(sylvester_matrix(f, B(0, 2)))]
        assert expected == [0, 0, -4]
        assert discriminant_x(f) == P(expected)

    def test_hyperelliptic_cubic(self):
        # x^2 - (t^3 - t) -> 4(t^3 - t)
        assert discriminant_x(B([0, 1, 0, -1], 0, 1)) == P([0, -4, 0, 4])

    def test_rejects_low_degree(self):
        with pytest.raises(ValueError):
            discriminant_x(B(1, 1))

    def test_non_monic_divides_by_the_leading_coefficient(self):
        # 2x^2 + 1 -> -8, and t x^2 + 1 -> -4t: Res_x(f, f_x) / lc(f)
        assert discriminant_x(B(1, 0, 2)) == P([-8])
        f = B(1, 0, [0, 1])
        assert naive_det(sylvester_matrix(f, B(0, [0, 2]))) == [0, 0, 4]
        assert discriminant_x(f) == P([0, -4])

    @given(small_bipolys(2, 1))
    @settings(max_examples=40, deadline=None)
    def test_zero_disc_iff_repeated_factor(self, h):
        if len(h) == 1:
            return
        assert discriminant_x(bimul(h, h)).is_zero
