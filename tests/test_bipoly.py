"""Bivariate layer: resultants and discriminants against a naive determinant."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from parahiggs.bipoly import (
    BiPoly,
    discriminant_x,
    resultant_x,
    sylvester_matrix,
)
from parahiggs.poly import UniPoly

P = UniPoly.make


def B(*t_coeffs):
    """BiPoly from UniPoly coefficients, ascending in x."""
    return BiPoly.make([P(c) if isinstance(c, (list, tuple)) else UniPoly.const(c) for c in t_coeffs])


def naive_det(m):
    """Cofactor-expansion determinant over Q[t]; independent of Bareiss."""
    n = len(m)
    if n == 0:
        return UniPoly.one()
    if n == 1:
        return m[0][0]
    acc = UniPoly.zero()
    for j in range(n):
        if m[0][j].is_zero:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * naive_det(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def small_bipolys(max_dx=2, max_dt=2):
    coeff = st.lists(st.integers(-3, 3), min_size=1, max_size=max_dt + 1).map(P)
    return (
        st.lists(coeff, min_size=1, max_size=max_dx + 1)
        .map(BiPoly.make)
        .filter(lambda f: not f.is_zero)
    )


class TestResultant:
    def test_linear_substitution(self):
        # Res_x(x^2 - t, x - 2) = f(2) = 4 - t
        f = B([0, -1], 0, 1)
        g = B(-2, 1)
        assert resultant_x(f, g) == P([4, -1])

    def test_two_linears_sign(self):
        # Res_x(x - t, x): 2x2 Sylvester determinant [[1, -t], [1, 0]] = t
        f = B([0, -1], 1)
        g = B(0, 1)
        assert resultant_x(f, g) == P([0, 1])

    def test_common_root(self):
        assert resultant_x(B(0, 0, 1), B(0, 1)).is_zero  # Res(x^2, x) = 0

    def test_constant_in_x(self):
        # Res(f, c) = c^deg f
        f = B([0, -1], 0, 1)
        assert resultant_x(f, B([0, 1])) == P([0, 0, 1])
        with pytest.raises(ValueError, match="no variable"):
            resultant_x(B([1, 1]), B([2]))

    @given(small_bipolys(), small_bipolys())
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_sylvester(self, f, g):
        if f.deg_x == 0 or g.deg_x == 0:
            return
        assert resultant_x(f, g) == naive_det(sylvester_matrix(f, g))

    @given(small_bipolys(1, 1), small_bipolys(1, 1), small_bipolys(1, 1))
    @settings(max_examples=40, deadline=None)
    def test_zero_iff_common_factor(self, f, g, h):
        # planted common factor h of positive x-degree forces a zero resultant
        if h.deg_x == 0:
            return
        assert resultant_x(f * h, g * h).is_zero


class TestDiscriminant:
    def test_classical_quadratic(self):
        # x^2 - c -> 4c, with c = 5
        assert discriminant_x(B(-5, 0, 1)) == P([20])

    def test_x2_plus_t2(self):
        # Res_x(x^2 + t^2, 2x) via Sylvester determinant, normalized: -4t^2
        f = B([0, 0, 1], 0, 1)
        expected = -naive_det(sylvester_matrix(f, f.derivative_x()))
        assert expected == P([0, 0, -4])
        assert discriminant_x(f) == expected

    def test_hyperelliptic_cubic(self):
        # x^2 - (t^3 - t) -> 4(t^3 - t)
        f = B([0, 1, 0, -1], 0, 1)
        assert discriminant_x(f) == P([0, -4, 0, 4])

    def test_rejects_low_degree_and_non_monic(self):
        with pytest.raises(ValueError):
            discriminant_x(B(1, 1))
        with pytest.raises(ValueError):
            discriminant_x(B(1, 0, 2))

    @given(small_bipolys(2, 1))
    @settings(max_examples=40, deadline=None)
    def test_zero_disc_iff_repeated_factor(self, h):
        if h.deg_x == 0 or not h.is_monic_x:
            return
        assert discriminant_x(h * h).is_zero

