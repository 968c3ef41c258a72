"""x-eliminants of bivariate integer polynomials F(t, x) over Z[t][x].

A bivariate polynomial is its list of ascending x-coefficients, each an
ascending integer coefficient list over Z[t] ([] is zero).  The spectral
curves of ``curves`` are primitive over Z[t] with a constant leading
coefficient, so their discriminants need no clearing: one Bareiss
fraction-free elimination of the Sylvester matrix, in which every division is
exact, and one exact division by the leading coefficient.
"""

from __future__ import annotations

from typing import Sequence

from .poly import UniPoly, _int_exact_div, _int_poly_mul_add, _int_trim


def bareiss_det(m: list[list[list[int]]]) -> list[int]:
    """Fraction-free determinant of a matrix over Z[t] (Bareiss).

    Entries are ascending integer coefficient lists, [] being zero.  Every
    interior division is exact in Z[t] by Sylvester's identity; row swaps
    flip the sign.  The input list is consumed.
    """
    n = len(m)
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return []
        pivot = m[k][k]
        for i in range(k + 1, n):
            neg = [-c for c in m[i][k]]
            for j in range(k + 1, n):
                num: list[int] = []
                _int_poly_mul_add(num, pivot, m[i][j])
                _int_poly_mul_add(num, neg, m[k][j])
                _int_trim(num)
                m[i][j] = _int_exact_div(num, prev) if num else []
        prev = pivot
    return [sign * c for c in m[n - 1][n - 1]]


def sylvester_matrix(f: Sequence[list[int]], g: Sequence[list[int]]) -> list[list[list[int]]]:
    """Sylvester matrix of two bivariate integer polynomials, given as
    ascending x-coefficient lists."""
    f, g = list(f), list(g)
    p, q = len(f) - 1, len(g) - 1
    n = p + q
    rows = []
    # descending coefficient order, f-rows then g-rows
    for i in range(q):
        rows.append([[]] * i + f[::-1] + [[]] * (n - p - 1 - i))
    for i in range(p):
        rows.append([[]] * i + g[::-1] + [[]] * (n - q - 1 - i))
    return rows


def discriminant_x(f: Sequence[Sequence[int]]) -> UniPoly:
    """disc(f) = (-1)^(r(r-1)/2) Res_x(f, f_x) / lc(f) for f of x-degree
    r >= 2 over Z[t], with the resultant the Bareiss determinant of the
    Sylvester matrix; the division by lc(f) is exact over Z[t]."""
    r = len(f) - 1
    if r < 2 or not f[-1]:
        raise ValueError("discriminant needs x-degree >= 2")
    f = [list(c) for c in f]
    f_x = [[i * c for c in p] for i, p in enumerate(f)][1:]
    res = bareiss_det(sylvester_matrix(f, f_x))
    sign = (-1) ** (r * (r - 1) // 2)
    return UniPoly.make(sign * c for c in _int_exact_div(res, f[-1]))
