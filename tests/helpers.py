"""Helpers shared by the test modules: a Gram form, characteristic data and
constant grids as reduced rational functions, the semisimple negative control
of the strong-parabolicity checks, and the test-only reference determinant
over Z[t] (Bareiss with polynomial entries) with the Z[t] Sylvester matrix, an
oracle outside `linalg._interpolated`."""

from fractions import Fraction
from typing import Sequence

from parahiggs.higgs import HiggsField, random_strongly_parabolic_higgs
from parahiggs.linalg import clear_fractions
from parahiggs.poly import RationalFunction, _int_exact_div, _int_mul, _int_poly_mul_add, _int_trim


def gram_matrix(gram):
    """B of a Gram form as reduced rational functions."""
    b, d = gram.cleared
    return [[RationalFunction.from_ints(p, d) for p in row] for row in b]


def sections(char):
    """s_1..s_r of the characteristic data as reduced rational functions."""
    return [RationalFunction.from_ints(e, q) for e, q in zip(char.e, char.den_powers)]


def scalars(rows):
    """A grid of rational scalars as constant rational functions."""
    return [[RationalFunction.make(x) for x in row] for row in rows]


def semisimple_residue_control(group, marked_points, degree_bound: int, seed: int) -> HiggsField:
    """Negative control: the generated field over marked_points[1:] (same seed
    and degree bound) plus diag(1, -1) b_0 / (b_0 t - a_0), the 1 and -1 at
    the indices 0 and m, for the first point a_0 / b_0.  The residue there is
    semisimple, not nilpotent, and s_2 has a pole of order 2 at a_0."""
    first, *rest = map(Fraction, marked_points)
    fld = random_strongly_parabolic_higgs(group, rest, degree_bound, seed)
    ints, delta = fld.cleared
    pole = [-first.numerator, first.denominator]
    den = tuple(_int_mul(delta, pole))
    diag = {0: first.denominator, group.m: -first.denominator}
    grid = []
    for i, row in enumerate(ints):
        out = []
        for j, p in enumerate(row):
            num = _int_mul(p, pole)
            if i == j and i in diag:
                _int_poly_mul_add(num, [diag[i]], delta)
            out.append((tuple(_int_trim(num)), den))
        grid.append(out)
    return HiggsField(group, fld.gram, clear_fractions(grid), (first, *rest))


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
