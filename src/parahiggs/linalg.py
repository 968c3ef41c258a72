"""Matrices over Q and over Z[t].

A Higgs field or Gram form is held as one matrix over Z[t] over one common
denominator, the integer pair (M, Delta) for M / Delta: M an ``IntMat``
(ascending integer coefficient tuples) and Delta in Z[t] the lcm of the
reduced denominators, with lc(Delta) > 0 and the coefficients of M and Delta
together of content 1, which makes the pair unique.  ``clear_fractions`` is
the one routine that makes it, from integer numerator and denominator
pairs, however the matrix was made (parsed, generated, reduced or built in
a test), and ``cleared_json`` writes it back as JSON entries from integers.
Every characteristic coefficient, Pfaffian and Pfaffian adjugate is computed
from M: evaluated at integer sample points, handled there division-free, and
interpolated back over Z[t], which keeps the heavy inner loops in machine
integers.  A constant matrix over Q (a residue, a Cayley group element) is
an integer matrix ``ZMat`` over one integer denominator, multiplied by
``zmat_mul`` and inverted fraction-free by ``zmat_inverse``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .poly import (
    RationalFunction,
    _int_exact_div,
    _int_gcd,
    _int_mul,
    _int_poly_mul_add,
    fraction_json,
    int_fraction,
    interpolate_int_range,
)

QMat = list[list[Fraction]]
ZMat = list[list[int]]
IntMat = tuple[tuple[tuple[int, ...], ...], ...]
IntFraction = tuple[tuple[int, ...], tuple[int, ...]]
Cleared = tuple[IntMat, tuple[int, ...]]  # (M, Delta) for M / Delta


class SingularMatrixError(ArithmeticError):
    pass


def zmat_mul(a: ZMat, b: ZMat) -> ZMat:
    """Product of two constant integer matrices; zero entries of a cost nothing."""
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for x, b_row in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, b_row)]
        out.append(acc)
    return out


def zmat_inverse(a: ZMat) -> tuple[ZMat, int]:
    """(X, delta) with a^(-1) = X / delta and delta = +-det a, by Bareiss'
    fraction-free Gauss-Jordan on [a | I]: every entry stays a minor of
    [a | I], so each division by the last pivot is exact and the left half
    ends as delta * I.  Raises SingularMatrixError."""
    n = len(a)
    work = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(a)]
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        work[col], work[piv] = work[piv], work[col]
        prow = work[col]
        p = prow[col]
        for r in range(n):
            if r != col:
                f = work[r][col]
                work[r] = [(p * x - f * y) // prev for x, y in zip(work[r], prow)]
        prev = p
    return [row[n:] for row in work], prev


# -- the common denominator ---------------------------------------------------


def entry_ints(x) -> IntFraction:
    """`int_fraction` of a RationalFunction or a rational scalar."""
    num, den = (x.num.coeffs, x.den.coeffs) if isinstance(x, RationalFunction) else ((x,), (1,))
    return int_fraction(*([(q.numerator, q.denominator) for q in cs] for cs in (num, den)))


def clear_fractions(grid: Sequence[Sequence[IntFraction]]) -> Cleared:
    """(M, Delta) with grid[i][j] = n / delta equal to M[i][j] / Delta: Delta
    the lcm of the reduced denominators, lc(Delta) > 0, and the coefficients
    of M and Delta together of content 1.  The entries are integer
    coefficient tuples without trailing zeros, delta nonzero; they need not
    be reduced.

    Each nonzero entry is written over K*D, D the lcm of the primitive parts
    of the distinct denominators and K the lcm of their contents.  The
    reduced denominators have primitive lcm D / g with g = gcd(D, every
    numerator over D), since for each prime p the largest (v_p D - v_p N_ij)+
    is v_p D - min(v_p D, min v_p N_ij); so one gcd chain, stopped at degree
    0, takes the place of a gcd per entry.  Dividing numerators and K*D by
    their common content, gcd(K, every numerator), leaves the pair.
    """
    parts: dict[tuple[int, ...], tuple[int, list[int]]] = {}
    big_d, big_k = [1], 1
    for row in grid:
        for n, delta in row:
            if n and delta not in parts:
                k = math.gcd(*delta) * (1 if delta[-1] > 0 else -1)
                prim = [x // k for x in delta]
                parts[delta] = k, prim
                big_k = math.lcm(big_k, abs(k))
                if prim != big_d:
                    big_d = _int_mul(big_d, _int_exact_div(prim, _int_gcd(big_d, prim)))
    scales = {
        delta: (big_k // k, _int_exact_div(big_d, prim)) for delta, (k, prim) in parts.items()
    }
    nums: list[list[list[int]]] = []
    for row in grid:
        out = []
        for n, delta in row:
            if not n:
                out.append([])
                continue
            k, cof = scales[delta]
            n = [k * x for x in n]
            out.append(_int_mul(n, cof) if len(cof) > 1 else n)  # a constant cof is 1
        nums.append(out)
    g = big_d
    for n in (n for row in nums for n in row if n):
        if len(g) == 1:
            break
        g = _int_gcd(g, n)
    if len(g) > 1:
        big_d = _int_exact_div(big_d, g)
        nums = [[_int_exact_div(n, g) if n else n for n in row] for row in nums]
    content = math.gcd(big_k, *(x for row in nums for n in row for x in n))
    ints = tuple(tuple(tuple(x // content for x in n) for n in row) for row in nums)
    return ints, tuple(big_k // content * x for x in big_d)


def cleared_json(cleared: Cleared) -> list[list[dict]]:
    """The JSON entries of M / Delta for (M, Delta), by `fraction_json`."""
    ints, delta = cleared
    return [[fraction_json(p, delta) for p in row] for row in ints]


def int_mat_mul(a: IntMat, b: IntMat) -> IntMat:
    """Product of two matrices over Z[t]; zero entries cost nothing."""
    out = []
    for row in a:
        orow = []
        for j in range(len(b[0])):
            acc: list[int] = []
            for s, p in enumerate(row):
                _int_poly_mul_add(acc, p, b[s][j])
            while acc and not acc[-1]:
                acc.pop()
            orow.append(tuple(acc))
        out.append(tuple(orow))
    return tuple(out)


def _eval_int_poly(coeffs: Sequence[int], t0):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t0 + c
    return acc


def int_mat_at(a: IntMat, t0) -> list[list]:
    """The Z[t] matrix a evaluated at the integer t = t0."""
    return [[_eval_int_poly(p, t0) for p in row] for row in a]


def _interpolated(a: IntMat, factor: int, values) -> list[tuple[int, ...]]:
    """Interpolate values(a(t0)), in Z[t] of t-degree <= factor * deg(a), from
    the consecutive nodes t0 = 0, 1, ... so interpolation runs in pure integers."""
    maxdeg = max((len(p) - 1 for row in a for p in row if p), default=0)
    samples = [values(int_mat_at(a, t0)) for t0 in range(factor * maxdeg + 1)]
    return [tuple(interpolate_int_range(col)) for col in zip(*samples)]


def berkowitz_char_poly(a: list[list]) -> list:
    """Division-free characteristic polynomial of a constant square matrix.

    Returns det(x*I - a) coefficients, highest degree first (monic).  Works
    over any commutative ring (ints, Fractions).
    """
    n = len(a)
    poly = [1]
    for i in range(n):
        row = a[i][:i]
        col = [a[j][i] for j in range(i)]
        # first column of the Toeplitz factor: 1, -a_ii, -row.col, -row.M.col, ...
        cvec = [1, -a[i][i]]
        v = col
        for _ in range(i):
            cvec.append(-sum(x * y for x, y in zip(row, v)))
            v = [sum(a[r][s] * v[s] for s in range(i)) for r in range(i)]
        new = [0] * (len(poly) + 1)
        for j in range(len(new)):
            lo = max(0, j - len(cvec) + 1)
            for k in range(lo, min(j, len(poly) - 1) + 1):
                new[j] += cvec[j - k] * poly[k]
        poly = new
    return poly


def int_char_poly(a: IntMat) -> list[tuple[int, ...]]:
    """e_1..e_r with det(x*I - a) = x^r + e_1 x^(r-1) + ... + e_r for a Z[t]
    matrix a: Berkowitz on the samples of a.  For Phi = a / Delta the
    characteristic coefficients are s_i = e_i / Delta^i."""
    return _interpolated(a, len(a), lambda const: berkowitz_char_poly(const)[1:])


def _pfaffians_const(a: list[list], masks: list[int]) -> list:
    """Pfaffians of the principal submatrices of a constant antisymmetric
    matrix on the index sets given as bit masks, by one memoized expansion."""
    memo: dict[int, object] = {0: 1}

    def go(mask: int):
        if mask in memo:
            return memo[mask]
        i = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << i)
        acc = 0
        sign = 1
        m = rest
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            if a[i][j]:
                acc += sign * a[i][j] * go(rest & ~(1 << j))
            sign = -sign
        memo[mask] = acc
        return acc

    return [go(mask) for mask in masks]


def int_pfaffian(a: IntMat) -> tuple[int, ...]:
    """Pfaffian of an even-size antisymmetric Z[t] matrix, with the convention
    Pf([[0, a], [-a, 0]]) = a, so Pf(a)^2 = det(a).  Raises ValueError on odd
    size or a non-antisymmetric input."""
    n = len(a)
    if n % 2 != 0:
        raise ValueError("Pfaffian needs even size")
    if any(a[j][i] != tuple(-x for x in a[i][j]) for i in range(n) for j in range(i, n)):
        raise ValueError("matrix is not antisymmetric")
    (p,) = _interpolated(a, n // 2, lambda const: _pfaffians_const(const, [(1 << n) - 1]))
    return p


def pfaffian_adjugate(a: IntMat) -> list[tuple[int, ...]]:
    """w_i = (-1)^i Pf(a without row and column i) for an odd-size
    antisymmetric Z[t] matrix a: adj(a) = w w^T and a w = 0, so w spans the
    kernel when it is a line and is 0 when the kernel is larger."""
    n = len(a)
    masks = [((1 << n) - 1) & ~(1 << i) for i in range(n)]
    polys = _interpolated(a, n // 2, lambda const: _pfaffians_const(const, masks))
    return [tuple(-x for x in p) if i % 2 else p for i, p in enumerate(polys)]
