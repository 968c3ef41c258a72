"""Matrices over Q and over the rational function field Q(t).

A Q(t) matrix is a plain list of lists of RationalFunction; a constant
matrix (a residue, a Cayley group element) is a list of lists of Fraction
and stays over Q, where ``mat_inverse`` and ``const_mat_mul`` work.
Characteristic polynomials and Pfaffians are computed exactly but without
symbolic rational-function elimination: the matrix is scaled by the common
denominator (and an integer scalar) to land in Z[t], evaluated at integer
sample points, handled there division-free, and the result interpolated
back; the scaling exponents are divided out at the end.  This keeps the
heavy inner loops in machine integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .poly import RationalFunction, UniPoly, interpolate_int_range, poly_lcm

Mat = list[list[RationalFunction]]
QMat = list[list[Fraction]]


class SingularMatrixError(ArithmeticError):
    pass


def rf(x) -> RationalFunction:
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, UniPoly):
        return RationalFunction.make(x)
    return RationalFunction.make(UniPoly.const(x))


def mat_from_scalars(rows: Sequence[Sequence]) -> Mat:
    return [[rf(x) for x in row] for row in rows]


def identity(n: int) -> Mat:
    return [[rf(1) if i == j else rf(0) for j in range(n)] for i in range(n)]


def zero_matrix(n: int, m: int | None = None) -> Mat:
    m = n if m is None else m
    return [[rf(0) for _ in range(m)] for _ in range(n)]


def mat_mul(a: Mat, b: Mat) -> Mat:
    n, k, m = len(a), len(b), len(b[0])
    out = zero_matrix(n, m)
    for i in range(n):
        for j in range(m):
            acc = rf(0)
            for s in range(k):
                if not a[i][s].is_zero and not b[s][j].is_zero:
                    acc = acc + a[i][s] * b[s][j]
            out[i][j] = acc
    return out


def transpose(a: Mat) -> Mat:
    return [list(col) for col in zip(*a)]


def _integer_rows(a: QMat) -> tuple[list[list[int]], int]:
    """(A', den) with a == A' / den, A' an integer matrix."""
    den = math.lcm(*(x.denominator for row in a for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in a], den


def const_mat_mul(a: QMat, b: QMat) -> QMat:
    """Product of two constant matrices over Q, summed in integers."""
    ia, da = _integer_rows(a)
    ib, db = _integer_rows(b)
    cols = list(zip(*ib))
    return [[Fraction(sum(x * y for x, y in zip(row, col)), da * db) for col in cols] for row in ia]


def mat_inverse(a: QMat) -> QMat:
    """Inverse of a constant matrix over Q; raises SingularMatrixError.

    Fraction-free Gauss-Jordan on the integer rows of [den*a | den*I]: each
    elimination step cross-multiplies and divides the row by its content, so
    the pivots end on a diagonal D and the inverse is D^(-1) times the right
    half.
    """
    n = len(a)
    ia, den = _integer_rows(a)
    work = [row + [den * int(i == j) for j in range(n)] for i, row in enumerate(ia)]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        work[col], work[piv] = work[piv], work[col]
        prow = work[col]
        p = prow[col]
        for r in range(n):
            f = work[r][col]
            if r != col and f:
                row = [p * x - f * y for x, y in zip(work[r], prow)]
                g = math.gcd(*row)
                work[r] = [x // g for x in row]
    return [[Fraction(x, row[i]) for x in row[n:]] for i, row in enumerate(work)]


def kernel_basis(a: Mat) -> list[list[RationalFunction]]:
    """Basis of the right kernel over Q(t) (columns as vectors)."""
    n, m = len(a), len(a[0])
    work = [list(row) for row in a]
    pivots: list[int] = []
    r = 0
    for col in range(m):
        piv = next((i for i in range(r, n) if not work[i][col].is_zero), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = rf(1) / work[r][col]
        work[r] = [x * inv for x in work[r]]
        for i in range(n):
            if i != r and not work[i][col].is_zero:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == n:
            break
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        vec = [rf(0)] * m
        vec[fc] = rf(1)
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -work[row_idx][fc]
        basis.append(vec)
    return basis


# -- common-denominator scaling ----------------------------------------------


def _scaled_integer_matrix(a: Mat) -> tuple[list[list[list[int]]], UniPoly, int]:
    """Return (Z[t] matrix as ascending int lists, monic d, integer c) with
    c * d * a integral: entry lists are coefficients of (c*d) * a[i][j]."""
    dens = {x.den for row in a for x in row}  # entries mostly share a few
    d = UniPoly.one()
    for den in dens:
        d = poly_lcm(d, den)
    cofactors = {den: d.exact_div(den) for den in dens}
    polys: list[list[UniPoly]] = [[x.num * cofactors[x.den] for x in row] for row in a]
    c = 1
    for row in polys:
        for p in row:
            for q in p.coeffs:
                c = math.lcm(c, q.denominator)
    ints = [[[int(q * c) for q in p.coeffs] for p in row] for row in polys]
    return ints, d, c


def _eval_int_poly(coeffs: list[int], t0: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t0 + c
    return acc


def _sample_points(count: int) -> list[int]:
    # consecutive nodes so interpolation can run in pure integers
    return list(range(count))


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


def char_poly(a: Mat) -> list[RationalFunction]:
    """Coefficients s_1..s_r of det(x*I - a) = x^r + s_1 x^(r-1) + ... + s_r.

    Exact over Q(t): the matrix is cleared to Z[t], sampled at integers,
    run through the division-free Berkowitz recurrence, interpolated, and
    the clearing factor (c*d)^i divided back out of s_i.
    """
    r = len(a)
    if r == 0:
        return []
    ints, d, c = _scaled_integer_matrix(a)
    maxdeg = max((len(p) - 1 for row in ints for p in row if p), default=0)
    pts = _sample_points(r * maxdeg + 1)
    samples = [[0] * len(pts) for _ in range(r)]
    for pi, t0 in enumerate(pts):
        const = [[_eval_int_poly(p, t0) for p in row] for row in ints]
        coeffs = berkowitz_char_poly(const)
        for i in range(1, r + 1):
            samples[i - 1][pi] = coeffs[i]
    cd = d * c
    out: list[RationalFunction] = []
    denom = UniPoly.one()
    for i in range(1, r + 1):
        denom = denom * cd
        p_i = interpolate_int_range(samples[i - 1])
        out.append(RationalFunction.make(p_i, denom))
    return out


def mat_det(a: Mat) -> RationalFunction:
    r = len(a)
    if r == 0:
        return rf(1)
    s_r = char_poly(a)[-1]
    return s_r if r % 2 == 0 else -s_r


def _pfaffian_const(a: list[list], n: int) -> object:
    """Pfaffian of a constant antisymmetric matrix by memoized expansion."""
    memo: dict[int, object] = {}

    def go(mask: int):
        if mask == 0:
            return 1
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

    return go((1 << n) - 1)


def pfaffian(a: Mat) -> RationalFunction:
    """Pfaffian of an antisymmetric matrix over Q(t).

    Convention Pf([[0, a], [-a, 0]]) = a; satisfies Pf(A)^2 = det(A).
    Raises ValueError on odd size or a non-antisymmetric input.
    """
    n = len(a)
    if n % 2 != 0:
        raise ValueError("Pfaffian needs even size")
    for i in range(n):
        if not a[i][i].is_zero:
            raise ValueError("matrix is not antisymmetric")
        for j in range(i + 1, n):
            if a[i][j] != -a[j][i]:
                raise ValueError("matrix is not antisymmetric")
    if n == 0:
        return rf(1)
    m = n // 2
    ints, d, c = _scaled_integer_matrix(a)
    maxdeg = max((len(p) - 1 for row in ints for p in row if p), default=0)
    pts = _sample_points(m * maxdeg + 1)
    vals = []
    for t0 in pts:
        const = [[_eval_int_poly(p, t0) for p in row] for row in ints]
        vals.append(_pfaffian_const(const, n))
    p = interpolate_int_range(vals)
    return RationalFunction.make(p, (d * c) ** m)
