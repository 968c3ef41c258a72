"""Integer matrices: constant ones over Z and fields over Z[t].

A Higgs field or Gram form is held as one matrix over Z[t] over one common
denominator, the integer pair (M, Delta) for M / Delta: M an ``IntMat``
(ascending integer coefficient tuples) and Delta in Z[t] the lcm of the
reduced denominators, with lc(Delta) > 0 and the coefficients of M and Delta
together of content 1, which makes the pair unique.  ``clear_fractions``
makes it from integer numerator and denominator pairs, whether the matrix
was parsed, generated, reduced or built in a test (only the split Gram form,
already over Z, is written directly by `groups.split_gram`), and
``cleared_json`` writes it back as JSON entries from integers,
reducing each at the marked points by `poly.fraction_writer`.
Every Z[t] eliminant, the determinant (`int_det`), the characteristic
coefficients, the Pfaffian and Pfaffian adjugate of M and the discriminant
of `bipoly`, is one division-free constant kernel run on the samples of a
Z[t] grid by `_interpolated`, by one of two routes chosen by the size of the
result, from the caller's proven bound (B, N): N coefficients, each below
2^(B-1) in absolute value (`_packing` for the square kernels).  When it is
small, by Kronecker substitution: the grid is evaluated once at t = 2^B, the
kernel runs once over big integers and the coefficients are read back as
signed base-2^B digits.  Otherwise the grid is evaluated at the integer
nodes 0, 1, ..., N - 1 (by `poly._hom_eval`), the kernel runs at each in
small integers, and the results are interpolated back over Z[t].  Both
routes give the same tuples.
A constant matrix over Q (a residue, a Cayley group element) is the pair
(X, e) of an integer matrix ``ZMat`` X over one integer denominator e,
multiplied by ``zmat_mul`` and inverted fraction-free by ``zmat_inverse``;
no matrix here has `Fraction` entries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Sequence

from .poly import (
    _hom_eval,
    _int_exact_div,
    _int_gcd,
    _int_mul,
    _int_poly_mul_add,
    _int_trim,
    fraction_writer,
    interpolate_int_range,
)

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


def cleared_json(cleared: Cleared, points: Sequence[Fraction]) -> list[list[dict]]:
    """The JSON entries of M / Delta for (M, Delta), by one `fraction_writer`
    over the marked points."""
    ints, delta = cleared
    write = fraction_writer(delta, points)
    return [[write(p) for p in row] for row in ints]


def is_symmetric(a: IntMat, sign: int) -> bool:
    """a^T = sign * a for a square Z[t] matrix a: symmetric for sign 1,
    antisymmetric for sign -1."""
    n = len(a)
    return all(a[j][i] == tuple(sign * x for x in a[i][j]) for i in range(n) for j in range(i, n))


def int_mat_mul(a: IntMat, b: IntMat) -> IntMat:
    """Product of two matrices over Z[t]; zero entries cost nothing."""
    out = []
    for row in a:
        orow = []
        for j in range(len(b[0])):
            acc: list[int] = []
            for s, p in enumerate(row):
                _int_poly_mul_add(acc, p, b[s][j])
            orow.append(tuple(_int_trim(acc)))
        out.append(tuple(orow))
    return tuple(out)


# The packed size, in bits, up to which `_interpolated` takes the Kronecker
# route.  From the crossover table in CHANGES.md: one big-integer sample
# against the node samples read 0.96x at worst and mostly 1.3-9x up to
# 12 kbit, 0.73-1.56x from 12 to 14.5 kbit, and lost on every input above
# that, every m = 6 characteristic polynomial among them.
KRONECKER_MAX_BITS = 12000


def _packing(a: IntMat, factor: int) -> tuple[int, int]:
    """(B, N) for a result of a square kernel on the n x n matrix a: its
    N = factor * deg(a) + 1 coefficients, and B = bitlen(n! * L^factor) + 1,
    L >= 1 the largest coefficient 1-norm of an entry, so that every
    coefficient c has |c| <= 2^(B-1) - 1.  B * N bits is the size of the
    result packed at t = 2^B, and picks the route.

    The 1-norm of a product is at most the product of the 1-norms, and a
    coefficient is at most the 1-norm.  det sums n! products of n entries,
    and e_i the C(n, i) * i! = n!/(n-i)! products of i entries that make up
    its principal minors, so |coefficients| <= n! * L^n (factor n).  The
    Pfaffian of a 2k x 2k matrix sums (2k-1)!! products of k entries, and
    every Pfaffian of the adjugate is of size n - 1 = 2k, k = n // 2 the
    factor, so both are bounded by (2k-1)!! * L^k <= n! * L^factor.
    """
    norm = max((sum(map(abs, p)) for row in a for p in row), default=0)
    maxdeg = max((len(p) - 1 for row in a for p in row if p), default=0)
    bits = (math.factorial(len(a)) * max(norm, 1) ** factor).bit_length() + 1
    return bits, factor * maxdeg + 1


def _at_power_of_two(p: Sequence[int], bits: int) -> int:
    """p(2^bits) for integer coefficients p, by shifts."""
    acc = 0
    for c in reversed(p):
        acc = (acc << bits) + c
    return acc


def _signed_digits(v: int, bits: int, count: int) -> tuple[int, ...]:
    """d_0..d_(count-1), trailing zeros dropped, for v = sum d_k 2^(k*bits)
    with every |d_k| < 2^(bits-1).

    v mod 2^bits = d_0 mod 2^bits, and d_0 is the one residue in
    [-2^(bits-1), 2^(bits-1)), so it is read off the low bits; then
    (v - d_0) / 2^bits = sum d_(k+1) 2^(k*bits) is exact, and equals
    floor(v / 2^bits) plus 1 when d_0 < 0.  So the digits are exact whatever
    their signs, and no carry is lost.
    """
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    out = []
    for _ in range(count):
        d = v & mask
        v >>= bits
        if d >= half:
            d -= mask + 1
            v += 1
        out.append(d)
    return tuple(_int_trim(out))


def _interpolated(grid: Sequence, bound: tuple[int, int], values) -> list[tuple[int, ...]]:
    """values(grid(t0)) for the constant kernel `values` on a grid of Z[t]
    entries, each result in Z[t] with at most N coefficients, all below
    2^(B-1) in absolute value, for the caller's bound (B, N).

    Nodes: sample the grid at t0 = 0, 1, ..., N - 1 and interpolate each
    result over Z[t] (`interpolate_int_range`), so N kernel runs in small
    integers.  Kronecker (von zur Gathen & Gerhard, Modern Computer Algebra,
    8.4): evaluate the grid once at t = 2^B by shifts, run the kernel once
    over big integers and read each result's coefficients as its signed
    base-2^B digits (`_signed_digits`), exact by the bound.  The Kronecker
    route is taken while the packed result, B * N bits, is at most
    KRONECKER_MAX_BITS; both routes give the same tuples.
    """
    bits, count = bound
    if bits * count <= KRONECKER_MAX_BITS:
        packed = values([[_at_power_of_two(p, bits) for p in row] for row in grid])
        return [_signed_digits(v, bits, count) for v in packed]
    samples = [values([[_hom_eval(p, t0, 1) for p in row] for row in grid]) for t0 in range(count)]
    return [tuple(interpolate_int_range(col)) for col in zip(*samples)]


def bareiss_const(a: ZMat) -> int:
    """det a for a constant square integer matrix, by Bareiss' fraction-free
    elimination: after step k every entry is a minor of a, so each division
    by the last pivot is exact (Sylvester's identity), and the last pivot is
    +-det a; a row swap flips the sign."""
    a, sign, prev = [list(row) for row in a], 1, 1
    for k in range(len(a)):
        piv = next((i for i in range(k, len(a)) if a[i][k]), None)
        if piv is None:
            return 0
        a[k], a[piv], sign = a[piv], a[k], sign if piv == k else -sign
        p, top = a[k][k], a[k][k:]
        for row in a[k + 1 :]:
            f = row[k]
            row[k:] = [(p * x - f * y) // prev for x, y in zip(row[k:], top)]
        prev = p
    return sign * prev


def int_det(a: IntMat) -> tuple[int, ...]:
    """det a for a square Z[t] matrix a: Bareiss on the samples of a."""
    (det,) = _interpolated(a, _packing(a, len(a)), lambda const: [bareiss_const(const)])
    return det


def berkowitz_char_poly(a: list[list]) -> list:
    """Division-free characteristic polynomial of a constant square matrix.

    Returns det(x*I - a) coefficients, highest degree first (monic).  Works
    over any commutative ring (ints, Fractions).
    """
    poly = [1]
    for i, a_row in enumerate(a):
        lead = [r[:i] for r in a[:i]]
        row = a_row[:i]
        v = [r[i] for r in a[:i]]
        # first column of the Toeplitz factor: 1, -a_ii, -row.col, -row.M.col, ...
        cvec = [1, -a_row[i]]
        for k in range(i):
            cvec.append(-sum(map(mul, row, v)))
            if k < i - 1:  # the last Krylov vector M^i.col is never read
                v = [sum(map(mul, r, v)) for r in lead]
        # the Toeplitz product: the first i + 2 coefficients of cvec * poly
        new = [0] * (i + 2)
        for k, p in enumerate(poly):
            if p:
                for j, c in enumerate(cvec[: i + 2 - k], k):
                    new[j] += c * p
        poly = new
    return poly


def int_char_poly(a: IntMat) -> list[tuple[int, ...]]:
    """e_1..e_r with det(x*I - a) = x^r + e_1 x^(r-1) + ... + e_r for a Z[t]
    matrix a: Berkowitz on the samples of a.  For Phi = a / Delta the
    characteristic coefficients are s_i = e_i / Delta^i."""
    return _interpolated(a, _packing(a, len(a)), lambda const: berkowitz_char_poly(const)[1:])


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
    if not is_symmetric(a, -1):
        raise ValueError("matrix is not antisymmetric")
    (p,) = _interpolated(a, _packing(a, n // 2), lambda const: _pfaffians_const(const, [2**n - 1]))
    return p


def pfaffian_adjugate(a: IntMat) -> list[tuple[int, ...]]:
    """w_i = (-1)^i Pf(a without row and column i) for an odd-size
    antisymmetric Z[t] matrix a: adj(a) = w w^T and a w = 0, so w spans the
    kernel when it is a line and is 0 when the kernel is larger."""
    n = len(a)
    masks = [((1 << n) - 1) & ~(1 << i) for i in range(n)]
    polys = _interpolated(a, _packing(a, n // 2), lambda const: _pfaffians_const(const, masks))
    return [tuple(-x for x in p) if i % 2 else p for i, p in enumerate(polys)]
