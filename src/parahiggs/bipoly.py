"""x-discriminants of bivariate integer polynomials F(t, x) over Z[t][x], each
its list of ascending x-coefficients, ascending integer lists ([] is zero).
The discriminant is one more constant kernel of `linalg._interpolated`: the
Sylvester resultant Res_x(f, f_x) by constant Bareiss at each sample."""

from __future__ import annotations

import math
from typing import Sequence

from .linalg import _interpolated, bareiss_const
from .poly import UniPoly, _int_exact_div


def _resultant_with_derivative(rows: list[list[int]]) -> list[int]:
    """[Res_x(f, f_x)] for a constant f of x-degree r >= 2, the one row of
    its x-coefficients: the Sylvester determinant, f-rows then f_x-rows."""
    (f,) = rows
    r = len(f) - 1
    top, bottom = f[::-1], [i * c for i, c in enumerate(f)][:0:-1]
    mat = [[0] * i + top + [0] * (r - 2 - i) for i in range(r - 1)]
    mat += [[0] * i + bottom + [0] * (r - 1 - i) for i in range(r)]
    return [bareiss_const(mat)]


def discriminant_x(f: Sequence[Sequence[int]]) -> UniPoly:
    """disc(f) = (-1)^(r(r-1)/2) Res_x(f, f_x) / lc(f) for f of x-degree
    r >= 2 over Z[t], the resultant sampled on the row of f's x-coefficients
    a_0 .. a_r with a proven bound (B, N).

    Res_x(f, f_x) is homogeneous of degree 2r - 1 in the a_i and isobaric of
    weight r(r - 1), a_i weighing r - i, so with deg a_i <= c + (r - i) w,
    c = deg lc(f), its t-degree is at most N - 1 = (2r - 1) c + r(r - 1) w.
    Its coefficients are at most Hadamard's bound on the Sylvester rows with
    each entry replaced by its coefficients' 1-norm, since |p(t)| <= |p|_1
    on |t| = 1 and a coefficient is at most the maximum there.
    """
    r = len(f) - 1
    if r < 2 or not f[-1]:
        raise ValueError("discriminant needs x-degree >= 2")
    c = len(f[-1]) - 1
    w = max((-((c - len(p) + 1) // (r - i)) for i, p in enumerate(f[:-1]) if p), default=0)
    norms = [sum(map(abs, p)) for p in f]
    f_rows, f_x_rows = sum(n * n for n in norms), sum((i * n) ** 2 for i, n in enumerate(norms))
    bits = (math.isqrt(f_rows ** (r - 1) * f_x_rows ** r) + 1).bit_length() + 1
    count = max((2 * r - 1) * c + r * (r - 1) * w, 0) + 1
    (res,) = _interpolated([f], (bits, count), _resultant_with_derivative)
    sign = (-1) ** (r * (r - 1) // 2)
    return UniPoly.make(sign * x for x in _int_exact_div(res, f[-1]))
