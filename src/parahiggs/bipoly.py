"""Bivariate polynomials F(t, x), dense in x with UniPoly coefficients.

The x-eliminants (Sylvester resultant, discriminant) clear each operand to
Z[t] by the lcm of its coefficient denominators, run one Bareiss
fraction-free elimination on integer coefficient lists, where every division
is exact, and divide the known power of the two lcms out of the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .poly import Q, Scalar, UniPoly, _int_exact_div, _int_poly_mul_add


@dataclass(frozen=True)
class BiPoly:
    """Polynomial in x over Q[t]; coeffs ascending in x, no trailing zeros."""

    coeffs: tuple[UniPoly, ...]

    @staticmethod
    def make(cs: Iterable[UniPoly]) -> "BiPoly":
        lst = list(cs)
        while lst and lst[-1].is_zero:
            lst.pop()
        return BiPoly(tuple(lst))

    @staticmethod
    def zero() -> "BiPoly":
        return BiPoly(())

    @staticmethod
    def from_t(p: UniPoly) -> "BiPoly":
        return BiPoly.make([p])

    @staticmethod
    def x() -> "BiPoly":
        return BiPoly((UniPoly.zero(), UniPoly.one()))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def deg_x(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead(self) -> UniPoly:
        if not self.coeffs:
            raise ValueError("zero polynomial")
        return self.coeffs[-1]

    def coeff(self, k: int) -> UniPoly:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else UniPoly.zero()

    @property
    def is_monic_x(self) -> bool:
        return bool(self.coeffs) and self.lead == UniPoly.one()

    def __add__(self, other: "BiPoly") -> "BiPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return BiPoly.make(out)

    def __neg__(self) -> "BiPoly":
        return BiPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __mul__(self, other) -> "BiPoly":
        if isinstance(other, (int, Fraction)):
            other = BiPoly.from_t(UniPoly.const(other))
        elif isinstance(other, UniPoly):
            other = BiPoly.from_t(other)
        if self.is_zero or other.is_zero:
            return BiPoly.zero()
        out = [UniPoly.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return BiPoly.make(out)

    __rmul__ = __mul__

    def derivative_x(self) -> "BiPoly":
        return BiPoly.make(c * i for i, c in enumerate(self.coeffs) if i > 0)

    def derivative_t(self) -> "BiPoly":
        return BiPoly.make(c.derivative() for c in self.coeffs)

    def subs_neg_x(self) -> "BiPoly":
        """F(t, -x)."""
        return BiPoly(tuple(c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)))

    def eval_t(self, a: Scalar) -> UniPoly:
        """Specialize t = a; the result is a univariate polynomial in x."""
        return UniPoly.make(c(a) for c in self.coeffs)

    def __call__(self, t0: Scalar, x0: Scalar) -> Fraction:
        acc = Q(0)
        for c in reversed(self.coeffs):
            acc = acc * x0 + c(t0)
        return acc

    def to_json(self) -> list[list[str]]:
        return [c.to_json() for c in self.coeffs]

    @staticmethod
    def from_json(data: Sequence[Sequence[str]]) -> "BiPoly":
        return BiPoly.make(UniPoly.from_json(c) for c in data)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            mono = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            parts.append(f"({c}){'*' + mono if mono and not c.is_zero else mono}"
                         if i > 0 else f"({c})")
        return " + ".join(parts)


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
                while num and not num[-1]:
                    num.pop()
                m[i][j] = _int_exact_div(num, prev) if num else []
        prev = pivot
    return [sign * c for c in m[n - 1][n - 1]]


def _cleared(f: BiPoly) -> tuple[list[list[int]], int]:
    """(integer x-coefficients of L * f, L) with L the lcm of f's coefficient
    denominators."""
    lcm = math.lcm(*(c.denominator for p in f.coeffs for c in p.coeffs))
    return [[int(c * lcm) for c in p.coeffs] for p in f.coeffs], lcm


def sylvester_matrix(f, g, zero=UniPoly.zero()) -> list[list]:
    """Sylvester matrix of two BiPolys, or of two ascending x-coefficient
    lists over any ring whose zero is `zero`."""
    if isinstance(f, BiPoly):
        f, g = f.coeffs, g.coeffs
    f, g = list(f), list(g)
    p, q = len(f) - 1, len(g) - 1
    n = p + q
    rows = []
    # descending coefficient order, f-rows then g-rows
    for i in range(q):
        rows.append([zero] * i + f[::-1] + [zero] * (n - p - 1 - i))
    for i in range(p):
        rows.append([zero] * i + g[::-1] + [zero] * (n - q - 1 - i))
    return rows


def resultant_x(f: BiPoly, g: BiPoly) -> UniPoly:
    """Res_x(f, g) as the Sylvester determinant, computed fraction-free over
    Z[t] on f and g cleared of their denominators."""
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of zero polynomial")
    p, q = f.deg_x, g.deg_x
    if p == 0 and q == 0:
        raise ValueError("no variable to eliminate")
    if q == 0:
        return g.coeff(0) ** p
    if p == 0:
        return f.coeff(0) ** q
    (fz, lf), (gz, lg) = _cleared(f), _cleared(g)
    det = bareiss_det(sylvester_matrix(fz, gz, []))
    # Res(lf * f, lg * g) = lf^q * lg^p * Res(f, g)
    return UniPoly.make(Q(c, lf**q * lg**p) for c in det)


def discriminant_x(f: BiPoly) -> UniPoly:
    """disc(f) = (-1)^(r(r-1)/2) Res_x(f, f_x) for monic f of x-degree r >= 2."""
    r = f.deg_x
    if r < 2:
        raise ValueError("discriminant needs x-degree >= 2")
    if not f.is_monic_x:
        raise ValueError("discriminant convention requires a monic polynomial")
    res = resultant_x(f, f.derivative_x())
    return res * ((-1) ** (r * (r - 1) // 2))
