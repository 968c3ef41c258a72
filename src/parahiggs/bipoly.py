"""Bivariate polynomials F(t, x), dense in x with UniPoly coefficients.

The x-eliminants (Sylvester resultant, discriminant) run Bareiss
fraction-free elimination over Q[t]; every division there is exact, so no
rational functions appear at intermediate stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .poly import Q, Scalar, UniPoly


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


def _bareiss_det_unipoly(m: list[list[UniPoly]]) -> UniPoly:
    """Fraction-free determinant of a matrix over Q[t] (Bareiss).

    Every interior division is exact by the Bareiss identity; row swaps flip
    the sign.  The input list is consumed.
    """
    n = len(m)
    if n == 0:
        return UniPoly.one()
    sign = 1
    prev = UniPoly.one()
    for k in range(n - 1):
        if m[k][k].is_zero:
            for i in range(k + 1, n):
                if not m[i][k].is_zero:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return UniPoly.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = num.exact_div(prev)
            m[i][k] = UniPoly.zero()
        prev = m[k][k]
    return m[n - 1][n - 1] * sign


def sylvester_matrix(f: BiPoly, g: BiPoly) -> list[list[UniPoly]]:
    p, q = f.deg_x, g.deg_x
    n = p + q
    rows: list[list[UniPoly]] = []
    # descending coefficient order, f-rows then g-rows
    fc = [f.coeff(p - i) for i in range(p + 1)]
    gc = [g.coeff(q - i) for i in range(q + 1)]
    for i in range(q):
        rows.append([UniPoly.zero()] * i + fc + [UniPoly.zero()] * (n - p - 1 - i))
    for i in range(p):
        rows.append([UniPoly.zero()] * i + gc + [UniPoly.zero()] * (n - q - 1 - i))
    return rows


def resultant_x(f: BiPoly, g: BiPoly) -> UniPoly:
    """Res_x(f, g) as the Sylvester determinant, computed fraction-free."""
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of zero polynomial")
    p, q = f.deg_x, g.deg_x
    if p == 0 and q == 0:
        raise ValueError("no variable to eliminate")
    if q == 0:
        return g.coeff(0) ** p
    if p == 0:
        return f.coeff(0) ** q
    return _bareiss_det_unipoly(sylvester_matrix(f, g))


def discriminant_x(f: BiPoly) -> UniPoly:
    """disc(f) = (-1)^(r(r-1)/2) Res_x(f, f_x) for monic f of x-degree r >= 2."""
    r = f.deg_x
    if r < 2:
        raise ValueError("discriminant needs x-degree >= 2")
    if not f.is_monic_x:
        raise ValueError("discriminant convention requires a monic polynomial")
    res = resultant_x(f, f.derivative_x())
    return res * ((-1) ** (r * (r - 1) // 2))
