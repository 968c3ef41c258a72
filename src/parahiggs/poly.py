"""Exact univariate polynomial and rational-function arithmetic over Q.

Polynomials are dense ascending coefficient tuples of ``fractions.Fraction``;
the zero polynomial is the empty tuple.  Everything here is immutable and
pure, so values can be shared freely across threads.

Degrees in this project stay well under 100, so all algorithms are the
simple dense ones; gcds go through a primitive-PRS over the integers to
avoid coefficient blow-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

Q = Fraction

Scalar = Union[int, Fraction]


def _as_q(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def q_to_str(x: Fraction) -> str:
    """Serialize a rational as "p/q", omitting "/q" when q == 1."""
    return str(x)


def q_from_str(s: str) -> Fraction:
    return Fraction(s)


@dataclass(frozen=True)
class UniPoly:
    """Dense univariate polynomial in t with Fraction coefficients.

    ``coeffs`` is ascending and carries no trailing zeros; the zero
    polynomial is the empty tuple and has degree -1.
    """

    coeffs: tuple[Fraction, ...]

    # -- construction ------------------------------------------------------

    @staticmethod
    def make(cs: Iterable[Scalar]) -> "UniPoly":
        lst = [_as_q(c) for c in cs]
        while lst and lst[-1] == 0:
            lst.pop()
        return UniPoly(tuple(lst))

    @staticmethod
    def const(c: Scalar) -> "UniPoly":
        return UniPoly.make([c])

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly(())

    @staticmethod
    def one() -> "UniPoly":
        return UniPoly((Q(1),))

    @staticmethod
    def t() -> "UniPoly":
        return UniPoly((Q(0), Q(1)))

    @staticmethod
    def linear_root(a: Scalar) -> "UniPoly":
        """The monic linear polynomial t - a."""
        return UniPoly.make([-_as_q(a), 1])

    # -- basic queries ------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Q(0)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly.make(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: Union["UniPoly", Scalar]) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            o = _as_q(other)
            if o == 0:
                return UniPoly.zero()
            return UniPoly(tuple(c * o for c in self.coeffs))
        if self.is_zero or other.is_zero:
            return UniPoly.zero()
        out = [Q(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly.make(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative power")
        result = UniPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- evaluation / calculus ---------------------------------------------

    def __call__(self, a: Scalar) -> Fraction:
        acc = Q(0)
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly.make(i * c for i, c in enumerate(self.coeffs) if i > 0)

    # -- division -----------------------------------------------------------

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Q(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lc = other.lc
        for k in range(len(rem) - 1, d - 1, -1):
            if rem[k] == 0:
                continue
            f = rem[k] / lc
            q[k - d] = f
            for j, c in enumerate(other.coeffs):
                rem[k - d + j] -= f * c
        return UniPoly.make(q), UniPoly.make(rem)

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divmod(other)
        if not r.is_zero:
            raise ArithmeticError("inexact polynomial division")
        return q

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        return self * (1 / self.lc)

    # -- integer scaling ----------------------------------------------------

    def int_scaled(self) -> tuple[list[int], Fraction]:
        """Return (integer coefficient list, scale) with self == scale * ints.

        The integer list is primitive (content 1, ascending) and empty for
        the zero polynomial (scale 1).
        """
        if self.is_zero:
            return [], Q(1)
        den = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * den) for c in self.coeffs]
        g = math.gcd(*ints)
        ints = [c // g for c in ints]
        return ints, Q(g, den)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> list[str]:
        return [q_to_str(c) for c in self.coeffs]

    @staticmethod
    def from_json(data: Sequence[str]) -> "UniPoly":
        return UniPoly.make(Fraction(s) for s in data)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(q_to_str(c))
            else:
                mono = "t" if i == 1 else f"t^{i}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{q_to_str(c)}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


# -- integer-level helpers (primitive PRS gcd) -------------------------------


def _int_primitive(p: list[int]) -> list[int]:
    g = math.gcd(*p)
    sign = -1 if p[-1] < 0 else 1
    return [c // (g * sign) for c in p]


def _int_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of integer polynomials (ascending lists)."""
    rem = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(rem) - 1 >= db and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < db:
            break
        k = len(rem) - 1 - db
        lr = rem[-1]
        rem = [c * lb for c in rem]
        for j, c in enumerate(b):
            rem[k + j] -= lr * c
        rem.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over Q, via a primitive PRS over Z."""
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    if a.degree == 0 or b.degree == 0:
        return UniPoly.one()
    pa, _ = a.int_scaled()
    pb, _ = b.int_scaled()
    if len(pa) < len(pb):
        pa, pb = pb, pa
    while pb:
        pa, pb = pb, _int_pseudo_rem(pa, pb)
        if pb:
            pb = _int_primitive(pb)
    return UniPoly.make(pa).monic()


def poly_lcm(a: UniPoly, b: UniPoly) -> UniPoly:
    if a.is_zero or b.is_zero:
        return UniPoly.zero()
    return (a * b).exact_div(poly_gcd(a, b)).monic()


def squarefree_part(p: UniPoly) -> UniPoly:
    """Monic p / gcd(p, p'); strips repeated roots.

    Raises ValueError on the zero polynomial.
    """
    if p.is_zero:
        raise ValueError("zero input")
    if p.degree == 0:
        return UniPoly.one()
    return p.exact_div(poly_gcd(p, p.derivative())).monic()


def is_squarefree(p: UniPoly) -> bool:
    if p.is_zero:
        return False
    return p.degree < 1 or poly_gcd(p, p.derivative()).degree == 0


def root_multiplicity(p: UniPoly, a: Scalar) -> int:
    """Multiplicity of (t - a) in p; 0 if a is not a root.  p must be nonzero."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    a = _as_q(a)
    mult = 0
    lin = UniPoly.linear_root(a)
    while p(a) == 0:
        p = p.exact_div(lin)
        mult += 1
    return mult


def _int_divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def rational_roots(p: UniPoly) -> list[tuple[Fraction, int]]:
    """All rational roots of p with multiplicities, sorted ascending."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    roots: list[tuple[Fraction, int]] = []
    # strip t = 0 first so the constant term below is nonzero
    k = 0
    while p.coeff(0) == 0 and p.degree >= 1:
        p = UniPoly(p.coeffs[1:])
        k += 1
    if k:
        roots.append((Q(0), k))
    if p.degree >= 1:
        ints, _ = p.int_scaled()
        sf = squarefree_part(UniPoly.make(ints))
        sf_ints, _ = sf.int_scaled()
        for num in _int_divisors(sf_ints[0]):
            for den in _int_divisors(sf_ints[-1]):
                for cand in (Q(num, den), Q(-num, den)):
                    if sf(cand) == 0 and all(r != cand for r, _ in roots):
                        roots.append((cand, root_multiplicity(p, cand)))
    return sorted(roots)


def interpolate_int_range(ys: Sequence[int]) -> UniPoly:
    """Interpolate integer values at nodes 0, 1, ..., len(ys)-1.

    All-integer forward-difference scheme over the common denominator
    (len-1)!; only the final per-coefficient normalization touches
    Fractions, which keeps large instances fast.
    """
    n = len(ys)
    if n == 0:
        raise ValueError("need at least one value")
    diff = list(ys)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            diff[i] -= diff[i - 1]
    top = math.factorial(n - 1)
    acc = [0] * n
    basis = [1]  # prod_{j<k} (t - j), ascending int coefficients
    fact = 1
    for k in range(n):
        if k:
            fact *= k
            # basis *= (t - (k-1))
            prev = basis
            basis = [0] * (len(prev) + 1)
            for idx, c in enumerate(prev):
                basis[idx + 1] += c
                basis[idx] -= c * (k - 1)
        if diff[k]:
            scale = diff[k] * (top // fact)
            for idx, c in enumerate(basis):
                acc[idx] += scale * c
    return UniPoly.make(Q(c, top) for c in acc)


@dataclass(frozen=True)
class RationalFunction:
    """Reduced fraction of UniPoly: den monic and nonzero, gcd(num, den) = 1."""

    num: UniPoly
    den: UniPoly

    @staticmethod
    def make(num, den=None) -> "RationalFunction":
        if isinstance(num, (int, Fraction)):
            num = UniPoly.const(num)
        if den is None:
            den = UniPoly.one()
        elif isinstance(den, (int, Fraction)):
            den = UniPoly.const(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            return RationalFunction(UniPoly.zero(), UniPoly.one())
        if den.degree == 0:
            return RationalFunction(num * (1 / den.lc), UniPoly.one())
        if num.degree > 0:  # gcd against a constant numerator is trivially 1
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
        lc = den.lc
        return RationalFunction(num * (1 / lc), den * (1 / lc))

    @staticmethod
    def zero() -> "RationalFunction":
        return RationalFunction(UniPoly.zero(), UniPoly.one())

    @staticmethod
    def one() -> "RationalFunction":
        return RationalFunction(UniPoly.one(), UniPoly.one())

    @staticmethod
    def t() -> "RationalFunction":
        return RationalFunction(UniPoly.t(), UniPoly.one())

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def as_poly(self) -> UniPoly:
        if not self.is_polynomial:
            raise ArithmeticError(f"not a polynomial: {self}")
        return self.num

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, UniPoly):
            return RationalFunction.make(other)
        return RationalFunction.make(UniPoly.const(other))

    def __add__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        return RationalFunction.make(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RationalFunction":
        return self._coerce(other) - self

    def __mul__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if self.is_zero or o.is_zero:
            return RationalFunction.zero()
        # cross-reduce first to keep intermediate degrees down
        n1, d1, n2, d2 = self.num, self.den, o.num, o.den
        if n1.degree > 0 and d2.degree > 0:
            g1 = poly_gcd(n1, d2)
            if g1.degree > 0:
                n1, d2 = n1.exact_div(g1), d2.exact_div(g1)
        if n2.degree > 0 and d1.degree > 0:
            g2 = poly_gcd(n2, d1)
            if g2.degree > 0:
                n2, d1 = n2.exact_div(g2), d1.exact_div(g2)
        num, den = n1 * n2, d1 * d2
        # cross-reduced parts are already coprime; only normalize den monic
        lc = den.lc
        return RationalFunction(num * (1 / lc), den * (1 / lc))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return self * RationalFunction.make(o.den, o.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        return self._coerce(other) / self

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("zero to a negative power")
            return RationalFunction.make(self.den**-n, self.num**-n)
        return RationalFunction(self.num**n, self.den**n)

    def __call__(self, a: Scalar) -> Fraction:
        d = self.den(a)
        if d == 0:
            raise ZeroDivisionError(f"pole at t = {a}")
        return self.num(a) / d

    def pole_order_at(self, a: Scalar) -> int | None:
        """Order of the pole at t = a: positive for a pole, <= 0 for a zero or
        regular point, None for the zero function (regular everywhere)."""
        if self.is_zero:
            return None
        a = _as_q(a)
        if self.den(a) == 0:
            return root_multiplicity(self.den, a)
        return -root_multiplicity(self.num, a) if self.num(a) == 0 else 0

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @staticmethod
    def from_json(data: dict) -> "RationalFunction":
        return RationalFunction.make(UniPoly.from_json(data["num"]), UniPoly.from_json(data["den"]))

    def __str__(self) -> str:
        if self.is_polynomial:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

