"""Exact univariate polynomials over Q and over Z, and rational functions.

Polynomials are dense ascending coefficient tuples of ``fractions.Fraction``;
the zero polynomial is the empty tuple.  Everything here is immutable and
pure, so values can be shared freely across threads.

UniPoly arithmetic is schoolbook: degrees in this project stay well under
100.  What grows with coefficient size runs on primitive integer coefficient
lists instead: the gcd is the heuristic GCDHEU (one integer gcd of values at a
large point, read back as digits and checked by exact division, with a
primitive PRS over Z as fallback), and the rational roots come from Loos'
p-adic method (roots modulo a small prime, Newton-lifted and read back by
rational reconstruction), polynomial in the coefficient bit length.

Integer polynomials are ascending ``int`` lists ([] is zero), and a bivariate
one over Z[t][x] is a list of them, ascending in x: the spectral curve of
``curves`` is held that way, primitive with a constant leading
coefficient, and its fibres over t0 = a/b come from `_hom_eval`, the one
integer evaluator.  A UniPoly wraps an integer list only where a public
function here takes one (`poly_gcd`, `rational_roots`).  The marked points
a_k / b_k enter through `_split_at`, which splits off their factors
(b_k t - a_k)^(v_k), and `_chart_twist`, which builds D~ = prod (b_k t - a_k).

A RationalFunction is a reduced num/den pair with no arithmetic of its own,
made from integer polynomials by one reduction (`RationalFunction.from_ints`).
A Higgs field is held as M / Delta with M and Delta over Z[t], every check
runs over Z[t], and its JSON entries go straight between coefficient strings
and ints: `int_fraction_from_json` parses them, reading a coefficient
without a "/" by one `int` call, and `fraction_writer` writes each fraction
p / Delta^i reduced, dividing out the factors of Delta at the marked points
by evaluation and exact division, not by a general gcd.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

Q = Fraction

Scalar = Union[int, Fraction]
Pair = tuple[int, int]  # (p, q) for the rational p / q, q > 0


def _as_q(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def json_int_or_str(x) -> int | str:
    """x if it is a JSON integer or string; ValueError on null, a boolean or a float."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValueError(f"expected a JSON integer or string, not {x!r}")
    return x


def q_from_str(s: int | str) -> Fraction:
    """The rational of a "p/q" string or an integer."""
    return Fraction(json_int_or_str(s))


_PLAIN_Q = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _q_pair(s) -> Pair:
    """(p, q > 0) with p / q = q_from_str(s): JSON integers, strings without a
    "/" that `int` reads, and plain "p/q" strings with q != 0 straight to
    ints, the rest through `q_from_str`.  A string without a "/" that `int`
    reads, `Fraction` reads too, to the same value."""
    if type(s) is int:
        return s, 1
    if type(s) is str and "/" not in s:
        try:
            return int(s), 1
        except ValueError:
            pass
    plain = type(s) is str and _PLAIN_Q.fullmatch(s)
    q = plain and int(plain[2] or 1)
    if q:
        return int(plain[1]), q
    x = q_from_str(s)
    return x.numerator, x.denominator


def _q_str(p: int, q: int) -> str:
    """str(Fraction(p, q)) for q != 0, from the two ints: "p/q", or "p" when q == 1."""
    g = math.gcd(p, q) * (1 if q > 0 else -1)
    p, q = p // g, q // g
    return str(p) if q == 1 else f"{p}/{q}"


class UniPoly(NamedTuple):
    """Dense univariate polynomial in t with Fraction coefficients.

    ``coeffs`` is ascending and carries no trailing zeros; the zero
    polynomial is the empty tuple and has degree -1.
    """

    coeffs: tuple[Fraction, ...]

    # -- construction ------------------------------------------------------

    @staticmethod
    def make(cs: Iterable[Scalar]) -> "UniPoly":
        return UniPoly(tuple(_int_trim([_as_q(c) for c in cs])))

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly(())

    @staticmethod
    def one() -> "UniPoly":
        return UniPoly((Q(1),))

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

    # -- ring operations ----------------------------------------------------

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

    # -- calculus -----------------------------------------------------------

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

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        return self * (1 / self.lc)

    # -- integer scaling ----------------------------------------------------

    def int_scaled(self) -> list[int]:
        """The primitive integer coefficient list (content 1, ascending) that
        self is a rational multiple of; empty for the zero polynomial."""
        if self.is_zero:
            return []
        den = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * den) for c in self.coeffs]
        g = math.gcd(*ints)
        return [c // g for c in ints]

    # -- serialization ------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mono = "t" if i == 1 else f"t^{i}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


# -- integer polynomials (ascending int lists, [] is zero) --------------------


def _int_primitive(p: list[int]) -> list[int]:
    g = math.gcd(*p)
    sign = -1 if p[-1] < 0 else 1
    return [c // (g * sign) for c in p]


def _int_derivative(p: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(p)][1:]


def _int_poly_mul_add(acc: list[int], p: Sequence[int], q: Sequence[int]) -> None:
    """acc += p * q for ascending integer coefficient lists."""
    if not p or not q:
        return
    if len(acc) < len(p) + len(q) - 1:
        acc.extend([0] * (len(p) + len(q) - 1 - len(acc)))
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(q):
                acc[i + j] += x * y


def _int_trim(p: list[int]) -> list[int]:
    """p without its trailing zeros, in place."""
    while p and not p[-1]:
        p.pop()
    return p


def _int_mul(p: Sequence[int], q: Sequence[int]) -> list[int]:
    """p * q for ascending integer coefficient lists."""
    acc: list[int] = []
    _int_poly_mul_add(acc, p, q)
    return acc


def _int_pow(p: Sequence[int], k: int) -> list[int]:
    """p^k for an ascending integer coefficient list and k >= 0."""
    out = [1]
    for _ in range(k):
        out = _int_mul(out, p)
    return out


def _int_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """lc(b)^(deg a - deg b + 1) * a mod b for integer polynomials without
    trailing zeros, b nonzero, and a when deg a < deg b: every step scales by
    lc(b), also when the top coefficient is already zero."""
    rem = list(a)
    db, lb = len(b) - 1, b[-1]
    for k in range(len(rem) - 1 - db, -1, -1):
        lr = rem.pop()
        rem = [c * lb for c in rem]
        if lr:
            for j, c in enumerate(b[:-1]):
                rem[k + j] -= lr * c
    return _int_trim(rem)


def _int_prs_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd (positive leading coefficient) of two nonzero integer
    polynomials, via a primitive PRS: the fallback of `_int_gcd`."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _int_pseudo_rem(a, b)
        if b:
            b = _int_primitive(b)
    return _int_primitive(a)


_HEU_STEPS = 6


def _symmetric_digits(n: int, xi: int) -> list[int]:
    """Digits of n in base xi, each in (-xi/2, xi/2], ascending."""
    digits = []
    while n:
        d = n % xi
        if d > xi // 2:
            d -= xi
        digits.append(d)
        n = (n - d) // xi
    return digits


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd (positive leading coefficient) of two nonzero integer
    polynomials, by the heuristic GCDHEU (Char, Geddes and Gonnet 1989).

    For primitive a, b and xi >= 2 min(|a|, |b|) + 2 in the max norm, the
    primitive part h of the symmetric xi-adic expansion of
    gcd(a(xi), b(xi)) is the gcd whenever h divides both a and b, so every
    candidate is accepted only after two exact divisions.  After
    _HEU_STEPS values of xi the primitive PRS decides.
    """
    if len(a) == 1 or len(b) == 1:
        return [1]
    a, b = _int_primitive(a), _int_primitive(b)
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    for _ in range(_HEU_STEPS):
        gamma = math.gcd(_hom_eval(a, xi, 1), _hom_eval(b, xi, 1))
        h = _int_primitive(_symmetric_digits(gamma, xi))
        try:
            _int_exact_div(a, h)
            _int_exact_div(b, h)
            return h
        except ArithmeticError:
            pass
        # the published step: xi grows by about 2.73 xi^(1/4), so a
        # bad point is left quickly while xi stays near the bound
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return _int_prs_gcd(a, b)


def _int_exact_div(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials with b | a in Z[t]; raises otherwise."""
    rem = list(a)
    db, lb = len(b) - 1, b[-1]
    quo = [0] * max(0, len(a) - db)
    for k in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[k + db], lb)
        if r:
            raise ArithmeticError("inexact polynomial division")
        if c:
            quo[k] = c
            for j, bj in enumerate(b):
                rem[k + j] -= c * bj
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return quo


def _hom_eval(p: list[int], a: int, b: int) -> int:
    """b^deg(p) * p(a/b), the homogeneous value sum p_i a^i b^(deg - i)."""
    acc, b_pow = 0, 1
    for c in reversed(p):
        acc = acc * a + c * b_pow
        b_pow *= b
    return acc


def _hom_evals(polys: Sequence[Sequence[int]], a: int, b: int, n: int) -> list[int]:
    """b^n * p(a/b) over Z for each p of a family of degree at most n: the
    values at a/b over one common power of b."""
    return [_hom_eval(p, a, b) * b ** (n + 1 - len(p)) for p in polys]


def _eval_mod(p: list[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = (acc * x + c) % m
    return acc


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over Q, via the primitive gcd over Z."""
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    if a.degree == 0 or b.degree == 0:
        return UniPoly.one()
    return UniPoly.make(_int_gcd(a.int_scaled(), b.int_scaled())).monic()


def is_squarefree(p: UniPoly) -> bool:
    if p.is_zero:
        return False
    return p.degree < 1 or poly_gcd(p, p.derivative()).degree == 0


def _strip_root(f: Sequence[int], a: int, b: int, most: int | None = None) -> tuple[Sequence[int], int]:
    """(f / (b t - a)^k, k) for a nonzero integer polynomial f and the
    multiplicity k of its root a/b, or k = most when that is smaller.  Each
    division is exact over Z[t] by Gauss's lemma, so the quotient q is read
    off by synthetic division, f_j = b q_(j-1) - a q_j from the top.  The
    zero polynomial, of which every point is a root, raises ValueError."""
    if not any(f):
        raise ValueError("zero polynomial")
    k = 0
    while k != most and _hom_eval(f, a, b) == 0:
        q, c = [0] * (len(f) - 1), 0
        for j in range(len(f) - 1, 0, -1):
            c = q[j - 1] = (f[j] + a * c) // b
        f = q
        k += 1
    return f, k


def _split_at(delta: Sequence[int], points: Sequence[Fraction]) -> tuple[list[int], Sequence[int]]:
    """(orders, rest) with delta = prod (b_k t - a_k)^(orders[k]) * rest and
    rest(a_k) != 0, for a nonzero integer polynomial delta and distinct
    points a_k / b_k in lowest terms: `_strip_root` at each point in turn."""
    orders = []
    for x in points:
        delta, v = _strip_root(delta, x.numerator, x.denominator)
        orders.append(v)
    return orders, delta


def _chart_twist(points) -> tuple[list[int], int]:
    """(D~, prod b_k) with D~ = prod (b_k t - a_k) for the points a_k / b_k
    in lowest terms, so D = prod (t - a_k) = D~ / prod b_k; D~ is squarefree
    and primitive, with a positive leading coefficient, for distinct points."""
    twist, den = [1], 1
    for a in map(Fraction, points):
        twist, den = _int_mul(twist, [-a.numerator, a.denominator]), den * a.denominator
    return twist, den


def root_multiplicity(p: Sequence[int], a: Scalar) -> int:
    """Multiplicity of the root t = a of a nonzero integer polynomial p
    (ascending coefficients); 0 if a is not a root."""
    a = _as_q(a)
    return _strip_root(list(p), a.numerator, a.denominator)[1]


def _lifting_prime(f: list[int], df: list[int]) -> tuple[int, list[int]]:
    """The smallest odd prime p not dividing lc(f) at which every root of f
    mod p is simple, with those roots; f must be squarefree over Q."""
    p = 1
    while True:
        p += 2
        if f[-1] % p == 0 or any(p % q == 0 for q in range(3, math.isqrt(p) + 1, 2)):
            continue
        roots = [r for r in range(p) if _eval_mod(f, r, p) == 0]
        if all(_eval_mod(df, r, p) for r in roots):
            return p, roots


def _reconstruct(u: int, m: int, bound: int) -> Fraction:
    """Wang's rational reconstruction: the fraction r/s = u mod m with
    |r| <= bound read off the half-extended Euclidean algorithm.  It is the
    one such fraction with 0 < s <= D whenever one exists and m > 2 bound D."""
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    return Q(r1, s1)


def _squarefree_rational_roots(f: list[int]) -> list[Fraction]:
    """Rational roots of a squarefree integer polynomial with f(0) != 0.

    Loos' p-adic method: a root a/b in lowest terms has b | lc(f) and
    a | f(0), so for a prime p not dividing lc(f) it reduces to a root of
    f mod p, simple by the choice of p.  Each root mod p is Newton-lifted to
    p^k > 2 |lc(f)| |f(0)|, which makes a/b its unique rational
    reconstruction; every candidate is kept only if it is an exact root.
    """
    df = _int_derivative(f)
    p, mod_roots = _lifting_prime(f, df)
    bound = abs(f[0])
    target = 2 * abs(f[-1]) * bound
    roots = []
    for x in mod_roots:
        m = p
        while m <= target:
            m *= m
            x = (x - _eval_mod(f, x, m) * pow(_eval_mod(df, x, m), -1, m)) % m
        cand = _reconstruct(x, m, bound)
        if _hom_eval(f, cand.numerator, cand.denominator) == 0:
            roots.append(cand)
    return roots


def rational_roots(p: UniPoly) -> list[tuple[Fraction, int]]:
    """All rational roots of p with multiplicities, sorted ascending.

    The roots of the squarefree part come from `_squarefree_rational_roots`;
    `_strip_root` counts each multiplicity.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    f = p.int_scaled()
    k = next(i for i, c in enumerate(f) if c)
    f = f[k:]
    roots = [(Q(0), k)] if k else []
    if len(f) > 1:
        sf = _int_exact_div(f, _int_gcd(f, _int_derivative(f)))
        for root in _squarefree_rational_roots(sf):
            f, mult = _strip_root(f, root.numerator, root.denominator)
            roots.append((root, mult))
    return sorted(roots)


def interpolate_int_range(ys: Sequence[int]) -> list[int]:
    """The polynomial in Z[t] taking the values ys at nodes 0, 1, ...,
    len(ys)-1, as ascending integer coefficients without trailing zeros.

    Newton's form in the falling factorials t(t-1)...(t-k+1): level k of the
    forward differences, divided by k exactly, is Delta^k ys / k!, whose
    first entry is the k-th Newton coefficient.  Every level is integral
    exactly when the interpolant is in Z[t]; an inexact division raises
    ArithmeticError.  Nested multiplication by (t - k) expands the form.
    """
    if not ys:
        raise ValueError("need at least one value")
    level = list(ys)
    newton = [level[0]]
    for k in range(1, len(level)):
        nxt = [(b - a) // k for a, b in zip(level, level[1:])]
        # floor division leaves remainders >= 0, so it was exact throughout
        # iff the quotients add up to the differences' (telescoped) sum / k
        if k * sum(nxt) != level[-1] - level[0]:
            raise ArithmeticError("interpolant is not in Z[t]")
        level = nxt
        newton.append(level[0])
        if not any(level):  # then every later level is zero too
            break
    out = [newton[-1]]
    for k in range(len(newton) - 2, -1, -1):
        # out * (t - k) + newton[k]
        out = [newton[k] - k * out[0], *(a - k * b for a, b in zip(out, out[1:])), out[-1]]
    return _int_trim(out)


def int_fraction(num: Sequence[Pair], den: Sequence[Pair]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(n, delta) over Z[t] with n / delta = num / den, for ascending lists of
    rational coefficients held as pairs; trailing zeros are dropped.  Raises
    ZeroDivisionError on a zero denominator."""
    scale = math.lcm(*(q for _, q in num), *(q for _, q in den))
    n = _int_trim([p * (scale // q) for p, q in num])
    delta = _int_trim([p * (scale // q) for p, q in den])
    if not delta:
        raise ZeroDivisionError("zero denominator")
    return tuple(n), tuple(delta)


def int_fraction_from_json(data: dict) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """`int_fraction` of an entry {"num": [...], "den": [...]} whose
    coefficients parse as `q_from_str` parses them; raises ValueError on an
    entry of any other shape."""
    if not isinstance(data, dict) or not all(isinstance(data.get(k), list) for k in ("num", "den")):
        raise ValueError(f'a matrix entry must be {{"num": [...], "den": [...]}}, not {data!r}')
    num = [_q_pair(s) for s in data["num"]]
    return int_fraction(num, [_q_pair(s) for s in data["den"]])


def int_fraction_grid_from_json(data) -> list[list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """`int_fraction_from_json` of each entry of a JSON list of rows; raises
    ValueError on a document of any other shape."""
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ValueError(f"a matrix must be a list of rows, not {data!r}")
    return [[int_fraction_from_json(x) for x in row] for row in data]


def _reduced(num: Sequence[int], den: Sequence[int]) -> tuple[Sequence[int], Sequence[int]]:
    """num / den over Z[t] with their polynomial gcd divided out, for integer
    coefficient lists without trailing zeros, num and den nonzero: one gcd
    and two exact divisions."""
    if len(num) > 1 and len(den) > 1:
        g = _int_gcd(list(num), list(den))
        if len(g) > 1:
            return _int_exact_div(num, g), _int_exact_div(den, g)
    return num, den


def fraction_writer(delta: Sequence[int], points: Sequence[Fraction]):
    """write(p, i=1): the JSON entry {"num": [...], "den": [...]} of the
    reduced p / delta^i, its denominator monic and each coefficient printed
    from ints as `str(Fraction)` prints it, for integer coefficient lists
    without trailing zeros, delta nonzero.

    Once per writer, delta = prod (b_k t - a_k)^(v_k) * R by `_split_at`
    over the points a_k / b_k.  Then gcd(p, delta^i) is the product
    of the (b_k t - a_k)^min(ord p, i v_k), stripped from p by evaluating it
    at a_k and dividing exactly (`_strip_root`), and of gcd(p, R^i), which
    needs a general gcd only when R is not constant (a pole off the points,
    as on `reduce-odd` output).  By Gauss's lemma every division is exact
    over Z[t], and the stripped p is the numerator `RationalFunction.from_ints`
    finds up to a constant, which printing over the leading coefficient of
    the denominator removes.  Each denominator is printed once per pattern
    of strips."""
    orders, rest = _split_at(delta, points)
    factors = [(x.numerator, x.denominator, v) for x, v in zip(points, orders) if v]
    rest_powers: dict[int, list[int]] = {}
    dens: dict[tuple, tuple[int, list[str]]] = {}

    def write(p: Sequence[int], i: int = 1) -> dict:
        if not p:
            return {"num": [], "den": ["1"]}
        strips = []
        for a, b, v in factors:
            p, s = _strip_root(p, a, b, i * v)
            strips.append(s)
        if i not in rest_powers:
            rest_powers[i] = _int_pow(rest, i)
        g: tuple[int, ...] = ()
        if len(rest) > 1 and len(p) > 1:
            g = tuple(_int_gcd(p, rest_powers[i]))
            if len(g) > 1:
                p = _int_exact_div(p, g)
            else:
                g = ()
        key = i, tuple(strips), g
        if key not in dens:
            den = rest_powers[i]
            for (a, b, v), s in zip(factors, strips):
                den = _int_mul(den, _int_pow([-a, b], i * v - s))
            if g:
                den = _int_exact_div(den, g)
            dens[key] = den[-1], [_q_str(c, den[-1]) for c in den]
        lead, den_json = dens[key]
        return {"num": [_q_str(c, lead) for c in p], "den": list(den_json)}

    return write


class RationalFunction(NamedTuple):
    """Reduced fraction of UniPoly: den monic and nonzero, gcd(num, den) = 1."""

    num: UniPoly
    den: UniPoly

    @staticmethod
    def from_ints(num: Sequence[int], den: Sequence[int]) -> "RationalFunction":
        """num / den in lowest terms, for integer coefficient lists without
        trailing zeros and den nonzero: `_reduced` and a monic denominator.
        Every RationalFunction is reduced here."""
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return RationalFunction(UniPoly.zero(), UniPoly.one())
        num, den = _reduced(num, den)
        lead = den[-1]
        return RationalFunction(UniPoly(tuple(Q(c, lead) for c in num)), UniPoly(tuple(Q(c, lead) for c in den)))

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def __str__(self) -> str:
        if self.is_polynomial:
            return str(self.num)
        return f"({self.num}) / ({self.den})"
