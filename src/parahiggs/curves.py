"""Affine spectral plane curves: symmetry, smoothness, fixed points.

The chart twist y = D(t) x with D = prod (t - a_k) clears the marked-point
denominators of the characteristic coefficients; `poly._chart_twist` forms it
over Z[t] where it is used, and it is not stored on the curve.  Every curve
handled here is one integer polynomial H over Z[t][x]: the primitive clearing of
f = x^r + s_1 D x^(r-1) + ... + s_r D^r, read off the field's integer
characteristic data e_i and denominator Delta with no arithmetic over Q(t).
Its leading coefficient is a positive integer constant, so f = H / lc(H),
and every certificate below is invariant under that constant factor.  The
twisted Pfaffian is the integer pair (P, s) for P / s; a UniPoly only wraps
integers at the calls that take or return one (`poly_gcd`, `rational_roots`,
`discriminant_x`).

Only involution-symmetric curves H(t, x) = G(t, x^2) are certified, the
spectral curves of Sp(2m), SO(2m) and (after dividing by x) SO(2m+1)
fields; the functions below raise on any other curve.  The certificate goes
through the quotient G: H_x = 2x G_Z, so H is smooth exactly when
c0 = G(t, 0) is squarefree (the points on x = 0) and G has no singular point
with Z != 0, which a squarefree disc_Z G certifies; disc_x H, a constant
times c0 (disc_Z G)^2, is itself squarefree only when disc_Z G is constant.
A zero c0 or disc_Z G means a non-reduced curve, and otherwise rational
singular points are searched for exactly over their repeated roots; the
honest answer is "inconclusive" when none is found.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .bipoly import discriminant_x
from .higgs import CharData, HiggsField, PoleOrderError
from .poly import (
    Q,
    UniPoly,
    _chart_twist,
    _hom_eval,
    _hom_evals,
    _int_derivative,
    _int_exact_div,
    _int_mul,
    _int_pow,
    _int_trim,
    _split_at,
    is_squarefree,
    poly_gcd,
    rational_roots,
)


class NonReducedCurveError(ValueError):
    pass


class PlaneCurve:
    """H(t, x) over Z[t], primitive with a positive constant leading
    coefficient, given by its ascending x-coefficients (ascending integer
    tuples); the curve is f = H / lc(H)."""

    def __init__(self, coeffs: tuple[tuple[int, ...], ...]):
        self.coeffs = coeffs

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    @cached_property
    def quotient(self) -> tuple[tuple[int, ...], ...] | None:
        """G with H(t, x) = G(t, x^2) when H is involution-symmetric, else None."""
        if any(self.coeffs[1::2]):
            return None
        return self.coeffs[::2]

    @cached_property
    def quotient_discriminant(self) -> UniPoly:
        """disc_Z G of the quotient, computed once per curve; 1 when deg_Z G = 1."""
        g = self.quotient
        return UniPoly.one() if len(g) == 2 else discriminant_x(g)


def _twist(delta, marked_points) -> tuple[list[int], list[int], int]:
    """(D~/g, Delta~/g, q) with D / Delta = (D~/g) / (q Delta~/g) for
    D = prod (t - a_k) and a nonzero Delta over Z[t]: D~ = D prod b_k from
    `_chart_twist`, Delta = k Delta~ for k the content of Delta,
    q = k prod b_k, and g = gcd(D~, Delta~), the product of the factors
    b_k t - a_k of the squarefree, primitive D~ at whose points Delta
    vanishes (`_split_at`), so no general gcd.  Delta~/g is primitive, so
    by Gauss's lemma a division by its powers is exact over Q exactly when
    it is over Z[t]."""
    twist, den = _chart_twist(marked_points)
    orders, _ = _split_at(delta, marked_points)
    g, _ = _chart_twist([a for a, v in zip(marked_points, orders) if v])
    k = math.gcd(*delta)
    return _int_exact_div(twist, g), _int_exact_div([x // k for x in delta], g), k * den


def twisted_curve(char: CharData, marked_points) -> PlaneCurve:
    """Curve y^r + sum_i s_i D^i y^(r-i), D = prod (t - a_k), from the char
    data s_i = e_i / Delta^i, held as its primitive clearing H over Z[t].
    With (up, down, q) = `_twist(Delta)`, s_i D^i = h_i / q^i for
    h_i = e_i up^i / down^i over Z[t], so H is the primitive part of
    sum_i q^(r-i) h_i y^(r-i), with lc(H) = q^r / content > 0; a field
    whose poles all sit at marked points needs no polynomial division.

    Strong parabolicity (pole order of s_i at most i - 1 < i, poles only at
    marked points) makes every h_i polynomial, so the division is exact
    over Z[t].  A non-zero remainder raises PoleOrderError.
    """
    up, down, q = _twist(char.delta, marked_points)
    r = char.r
    coeffs: list[list[int]] = [[]] * r + [[q**r]]
    up_power = down_power = [1]
    for i, e_i in enumerate(char.e, start=1):
        up_power = _int_mul(up_power, up)
        down_power = _int_mul(down_power, down)
        try:
            h_i = _int_exact_div(_int_mul(e_i, up_power), down_power)
        except ArithmeticError:
            raise PoleOrderError(
                f"s_{i} * D^{i} is not polynomial; pole outside the allowed order/locus"
            ) from None
        factor = q ** (r - i)
        coeffs[r - i] = [factor * c for c in h_i]
    content = math.gcd(*(c for h in coeffs for c in h))
    return PlaneCurve(tuple(tuple(c // content for c in h) for h in coeffs))


def build_plane_curve(fld: HiggsField) -> PlaneCurve:
    """Spectral curve of a Higgs field in the twisted polynomial chart; for
    so(2m+1), that of the x-cofactor char/x.  The curve is involution-
    symmetric only for an even char (x times an even char for so(2m+1)),
    which ``cli._spectral_section`` checks before it builds one."""
    char = fld.char_data
    if fld.group.kind == "so-odd":
        char = char.x_cofactor()
    return twisted_curve(char, fld.marked_points)


def twisted_pfaffian(fld: HiggsField) -> tuple[tuple[int, ...], int]:
    """(P, s) with Pf(B*Phi) * D^m = P / s over Z[t] for an so(2m) field:
    with B*Phi = P' / E and (up, down, q) = `_twist(E)`, P = Pf(P') up^m /
    down^m and s = q^m.  The division raises PoleOrderError when it is not
    exact.  `analyze` never meets that case: once build_plane_curve has made
    s_2m * D^2m polynomial and det B is constant, (Pf * D^m)^2 = det B *
    s_2m * D^2m is polynomial, so the guard covers direct callers only."""
    m = fld.group.m
    up, down, q = _twist(fld.gram_product[1], fld.marked_points)
    try:
        quo = _int_exact_div(_int_mul(fld.pfaffian, _int_pow(up, m)), _int_pow(down, m))
    except ArithmeticError:
        raise PoleOrderError(
            f"Pf(B*Phi) * D^{m} is not polynomial; pole outside the allowed order/locus"
        ) from None
    return tuple(quo), q**m


def involution_check(curve: PlaneCurve) -> bool:
    """True iff H(t, -x) = H(t, x), i.e. only even x-powers occur."""
    return curve.quotient is not None


def _symmetric_quotient(curve: PlaneCurve) -> tuple[tuple[int, ...], ...]:
    """The quotient G of an involution-symmetric curve; raises on any other."""
    if curve.quotient is None:
        raise ValueError("curve is not involution-symmetric")
    return curve.quotient


class SingularReport(NamedTuple):
    status: str  # "smooth" | "singular" | "inconclusive"
    witnesses: tuple[tuple[Fraction, Fraction], ...]
    disc_squarefree: bool  # proved smooth

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "witnesses": [[str(t0), str(x0)] for t0, x0 in self.witnesses],
            "disc_squarefree": self.disc_squarefree,
        }


def _repeated_part(p: UniPoly) -> UniPoly:
    """gcd(p, p'), whose roots are the repeated roots of p; 1 iff p is squarefree."""
    return poly_gcd(p, p.derivative())


def _slice(f, a: int, b: int) -> list[int]:
    """b^n f(a/b, X) over Z for a bivariate integer polynomial f whose
    X-coefficients have t-degree at most n."""
    return _int_trim(_hom_evals(f, a, b, max(len(h) for h in f) - 1))


def _rational_singular_points(g, rep: UniPoly) -> list[tuple[Fraction, Fraction]]:
    """Rational points where G = G_Z = G_t = 0 for G over Z[t] with a
    constant leading coefficient, searched over the rational roots of
    rep = gcd(disc, disc') for disc the Z-discriminant of G: the t of a
    singular point is a repeated root of disc.  A root Z0 of gcd(G, G_Z) over
    t0 is checked exactly against G_t."""
    g_t = [_int_derivative(h) for h in g]
    witnesses = []
    for t0, _ in rational_roots(rep):
        a, b = t0.numerator, t0.denominator
        fibre = _slice(g, a, b)
        common = poly_gcd(UniPoly.make(fibre), UniPoly.make(_int_derivative(fibre)))
        if common.degree < 1:
            continue
        fibre_t = _slice(g_t, a, b)
        for z0, _ in rational_roots(common):
            if _hom_eval(fibre_t, z0.numerator, z0.denominator) == 0:
                witnesses.append((t0, z0))
    return witnesses


def _rational_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    a, b = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return Q(a, b) if a * a == q.numerator and b * b == q.denominator else None


def _quotient_witnesses(curve: PlaneCurve, rep_c0: UniPoly, rep_g: UniPoly) -> list[tuple[Fraction, Fraction]]:
    """Rational singular points (t0, x0) of H, sorted: (t0, 0) for each
    rational root t0 of rep_c0 = gcd(c0, c0'), where H = H_x = 0 and
    H_t = c0' all vanish, and (t0, +-sqrt(Z0)) for each rational singular
    point (t0, Z0) of G with Z0 != 0 a rational square, as H_x = 2x G_Z and
    H_t = G_t there."""
    witnesses = [(t0, Q(0)) for t0, _ in rational_roots(rep_c0)]
    for t0, z0 in _rational_singular_points(curve.quotient, rep_g):
        root = _rational_sqrt(z0)
        if root:  # Z0 = 0 makes t0 a repeated root of c0, listed above
            witnesses += [(t0, -root), (t0, root)]
    return sorted(witnesses)


def smoothness_check(curve: PlaneCurve) -> SingularReport:
    """Certify smoothness of a symmetric affine curve H = G(t, x^2), or
    exhibit rational singular points, or answer "inconclusive".  Raises on a
    non-reduced curve and on a curve that is not involution-symmetric.

    H is smooth when c0 = G(t, 0) and disc_Z G are both squarefree.  The
    witnesses are the rational singular points, each checked exactly against
    the vanishing of the polynomial and both partials.
    """
    g = _symmetric_quotient(curve)
    if len(g) < 2:
        return SingularReport("smooth", (), True)
    # lc(H) is a nonzero constant, so H is primitive over Q[t] and by Gauss's
    # lemma has a repeated factor in Q[t, x] exactly when gcd(H, H_x) != 1
    # over Q(t), that is, exactly when its x-discriminant, a constant times
    # c0 (disc_Z G)^2, vanishes.
    c0, disc_g = UniPoly.make(g[0]), curve.quotient_discriminant
    if c0.is_zero or disc_g.is_zero:
        raise NonReducedCurveError("non-reduced curve")
    rep_c0, rep_g = _repeated_part(c0), _repeated_part(disc_g)
    if rep_c0.degree == 0 and rep_g.degree == 0:
        return SingularReport("smooth", (), True)
    witnesses = tuple(_quotient_witnesses(curve, rep_c0, rep_g))
    return SingularReport("singular" if witnesses else "inconclusive", witnesses, False)


class FixedPointReport(NamedTuple):
    count: int
    witnesses: tuple[tuple[Fraction, int], ...]  # rational roots with multiplicity


def involution_fixed_points(curve: PlaneCurve) -> FixedPointReport:
    """Fixed points of x -> -x on the curve: points (t0, 0) with c_r(t0) = 0.

    The count is deg c_r (all fixed points with multiplicity); the witnesses
    are the rational ones.
    """
    c_r = UniPoly.make(_symmetric_quotient(curve)[0])
    if c_r.is_zero:
        raise ValueError("zero section lies on the curve; fixed locus not finite")
    if c_r.degree == 0:
        return FixedPointReport(0, ())
    return FixedPointReport(c_r.degree, tuple(rational_roots(c_r)))


class SingularityPatternReport(NamedTuple):
    passed: bool
    count: int
    witnesses: tuple[tuple[Fraction, Fraction], ...]


def so_even_singularity_pattern(
    curve: PlaneCurve, twisted: tuple[tuple[int, ...], int], det_b: Fraction
) -> SingularityPatternReport:
    """Check the even-orthogonal singularity pattern for a Gram form of
    constant determinant det_b and the twisted Pfaffian P / s = Pf(B*Phi) D^m:
    f(t, 0) det_b = (P / s)^2, as f(t, 0) = Pf(B*Phi)^2 D^2m / det B, checked
    over Z[t] as H(t, 0) det_b s^2 = lc(H) P^2 for f = H / lc(H) with det_b's
    denominator cleared; a form that fails it raises ValueError.

    The witnesses are the points (t0, 0) over the rational roots t0 of P.
    Each is singular: det_b, s and lc(H) are nonzero constants, so the
    identity makes every root of P at least a double root of c0 = H(t, 0),
    and H_x(t, 0) vanishes identically by evenness while H_t(t, 0) = c0'.
    The returned count is deg(P), the number of pattern singularities with
    multiplicity.
    """
    c0 = _symmetric_quotient(curve)[0]
    pf, s = twisted
    if not pf:
        raise ValueError("zero Pfaffian: the zero section is a curve component")
    num, den = det_b.numerator, det_b.denominator
    if [c * num * s * s for c in c0] != _int_mul(pf, [c * curve.coeffs[-1][0] * den for c in pf]):
        raise ValueError("not an SO(2m) spectral polynomial: F(t,0) is not a unit times a square")
    count = len(pf) - 1
    roots = rational_roots(UniPoly.make(pf)) if count >= 1 else []
    return SingularityPatternReport(True, count, tuple((t0, Q(0)) for t0, _ in roots))


def ramification_degree_affine(curve: PlaneCurve) -> int:
    """deg_t of the x-discriminant (a constant times c0 (disc_Z G)^2) of a
    symmetric curve H = G(t, x^2), the affine branch count with multiplicity:
    deg c0 + 2 deg disc_Z G, read off the quotient.  Raises on any other curve."""
    g = _symmetric_quotient(curve)
    if len(g) < 2:
        return 0
    c0, disc_g = g[0], curve.quotient_discriminant
    if not c0 or disc_g.is_zero:
        raise ValueError("discriminant vanishes identically")
    return len(c0) - 1 + 2 * disc_g.degree


def hyperelliptic_genus(f: UniPoly) -> int:
    """Genus of the smooth projective model of x^2 = f(t) for squarefree f:
    floor((deg f - 1) / 2)."""
    if f.is_zero or f.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    if not is_squarefree(f):
        raise ValueError("branch polynomial must be squarefree")
    return (f.degree - 1) // 2
