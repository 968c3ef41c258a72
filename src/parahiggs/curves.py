"""Affine spectral plane curves: symmetry, smoothness, fixed points.

The chart twist y = D(t) x with D = prod (t - a_k) clears the marked-point
denominators of the characteristic coefficients; it is formed over Z[t] where
it is used, not stored on the curve.  Every curve handled here is held over
Z[t][X] with one rational scale mu: f(t, x) = mu^r F(t, x / mu) for
F = X^r + h_1 X^(r-1) + ... + h_r monic over Z[t], read off the field's
integer characteristic data e_i and clearing c*d with no arithmetic over Q(t)
and no division over Q.  Every certificate below is invariant under x = mu X,
so it runs on the integer lists h_i; witnesses map back through x0 = mu X0.

Only involution-symmetric curves F(t, X) = G(t, X^2) are certified, the
spectral curves of Sp(2m), SO(2m) and (after dividing by x) SO(2m+1)
fields; the functions below raise on any other curve.  The certificate goes
through the quotient G: F_X = 2X G_Z, so F is smooth exactly when
c0 = G(t, 0) is squarefree (the points on X = 0) and G has no singular point
with Z != 0, which a squarefree disc_Z G certifies; disc_X F =
(-4)^m c0 (disc_Z G)^2 itself is squarefree only when disc_Z G is constant.
A zero c0 or disc_Z G means a non-reduced curve, and otherwise rational
singular points are searched for exactly over their repeated roots; the
honest answer is "inconclusive" when none is found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .bipoly import discriminant_x
from .higgs import CharData, HiggsField, PoleOrderError
from .poly import (
    Q,
    UniPoly,
    _hom_eval,
    _int_derivative,
    _int_exact_div,
    _int_gcd,
    _int_mul,
    _int_trim,
    is_squarefree,
    poly_gcd,
    rational_roots,
)


class NonReducedCurveError(ValueError):
    pass


@dataclass(frozen=True)
class PlaneCurve:
    """f(t, x) = scale^r F(t, x / scale) for F monic in X over Z[t], given by
    its ascending X-coefficients (ascending integer tuples)."""

    coeffs: tuple[tuple[int, ...], ...]
    scale: Fraction = Q(1)

    def __post_init__(self):
        if not self.coeffs or self.coeffs[-1] != (1,):
            raise ValueError("plane curve must be monic in x")

    @property
    def r(self) -> int:
        return len(self.coeffs) - 1

    @cached_property
    def quotient(self) -> tuple[tuple[int, ...], ...] | None:
        """G with F(t, X) = G(t, X^2) when F is involution-symmetric, else None."""
        if any(self.coeffs[1::2]):
            return None
        return self.coeffs[::2]

    @cached_property
    def quotient_discriminant(self) -> UniPoly:
        """disc_Z G of the quotient, computed once per curve; 1 when deg_Z G = 1."""
        g = self.quotient
        return UniPoly.one() if len(g) == 2 else discriminant_x(g)


def _chart_twist(marked_points) -> tuple[list[int], int]:
    """(D~, prod b_k) with D~ = prod (b_k t - p_k) for the marked points
    a_k = p_k / b_k in lowest terms, so D = prod (t - a_k) = D~ / prod b_k."""
    twist, den = [1], 1
    for a in map(Fraction, marked_points):
        twist, den = _int_mul(twist, [-a.numerator, a.denominator]), den * a.denominator
    return twist, den


def twisted_curve(char: CharData, marked_points) -> PlaneCurve:
    """Curve y^r + sum_i s_i D^i y^(r-i), D = prod (t - a_k), from the char
    data s_i = e_i / (c*d)^i, held over Z[t].  With D~ = D prod b_k from
    `_chart_twist`, d~ = char.d the primitive clearing of d and
    g = gcd(D~, d~): s_i D^i = mu^i h_i for h_i = e_i (D~/g)^i / (d~/g)^i over
    Z[t] and mu = lc(d~) / (c prod b_k); a field whose poles all sit at marked
    points (d | D) needs no polynomial division.

    Strong parabolicity (pole order of s_i at most i - 1 < i, poles only at
    marked points) makes every h_i polynomial, and (d~/g)^i is primitive, so
    the division is exact over Z[t].  A non-zero remainder raises
    PoleOrderError.
    """
    twist, den = _chart_twist(marked_points)
    g = _int_gcd(twist, char.d)
    up, down = _int_exact_div(twist, g), _int_exact_div(char.d, g)
    r = char.r
    coeffs: list[tuple[int, ...]] = [(1,)] * (r + 1)
    up_power = down_power = [1]
    for i, e_i in enumerate(char.e, start=1):
        up_power = _int_mul(up_power, up)
        down_power = _int_mul(down_power, down)
        try:
            coeffs[r - i] = tuple(_int_exact_div(_int_mul(e_i, up_power), down_power))
        except ArithmeticError:
            raise PoleOrderError(
                f"s_{i} * D^{i} is not polynomial; pole outside the allowed order/locus"
            ) from None
    return PlaneCurve(tuple(coeffs), Q(char.d[-1], char.c * den))


def build_plane_curve(fld: HiggsField) -> PlaneCurve:
    """Spectral curve of a Higgs field in the twisted polynomial chart; for
    so(2m+1), that of the x-cofactor char/x.  The curve is involution-
    symmetric only for an even char (x times an even char for so(2m+1)),
    which ``cli._spectral_section`` checks before it builds one."""
    char = fld.char_data
    if fld.group.kind == "so-odd":
        char = char.x_cofactor()
    return twisted_curve(char, fld.marked_points)


def twisted_pfaffian(fld: HiggsField) -> UniPoly:
    """Pf(B*Phi) * D^m of an so(2m) field: with B*Phi cleared to (P, E, k) and
    D = D~ / prod b_k, Pf(P) D~^m / E^m times (lc(E) / (k prod b_k))^m.  E is
    primitive, so the division is exact over Q exactly when it is over Z[t];
    it raises PoleOrderError when it is not.  `analyze` never meets that case: once
    build_plane_curve has made s_2m * D^2m polynomial and det B is constant,
    (Pf * D^m)^2 = det B * s_2m * D^2m is polynomial, so the guard covers
    direct callers only."""
    m = fld.group.m
    _, e, k = fld.gram_product
    twist, den = _chart_twist(fld.marked_points)
    num, e_power = list(fld.pfaffian), [1]
    for _ in range(m):
        num, e_power = _int_mul(num, twist), _int_mul(e_power, e)
    try:
        quo = _int_exact_div(num, e_power)
    except ArithmeticError:
        raise PoleOrderError(
            f"Pf(B*Phi) * D^{m} is not polynomial; pole outside the allowed order/locus"
        ) from None
    return UniPoly.make(quo) * Q(e[-1], k * den) ** m


def involution_check(curve: PlaneCurve) -> bool:
    """True iff F(t, -x) = F(t, x), i.e. only even x-powers occur."""
    return curve.quotient is not None


def _symmetric_quotient(curve: PlaneCurve) -> tuple[tuple[int, ...], ...]:
    """The quotient G of an involution-symmetric curve; raises on any other."""
    if curve.quotient is None:
        raise ValueError("curve is not involution-symmetric")
    return curve.quotient


@dataclass(frozen=True)
class SingularReport:
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
    n = max(len(h) for h in f) - 1
    return _int_trim([_hom_eval(h, a, b) * b ** (n + 1 - len(h)) for h in f])


def _rational_singular_points(g, rep: UniPoly) -> list[tuple[Fraction, Fraction]]:
    """Rational points where G = G_Z = G_t = 0 for a monic G over Z[t],
    searched over the rational roots of rep = gcd(disc, disc') for disc the
    Z-discriminant of G: the t of a singular point is a repeated root of disc.
    A root Z0 of gcd(G, G_Z) over t0 is checked exactly against G_t."""
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
    """Rational singular points (t0, x0) of f, sorted: (t0, 0) for each
    rational root t0 of rep_c0 = gcd(c0, c0'), where F = F_X = 0 and
    F_t = c0' all vanish, and (t0, +-mu sqrt(Z0)) for each rational singular
    point (t0, Z0) of G with Z0 != 0 a rational square, as F_X = 2X G_Z and
    F_t = G_t there.  X0 is rational exactly when x0 = mu X0 is."""
    witnesses = [(t0, Q(0)) for t0, _ in rational_roots(rep_c0)]
    for t0, z0 in _rational_singular_points(curve.quotient, rep_g):
        root = _rational_sqrt(z0)
        if root:  # Z0 = 0 makes t0 a repeated root of c0, listed above
            witnesses += [(t0, -root * curve.scale), (t0, root * curve.scale)]
    return sorted(witnesses)


def smoothness_check(curve: PlaneCurve) -> SingularReport:
    """Certify smoothness of a symmetric affine curve F = G(t, X^2), or
    exhibit rational singular points, or answer "inconclusive".  Raises on a
    non-reduced curve and on a curve that is not involution-symmetric.

    F is smooth when c0 = G(t, 0) and disc_Z G are both squarefree.  The
    witnesses are the rational singular points, each checked exactly against
    the vanishing of the polynomial and both partials.
    """
    g = _symmetric_quotient(curve)
    if len(g) < 2:
        return SingularReport("smooth", (), True)
    # F is monic, hence primitive over Q[t], so by Gauss's lemma it has a
    # repeated factor in Q[t, X] exactly when gcd(F, F_X) != 1 over Q(t),
    # that is, exactly when its X-discriminant (-4)^m c0 (disc_Z G)^2 vanishes.
    c0, disc_g = UniPoly.make(g[0]), curve.quotient_discriminant
    if c0.is_zero or disc_g.is_zero:
        raise NonReducedCurveError("non-reduced curve")
    rep_c0, rep_g = _repeated_part(c0), _repeated_part(disc_g)
    if rep_c0.degree == 0 and rep_g.degree == 0:
        return SingularReport("smooth", (), True)
    witnesses = tuple(_quotient_witnesses(curve, rep_c0, rep_g))
    return SingularReport("singular" if witnesses else "inconclusive", witnesses, False)


@dataclass(frozen=True)
class FixedPointReport:
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


@dataclass(frozen=True)
class SingularityPatternReport:
    passed: bool
    count: int
    unit: Fraction
    witnesses: tuple[tuple[Fraction, Fraction], ...]


def so_even_singularity_pattern(
    curve: PlaneCurve, pf_twisted: UniPoly, det_b: Fraction
) -> SingularityPatternReport:
    """Check the even-orthogonal singularity pattern for a Gram form of
    constant determinant det_b: f(t, 0) * det_b is the square of the twisted
    Pfaffian, as f(t, 0) = Pf(B*Phi)^2 D^2m / det B, so f(t, 0) =
    mu^r F(t, 0) is the unit 1/det_b times that square; and every rational
    Pfaffian root gives an exact singular point on the zero section.

    F_X(t, 0) vanishes identically by evenness and F_t(t, 0) = c0', so the
    witness conditions c0(t0) = c0'(t0) = 0 are verified exactly.
    The returned count is deg(p), the number of pattern singularities with
    multiplicity.
    """
    c0 = _symmetric_quotient(curve)[0]
    if pf_twisted.is_zero:
        raise ValueError("zero Pfaffian: the zero section is a curve component")
    if UniPoly.make(c0) * (curve.scale**curve.r * det_b) != pf_twisted * pf_twisted:
        raise ValueError("not an SO(2m) spectral polynomial: F(t,0) is not a unit times a square")
    unit = 1 / Q(det_b)
    count = max(pf_twisted.degree, 0)
    dc0 = _int_derivative(c0)
    witnesses = []
    for t0, _ in rational_roots(pf_twisted) if pf_twisted.degree >= 1 else []:
        a, b = t0.numerator, t0.denominator
        if _hom_eval(c0, a, b) or _hom_eval(dc0, a, b):
            return SingularityPatternReport(False, count, unit, tuple(witnesses))
        witnesses.append((t0, Q(0)))
    return SingularityPatternReport(True, count, unit, tuple(witnesses))


def ramification_degree_affine(curve: PlaneCurve) -> int:
    """deg_t of the X-discriminant (-4)^m c0 (disc_Z G)^2 of a symmetric
    curve F = G(t, X^2): the affine branch count with multiplicity, read off
    the quotient as deg c0 + 2 deg disc_Z G.  Raises on any other curve."""
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
