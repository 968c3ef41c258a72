"""Affine spectral plane curves: symmetry, smoothness, fixed points.

The chart twist y = D(t) x with D = prod (t - a_k) clears the marked-point
denominators of the characteristic coefficients, so every curve handled
here is a monic-in-x polynomial over Q[t], read off the field's integer
characteristic data e_i and clearing c*d with no arithmetic over Q(t).

Only involution-symmetric curves f(t, x) = g(t, x^2) are certified, the
spectral curves of Sp(2m), SO(2m) and (after dividing by x) SO(2m+1)
fields; the functions below raise on any other curve.  The certificate goes
through the quotient g: f_x = 2x g_z, so f is smooth exactly when
c0 = g(t, 0) is squarefree (the points on x = 0) and g has no singular point
with z != 0, which a squarefree disc_z g certifies; disc_x f =
(-4)^m c0 (disc_z g)^2 itself is squarefree only when disc_z g is constant.
A zero c0 or disc_z g means a non-reduced curve, and otherwise rational
singular points are searched for exactly over their repeated roots; the
honest answer is "inconclusive" when none is found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .bipoly import BiPoly, discriminant_x
from .higgs import CharData, HiggsField, PoleOrderError
from .poly import Q, UniPoly, is_squarefree, poly_gcd, rational_roots


class NonReducedCurveError(ValueError):
    pass


@dataclass(frozen=True)
class PlaneCurve:
    """Monic-in-x bivariate polynomial, plus the chart twist it was built with."""

    f: BiPoly
    twist: UniPoly = UniPoly.one()

    def __post_init__(self):
        if not self.f.is_monic_x:
            raise ValueError("plane curve must be monic in x")

    @property
    def r(self) -> int:
        return self.f.deg_x

    @cached_property
    def quotient(self) -> BiPoly | None:
        """g with f(t, x) = g(t, x^2) when f is involution-symmetric, else None."""
        if self.f.subs_neg_x() != self.f:
            return None
        return BiPoly(self.f.coeffs[::2])

    @cached_property
    def quotient_discriminant(self) -> UniPoly:
        """disc_z g of the quotient, computed once per curve; 1 when deg_z g = 1."""
        g = self.quotient
        return UniPoly.one() if g.deg_x == 1 else discriminant_x(g)

    def to_dict(self) -> dict:
        return {"r": self.r, "coeffs": self.f.to_json(), "twist": self.twist.to_json()}

    @staticmethod
    def from_dict(data: dict) -> "PlaneCurve":
        return PlaneCurve(BiPoly.from_json(data["coeffs"]), UniPoly.from_json(data["twist"]))


def twisted_curve(char: CharData, marked_points) -> PlaneCurve:
    """Curve y^r + sum_i s_i D^i y^(r-i), D = prod (t - a_k), from the char
    data s_i = e_i / (c*d)^i: its i-th coefficient is e_i D^i / (c^i d^i),
    formed as e_i (D/g)^i / (c^i (d/g)^i) with g = gcd(D, d), so a field whose
    poles all sit at marked points (d | D) needs no polynomial division.

    Strong parabolicity (pole order of s_i at most i - 1 < i, poles only at
    marked points) makes every coefficient polynomial, so the division is
    exact.  A non-zero remainder raises.
    """
    twist = UniPoly.one()
    for a in marked_points:
        twist = twist * UniPoly.linear_root(Fraction(a))
    g = poly_gcd(twist, char.d)
    up, down = twist.exact_div(g), char.d.exact_div(g)
    r = char.r
    coeffs = [UniPoly.zero()] * (r + 1)
    coeffs[r] = UniPoly.one()
    up_power = down_power = UniPoly.one()
    for i, e_i in enumerate(char.e, start=1):
        up_power = up_power * up
        down_power = down_power * down
        cleared, rem = (UniPoly.make(e_i) * up_power).divmod(down_power)
        if not rem.is_zero:
            raise PoleOrderError(
                f"s_{i} * d^{i} is not polynomial; pole outside the allowed order/locus"
            )
        coeffs[r - i] = cleared * Fraction(1, char.c**i)
    return PlaneCurve(BiPoly.make(coeffs), twist)


def build_plane_curve(fld: HiggsField) -> PlaneCurve:
    """Spectral curve of a Higgs field in the twisted polynomial chart; for
    so(2m+1), that of the x-cofactor char/x.  The curve is involution-
    symmetric only for an even char (x times an even char for so(2m+1)),
    which ``cli._spectral_section`` checks before it builds one."""
    char = fld.char_data
    if fld.group.kind == "so-odd":
        char = char.x_cofactor()
    return twisted_curve(char, fld.marked_points)


def twisted_pfaffian(fld: HiggsField, twist: UniPoly) -> UniPoly:
    """Pf(B*Phi) * twist^m of an so(2m) field: Pf(P) twist^m / e^m with
    B*Phi = P / e, read off the Z[t] Pfaffian.  Raises ArithmeticError when
    the division is not exact."""
    m = fld.group.m
    return (UniPoly.make(fld.pfaffian) * twist**m).exact_div(fld.gram_product[1] ** m)


def involution_check(curve: PlaneCurve) -> bool:
    """True iff F(t, -x) = F(t, x), i.e. only even x-powers occur."""
    return curve.quotient is not None


def _symmetric_quotient(curve: PlaneCurve) -> BiPoly:
    """The quotient g of an involution-symmetric curve; raises on any other."""
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


def _rational_singular_points(f: BiPoly, rep: UniPoly) -> list[tuple[Fraction, Fraction]]:
    """Rational points where f = f_x = f_t = 0 for a monic f, searched over
    the rational roots of rep = gcd(disc, disc') for disc the x-discriminant
    of f: the t of a singular point is a repeated root of disc."""
    f_x, f_t = f.derivative_x(), f.derivative_t()
    witnesses = []
    for t0, _ in rational_roots(rep):
        slice_f = f.eval_t(t0)
        slice_fx = f_x.eval_t(t0)
        common = poly_gcd(slice_f, slice_fx)
        if common.degree < 1:
            continue
        for x0, _ in rational_roots(common):
            if f(t0, x0) == 0 and f_x(t0, x0) == 0 and f_t(t0, x0) == 0:
                witnesses.append((t0, x0))
    return witnesses


def _rational_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    a, b = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return Q(a, b) if a * a == q.numerator and b * b == q.denominator else None


def _quotient_witnesses(g: BiPoly, rep_c0: UniPoly, rep_g: UniPoly) -> list[tuple[Fraction, Fraction]]:
    """Rational singular points of f(t, x) = g(t, x^2), sorted: (t0, 0) for
    each rational root t0 of rep_c0 = gcd(c0, c0'), where f = f_x = 0 and
    f_t = c0' all vanish, and (t0, +-sqrt(z0)) for each rational singular
    point (t0, z0) of g with z0 != 0 a rational square, as f_x = 2x g_z and
    f_t = g_t there."""
    witnesses = [(t0, Q(0)) for t0, _ in rational_roots(rep_c0)]
    for t0, z0 in _rational_singular_points(g, rep_g):
        root = _rational_sqrt(z0)
        if root:  # z0 = 0 makes t0 a repeated root of c0, listed above
            witnesses += [(t0, -root), (t0, root)]
    return sorted(witnesses)


def smoothness_check(curve: PlaneCurve) -> SingularReport:
    """Certify smoothness of a symmetric affine curve f = g(t, x^2), or
    exhibit rational singular points, or answer "inconclusive".  Raises on a
    non-reduced curve and on a curve that is not involution-symmetric.

    f is smooth when c0 = g(t, 0) and disc_z g are both squarefree.  The
    witnesses are the rational singular points, each checked exactly against
    the vanishing of the polynomial and both partials.
    """
    g = _symmetric_quotient(curve)
    if g.deg_x < 1:
        return SingularReport("smooth", (), True)
    # f is monic, hence primitive over Q[t], so by Gauss's lemma it has a
    # repeated factor in Q[t, x] exactly when gcd(f, f_x) != 1 over Q(t),
    # that is, exactly when its x-discriminant (-4)^m c0 (disc_z g)^2 vanishes.
    c0, disc_g = g.coeff(0), curve.quotient_discriminant
    if c0.is_zero or disc_g.is_zero:
        raise NonReducedCurveError("non-reduced curve")
    rep_c0, rep_g = _repeated_part(c0), _repeated_part(disc_g)
    if rep_c0.degree == 0 and rep_g.degree == 0:
        return SingularReport("smooth", (), True)
    witnesses = tuple(_quotient_witnesses(g, rep_c0, rep_g))
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
    c_r = _symmetric_quotient(curve).coeff(0)
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
    constant determinant det_b: F(t, 0) * det_b is the square of the twisted
    Pfaffian, as F(t, 0) = Pf(B*Phi)^2 D^2m / det B, so F(t, 0) is the unit
    1/det_b times that square; and every rational Pfaffian root gives an
    exact singular point on the zero section.

    F_x(t, 0) vanishes identically by evenness and F_t(t, 0) = 2 p p' / det_b,
    so all three vanishing conditions are verified exactly at each witness.
    The returned count is deg(p), the number of pattern singularities with
    multiplicity.
    """
    c0 = _symmetric_quotient(curve).coeff(0)
    if pf_twisted.is_zero:
        raise ValueError("zero Pfaffian: the zero section is a curve component")
    if c0 * det_b != pf_twisted * pf_twisted:
        raise ValueError("not an SO(2m) spectral polynomial: F(t,0) is not a unit times a square")
    unit = 1 / Q(det_b)
    f, f_x, f_t = curve.f, curve.f.derivative_x(), curve.f.derivative_t()
    witnesses = []
    for t0, _ in rational_roots(pf_twisted) if pf_twisted.degree >= 1 else []:
        if not (f(t0, 0) == 0 and f_x(t0, 0) == 0 and f_t(t0, 0) == 0):
            return SingularityPatternReport(False, max(pf_twisted.degree, 0), unit, tuple(witnesses))
        witnesses.append((t0, Q(0)))
    return SingularityPatternReport(True, max(pf_twisted.degree, 0), unit, tuple(witnesses))


def ramification_degree_affine(curve: PlaneCurve) -> int:
    """deg_t of the x-discriminant (-4)^m c0 (disc_z g)^2 of a symmetric
    curve f = g(t, x^2): the affine branch count with multiplicity, read off
    the quotient as deg c0 + 2 deg disc_z g.  Raises on any other curve."""
    g = _symmetric_quotient(curve)
    if g.deg_x < 1:
        return 0
    c0, disc_g = g.coeff(0), curve.quotient_discriminant
    if c0.is_zero or disc_g.is_zero:
        raise ValueError("discriminant vanishes identically")
    return c0.degree + 2 * disc_g.degree


def hyperelliptic_genus(f: UniPoly) -> int:
    """Genus of the smooth projective model of x^2 = f(t) for squarefree f:
    floor((deg f - 1) / 2)."""
    if f.is_zero or f.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    if not is_squarefree(f):
        raise ValueError("branch polynomial must be squarefree")
    return (f.degree - 1) // 2
