"""Affine spectral plane curves: symmetry, smoothness, fixed points.

The chart twist y = D(t) x with D = prod (t - a_k) clears the marked-point
denominators of the characteristic coefficients, so every curve handled
here is a monic-in-x polynomial over Q[t], read off the field's integer
characteristic data e_i and clearing c*d with no arithmetic over Q(t).
Smoothness is read off the x-discriminant: a zero discriminant means a
non-reduced curve, a squarefree one certifies smooth, and otherwise rational
singular points are searched for exactly over the discriminant's repeated
roots; the honest answer is "inconclusive" when none is found.
"""

from __future__ import annotations

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
    def discriminant(self) -> UniPoly:
        """x-discriminant of f, computed once per curve."""
        return discriminant_x(self.f)

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
    so(2m+1), that of the even x-cofactor char/x (callers check parity)."""
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
    return curve.f.subs_neg_x() == curve.f


@dataclass(frozen=True)
class SingularReport:
    status: str  # "smooth" | "singular" | "inconclusive"
    witnesses: tuple[tuple[Fraction, Fraction], ...]
    disc_squarefree: bool

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "witnesses": [[str(t0), str(x0)] for t0, x0 in self.witnesses],
            "disc_squarefree": self.disc_squarefree,
        }


def _rational_singular_points(f: BiPoly, rep: UniPoly) -> list[tuple[Fraction, Fraction]]:
    """Rational points where f = f_x = f_t = 0, searched over the rational
    roots of rep = gcd(disc, disc'), the discriminant's repeated roots."""
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


def smoothness_check(curve: PlaneCurve) -> SingularReport:
    """Certify smoothness of the affine curve, or exhibit rational singular
    points, or answer "inconclusive".  Raises on a non-reduced curve.

    A singular point (t0, x0) forces a repeated root of the x-discriminant
    at t0, so a squarefree discriminant certifies smooth, and the witness
    search needs only the roots of gcd(disc, disc'); each witness found is
    then checked exactly against f = f_x = f_t = 0.
    """
    f = curve.f
    if f.deg_x < 2:
        return SingularReport("smooth", (), True)
    disc = curve.discriminant
    # f is monic, hence primitive over Q[t], so by Gauss's lemma it has a
    # repeated factor in Q[t, x] exactly when gcd(f, f_x) != 1 over Q(t),
    # that is, exactly when its x-discriminant vanishes.
    if disc.is_zero:
        raise NonReducedCurveError("non-reduced curve")
    rep = poly_gcd(disc, disc.derivative())
    if rep.degree == 0:
        return SingularReport("smooth", (), True)
    witnesses = _rational_singular_points(f, rep)
    if witnesses:
        return SingularReport("singular", tuple(witnesses), False)
    return SingularReport("inconclusive", (), False)


@dataclass(frozen=True)
class FixedPointReport:
    count: int
    witnesses: tuple[tuple[Fraction, int], ...]  # rational roots with multiplicity


def involution_fixed_points(curve: PlaneCurve) -> FixedPointReport:
    """Fixed points of x -> -x on the curve: points (t0, 0) with c_r(t0) = 0.

    The count is deg c_r (all fixed points with multiplicity); the witnesses
    are the rational ones.
    """
    if not involution_check(curve):
        raise ValueError("curve is not involution-symmetric")
    c_r = curve.f.coeff(0)
    if c_r.is_zero:
        raise ValueError("zero section lies on the curve; fixed locus not finite")
    if c_r.degree == 0:
        return FixedPointReport(0, ())
    return FixedPointReport(c_r.degree, tuple(rational_roots(c_r)))


@dataclass(frozen=True)
class SingularityPatternReport:
    passed: bool
    count: int
    unit: int
    witnesses: tuple[tuple[Fraction, Fraction], ...]


def so_even_singularity_pattern(curve: PlaneCurve, pf_twisted: UniPoly) -> SingularityPatternReport:
    """Check the even-orthogonal singularity pattern: F(t, 0) is a unit times
    the square of the twisted Pfaffian, and every rational Pfaffian root
    gives an exact singular point on the zero section.

    F_x(t, 0) vanishes identically by evenness and F_t(t, 0) = +-2 p p', so
    all three vanishing conditions are verified exactly at each witness.
    The returned count is deg(p), the number of pattern singularities with
    multiplicity.
    """
    if not involution_check(curve):
        raise ValueError("curve is not involution-symmetric")
    if pf_twisted.is_zero:
        raise ValueError("zero Pfaffian: the zero section is a curve component")
    c0 = curve.f.coeff(0)
    sq = pf_twisted * pf_twisted
    if c0 == sq:
        unit = 1
    elif c0 == -sq:
        unit = -1
    else:
        raise ValueError("not an SO(2m) spectral polynomial: F(t,0) is not a unit times a square")
    if not curve.f.coeff(1).is_zero:
        raise AssertionError("odd coefficient survives on an even curve")
    f, f_x, f_t = curve.f, curve.f.derivative_x(), curve.f.derivative_t()
    witnesses = []
    for t0, _ in rational_roots(pf_twisted) if pf_twisted.degree >= 1 else []:
        if not (f(t0, 0) == 0 and f_x(t0, 0) == 0 and f_t(t0, 0) == 0):
            return SingularityPatternReport(False, max(pf_twisted.degree, 0), unit, tuple(witnesses))
        witnesses.append((t0, Q(0)))
    return SingularityPatternReport(True, max(pf_twisted.degree, 0), unit, tuple(witnesses))


def ramification_degree_affine(curve: PlaneCurve) -> int:
    """deg_t of the x-discriminant: affine branch count with multiplicity."""
    if curve.r < 2:
        return 0
    disc = curve.discriminant
    if disc.is_zero:
        raise ValueError("discriminant vanishes identically")
    return disc.degree


def hyperelliptic_genus(f: UniPoly) -> int:
    """Genus of the smooth projective model of x^2 = f(t) for squarefree f:
    floor((deg f - 1) / 2)."""
    if f.is_zero or f.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    if not is_squarefree(f):
        raise ValueError("branch polynomial must be squarefree")
    return (f.degree - 1) // 2
