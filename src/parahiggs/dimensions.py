"""Exact integer engine: degrees, genera, and the dimension identity chain.

Everything in this module is plain integer arithmetic; each operation
checks its own integrality/parities and raises rather than round.  The
half-integer exponents of square-rooted line bundles are held doubled, as
integers, so a degree is formed as twice its value and its parity is the
integrality check; no rational number is built on the sweep path.  The
identity chain checked per (group, m, g, n) is

    dim H  =  dim moduli  =  dim Prym  =  dim Higgs-moduli / 2

with dim H computed twice (term-by-term section counts and the closed
form), the spectral genus computed twice (adjunction and Riemann-Hurwitz),
and the Prym dimension through the quotient/desingularized genus.

`identity_suite` is the row kernel of `sweep`; it does each piece of work
as seldom as its inputs allow.  Once per (group, deg M), in `_group_data`:
the parameter check, r = 2m, dim G and dim G/B, the Hitchin section
classes with their doubled exponents, the closed-form coefficients of dim H
and, for so-odd, the classes of the quotient-determinant check.  Once per
row, each exactly once: k = 2g - 2 and ell = deg K(D) = 2g - 2 + n, the
term-by-term section sum against the closed form, the spectral genus by
adjunction and by Riemann-Hurwitz, the fixed-point or node count, the
quotient or desingularized genus, the Prym dimension and, for so-odd, the
quotient-determinant degrees.  The row work runs through integer kernels
(`_hitchin_dim`, `_adjunction_genus`, `_rh_genus`, `_quotient_genus`,
`_prym`) that take k, n, ell or genera already computed, so nothing on a
row is computed twice.  The public (group, p) and (m, p) forms
(`hitchin_dim`, `spectral_genus`, `sp_quotient_genus`, `prym_dim`, ...)
compose the same kernels, so each gives on its own what the row reports.
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


class CrossCheckError(ArithmeticError):
    """Two independent routes to the same number disagree."""


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


def validate_group_params(group: GroupSpec, deg_m: int) -> None:
    """so-odd requires an even twist degree (a square root of M is taken)."""
    if group.kind == "so-odd" and deg_m % 2 != 0:
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
        return self.degree_at(p.two_g_minus_2, p.n, p.deg_m)

    def degree_at(self, k: int, n: int, deg_m: int) -> int:
        """The degree on a curve with 2g - 2 = k, n marked points and deg M."""
        twice = self.two_a * k + 2 * self.b * n + self.two_c * deg_m
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


class _GroupData:
    """What every row of the identity chain needs of its (group, deg M) pair;
    `_group_data` builds it once per pair.  A plain slotted class: a
    dataclass would cost more to define at import than it saves."""

    __slots__ = (
        "group", "deg_m", "r", "dim_group", "dim_flag", "sections", "closed_g", "closed_n", "det_classes",
    )

    def __init__(self, group: GroupSpec, deg_m: int):
        validate_group_params(group, deg_m)
        m = group.m
        self.group, self.deg_m = group, deg_m
        self.r = 2 * m  # spectral cover degree
        self.dim_group, self.dim_flag = group.dim_group, group.dim_flag
        self.sections = _hitchin_section_classes(group)
        # closed form of dim H: closed_g * (g - 1) + closed_n * n
        if group.kind == "so-even":
            self.closed_g, self.closed_n = m * (2 * m - 1), m * (m - 1)
        else:
            self.closed_g, self.closed_n = m * (2 * m + 1), m * m
        # so-odd only: det E, the kernel line E0 ~ M^(1/2)(K(D))^(-m) and
        # K^m D^m M^m; the quotient determinant has degree
        # deg det E - deg E0 = deg K^m D^m M^m
        self.det_classes = None
        if group.kind == "so-odd":
            self.det_classes = (
                LineBundleClass.from_doubled(0, 0, 2 * m + 1),
                LineBundleClass.from_doubled(-2 * m, -m, 1),
                LineBundleClass(m, m, m),
            )


_group_data = cache(_GroupData)


def _hitchin_dim(data: _GroupData, g: int, n: int, k: int) -> int:
    """Section sum over the Hitchin classes, verified against the closed form.

    For so-even with m = 1 the square-root class is K itself, of degree
    exactly 2g - 2; the vanishing-h1 count deg + 1 - g = g - 1 is what the
    closed form (and the identity chain) requires, so that boundary term is
    evaluated by the same formula instead of the strict h0_rr regime guard.
    """
    total = 0
    for cls in data.sections:
        deg = cls.degree_at(k, n, data.deg_m)
        if deg < k:
            raise RegimeError("section space below the Riemann-Roch regime")
        total += deg + 1 - g
    closed = data.closed_g * (g - 1) + data.closed_n * n
    if total != closed:
        raise ArithmeticError(
            f"section sum {total} disagrees with closed form {closed} for {data.group}"
        )
    return total


def hitchin_dim(group: GroupSpec, p: CurveParams) -> int:
    """Section count of the invariant-coefficient spaces, verified against the
    closed form."""
    return _hitchin_dim(_group_data(group, p.deg_m), p.g, p.n, p.two_g_minus_2)


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
    validate_group_params(group, p.deg_m)
    return (p.g - 1) * group.dim_group + p.n * group.dim_flag


def higgs_moduli_dim(group: GroupSpec, p: CurveParams) -> int:
    return 2 * moduli_dim(group, p)


def _adjunction_genus(r: int, n: int, ell: int) -> int:
    """(-rn + r^2 ell + 2) / 2 for a degree-r cover inside Tot K(D), deg K(D) = ell."""
    if r < 1:
        raise ValueError("cover degree must be >= 1")
    num = -r * n + r * r * ell + 2
    if num % 2 != 0:
        raise IntegralityError("adjunction value is odd")
    return num // 2


def _rh_genus(r: int, k: int, ell: int) -> int:
    """Solves 2g_s - 2 = rk + r(r-1)ell, with k = 2g - 2 and ell = deg K(D)."""
    if r < 1:
        raise ValueError("cover degree must be >= 1")
    rhs = r * k + r * (r - 1) * ell
    if rhs % 2 != 0:
        raise IntegralityError("Riemann-Hurwitz value is odd")
    return rhs // 2 + 1


def spectral_genus(r: int, p: CurveParams) -> int:
    """Genus of the degree-r spectral cover by adjunction:
    (-rn + r^2(2g - 2 + n) + 2) / 2."""
    return _adjunction_genus(r, p.n, p.two_g_minus_2 + p.n)


def rh_genus_crosscheck(r: int, p: CurveParams) -> int:
    """Independent genus via Riemann-Hurwitz with ramification degree
    r(r-1)(2g-2+n): solves 2g_s - 2 = r(2g-2) + r(r-1)(2g-2+n)."""
    k = p.two_g_minus_2
    return _rh_genus(r, k, k + p.n)


def ramification_degree(r: int, p: CurveParams) -> int:
    """(2g_s - 2) - r(2g - 2), the degree of the relative canonical twist."""
    return 2 * spectral_genus(r, p) - 2 - r * p.two_g_minus_2


def sp_fixed_points(m: int, p: CurveParams) -> int:
    """2m(2g - 2 + n) involution fixed points = deg K(D)^2m."""
    return 2 * m * (p.two_g_minus_2 + p.n)


def _quotient_genus(g_s: int, fixed: int) -> int:
    """Quotient genus from 2g_s - 2 = 2(2g_q - 2) + #fixed."""
    rest = 2 * g_s - 2 - fixed
    if rest % 2 != 0:
        raise IntegralityError("fixed-point Riemann-Hurwitz value is odd")
    half = rest // 2  # = 2 g_q - 2
    if half % 2 != 0:
        raise IntegralityError("quotient genus is not an integer")
    return half // 2 + 1


def sp_quotient_genus(m: int, p: CurveParams) -> int:
    """Quotient genus from 2g_s - 2 = 2(2g_q - 2) + #fixed."""
    return _quotient_genus(spectral_genus(2 * m, p), sp_fixed_points(m, p))


def so_even_singularity_count(m: int, p: CurveParams) -> int:
    """m(2g - 2 + n) nodes, at the common zeros of x and the Pfaffian."""
    return m * (p.two_g_minus_2 + p.n)


def so_even_desing_genus(m: int, p: CurveParams) -> int:
    """Virtual genus minus the number of singularities."""
    return spectral_genus(2 * m, p) - so_even_singularity_count(m, p)


def _prym(kind: str, g_s: int, quot: int) -> int:
    """g(cover) - g(quotient) from the spectral genus g_s and the quotient
    genus, or for so-even half of (desingularized genus - 1), the genus
    drop of its fixed-point-free double cover."""
    if kind == "so-even":
        if (quot - 1) % 2 != 0:
            raise IntegralityError("desingularized genus has wrong parity")
        return (quot - 1) // 2
    return g_s - quot


def prym_dim(group: GroupSpec, p: CurveParams) -> int:
    """g(cover) - g(quotient): through the fixed-point Riemann-Hurwitz for
    sp/so-odd, through the desingularized fixed-point-free double cover for
    so-even."""
    validate_group_params(group, p.deg_m)
    m = group.m
    if group.kind == "so-even":
        quot = so_even_desing_genus(m, p)
    else:
        quot = sp_quotient_genus(m, p)
    return _prym(group.kind, spectral_genus(2 * m, p), quot)


# -- eigenline degrees ----------------------------------------------------------


def eigenline_degree_grr(deg_pushforward: int, r: int, g: int, g_s: int) -> int:
    """deg L from the direct-image Euler characteristic:
    deg(pi_* L) + r(1 - g) + (g_s - 1)."""
    return deg_pushforward + r * (1 - g) + (g_s - 1)


def eigenline_degree_dual(deg_e_dual: int, r: int, g: int, g_s: int) -> int:
    """deg L from the dual sheaf sequence: r(g - 1) + (1 - g_s) - deg(E*)."""
    return r * (g - 1) + (1 - g_s) - deg_e_dual


def eigenline_degree_sqrt_twist(m: int, p: CurveParams) -> int:
    """deg L forced by the square-root normalization:
    -(1/2)[(2g_s - 2) - r(2g - 2)] + (1/2) r deg(M), with r = 2m."""
    r = 2 * m
    twice = -ramification_degree(r, p) + r * p.deg_m
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


def eigenline_reconciliation(r: int, p: CurveParams) -> ReconciliationResult:
    """The two eigenline normalizations differ by exactly the ramification
    degree, for any consistent push-forward degree."""
    g_s = spectral_genus(r, p)
    deg_e = (r * p.deg_m) // 2 if (r * p.deg_m) % 2 == 0 else 0
    grr = eigenline_degree_grr(deg_e, r, p.g, g_s)
    dual = eigenline_degree_dual(-deg_e, r, p.g, g_s)
    ram = ramification_degree(r, p)
    return ReconciliationResult(grr, dual, grr - dual, ram, grr - dual == ram)


def sqrt_parity_check(r: int, p: CurveParams) -> bool:
    """Whether the square-rooted class K_cover (x) pi^*K^(-1) (x) pi^*M^(-1)
    has even degree.  Precondition: r even, or r odd with deg(M) even."""
    if r % 2 != 0 and p.deg_m % 2 != 0:
        raise ValueError("precondition violated: odd cover degree needs even deg(M)")
    return (ramification_degree(r, p) - r * p.deg_m) % 2 == 0


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
    data = _group_data(group, p.deg_m)
    kind, m, r = group.kind, group.m, data.r
    g, n = p.g, p.n
    k = 2 * g - 2
    ell = k + n
    dim_h = _hitchin_dim(data, g, n, k)
    dim_mod = (g - 1) * data.dim_group + n * data.dim_flag
    dim_higgs = 2 * dim_mod
    g_s = _adjunction_genus(r, n, ell)
    g_rh = _rh_genus(r, k, ell)
    if g_s != g_rh:
        raise CrossCheckError(f"spectral genus mismatch: adjunction {g_s} != Riemann-Hurwitz {g_rh}")
    if kind == "so-even":
        fixed = m * ell
        quot = g_s - fixed
    else:
        fixed = r * ell
        quot = _quotient_genus(g_s, fixed)
    prym = _prym(kind, g_s, quot)
    if data.det_classes is not None:
        det_e, e0, direct = data.det_classes
        lhs = det_e.degree_at(k, n, p.deg_m) - e0.degree_at(k, n, p.deg_m)
        rhs = direct.degree_at(k, n, p.deg_m)
        if lhs != rhs:
            raise CrossCheckError(f"quotient determinant degree mismatch: {lhs} != {rhs}")
    if dim_h != dim_mod:
        verdict = "FAIL:dimH=dimM"
    elif dim_mod != prym:
        verdict = "FAIL:dimM=prym"
    elif dim_higgs != 2 * prym:
        verdict = "FAIL:prym=dimN/2"
    else:
        verdict = "PASS"
    return DimensionReport(
        kind, m, g, n, dim_h, dim_mod, dim_higgs,
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
            group = GroupSpec(kind, m)
            for g in gs:
                for n in ns:
                    out.append(identity_suite(group, CurveParams(g, n, deg_m)))
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
