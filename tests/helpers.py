"""Helpers shared by the test modules: the builders from hand-written
entries that no command needs (`entry_ints`, `rational_function`, `gram_form`
and `field_from_grid`) and `load_script`, which imports a script of
`scripts/`; a Gram form, characteristic data and constant grids as reduced
rational functions; the semisimple negative control of the
strong-parabolicity checks; the test-only reference determinant over Z[t]
(Bareiss with polynomial entries) with the Z[t] Sylvester matrix, an oracle
outside `linalg._interpolated`; the term-by-term section sum that
`dimensions.identity_suite` regroups; and the eigenline-degree bookkeeping
of acceptance criterion c07."""

import functools
import importlib.util
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Sequence

from parahiggs import dimensions
from parahiggs.dimensions import CurveParams, IntegralityError, RegimeError, ramification_degree, spectral_genus
from parahiggs.groups import GramForm
from parahiggs.higgs import HiggsField, random_strongly_parabolic_higgs
from parahiggs.linalg import IntFraction, clear_fractions
from parahiggs.poly import (
    RationalFunction,
    UniPoly,
    _int_exact_div,
    _int_mul,
    _int_poly_mul_add,
    _int_trim,
    int_fraction,
)

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def entry_ints(x) -> IntFraction:
    """`poly.int_fraction` of a RationalFunction or a rational scalar."""
    num, den = (x.num.coeffs, x.den.coeffs) if isinstance(x, RationalFunction) else ((x,), (1,))
    return int_fraction(*([(q.numerator, q.denominator) for q in cs] for cs in (num, den)))


def rational_function(num, den=1) -> RationalFunction:
    """num / den reduced, each a UniPoly or a rational scalar."""
    parts = (UniPoly.make([p]) if isinstance(p, (int, Fraction)) else p for p in (num, den))
    return RationalFunction.from_ints(*entry_ints(RationalFunction(*parts)))


def gram_form(rows, kind: str) -> GramForm:
    """The form of a grid of RationalFunctions and rational scalars."""
    return GramForm(clear_fractions([[entry_ints(x) for x in row] for row in rows]), kind)


def field_from_grid(group, gram: GramForm, rows, marked_points) -> HiggsField:
    """The field of a grid of RationalFunctions and rational scalars."""
    return HiggsField(group, gram, clear_fractions([[entry_ints(x) for x in row] for row in rows]), marked_points)


@functools.cache
def load_script(name: str):
    """scripts/<name>.py imported as a module, once per name; its `main` is
    not run."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def gram_matrix(gram):
    """B of a Gram form as reduced rational functions."""
    b, d = gram.cleared
    return [[RationalFunction.from_ints(p, d) for p in row] for row in b]


def sections(char):
    """s_1..s_r of the characteristic data as reduced rational functions."""
    return [RationalFunction.from_ints(e, q) for e, q in zip(char.e, char.den_powers)]


def scalars(rows):
    """A grid of rational scalars as constant rational functions."""
    return [[rational_function(x) for x in row] for row in rows]


def semisimple_residue_control(group, marked_points, degree_bound: int, seed: int) -> HiggsField:
    """Negative control: the generated field over marked_points[1:] (same seed
    and degree bound) plus diag(1, -1) b_0 / (b_0 t - a_0), the 1 and -1 at
    the indices 0 and m, for the first point a_0 / b_0.  The residue there is
    semisimple, not nilpotent, and s_2 has a pole of order 2 at a_0."""
    first, *rest = map(Fraction, marked_points)
    fld = random_strongly_parabolic_higgs(group, rest, degree_bound, seed)
    ints, delta = fld.cleared
    pole = [-first.numerator, first.denominator]
    den = tuple(_int_mul(delta, pole))
    diag = {0: first.denominator, group.m: -first.denominator}
    grid = []
    for i, row in enumerate(ints):
        out = []
        for j, p in enumerate(row):
            num = _int_mul(p, pole)
            if i == j and i in diag:
                _int_poly_mul_add(num, [diag[i]], delta)
            out.append((tuple(_int_trim(num)), den))
        grid.append(out)
    return HiggsField(group, fld.gram, clear_fractions(grid), (first, *rest))


def bareiss_det(m: list[list[list[int]]]) -> list[int]:
    """Fraction-free determinant of a matrix over Z[t] (Bareiss).

    Entries are ascending integer coefficient lists, [] being zero.  Every
    interior division is exact in Z[t] by Sylvester's identity; row swaps
    flip the sign.  The input list is consumed.
    """
    n = len(m)
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return []
        pivot = m[k][k]
        for i in range(k + 1, n):
            neg = [-c for c in m[i][k]]
            for j in range(k + 1, n):
                num: list[int] = []
                _int_poly_mul_add(num, pivot, m[i][j])
                _int_poly_mul_add(num, neg, m[k][j])
                _int_trim(num)
                m[i][j] = _int_exact_div(num, prev) if num else []
        prev = pivot
    return [sign * c for c in m[n - 1][n - 1]]


def sylvester_matrix(f: Sequence[list[int]], g: Sequence[list[int]]) -> list[list[list[int]]]:
    """Sylvester matrix of two bivariate integer polynomials, given as
    ascending x-coefficient lists."""
    f, g = list(f), list(g)
    p, q = len(f) - 1, len(g) - 1
    n = p + q
    rows = []
    # descending coefficient order, f-rows then g-rows
    for i in range(q):
        rows.append([[]] * i + f[::-1] + [[]] * (n - p - 1 - i))
    for i in range(p):
        rows.append([[]] * i + g[::-1] + [[]] * (n - q - 1 - i))
    return rows


def hitchin_dim_by_class(group, p: CurveParams) -> int:
    """dim H term by term: h0 = deg + 1 - g of each Hitchin section class on
    the row, each checked at or above the Riemann-Roch regime deg >= 2g - 2
    (the so-even m = 1 class K sits exactly on it).  Reads the class builder
    through the module, so a test that patches it patches this oracle too."""
    total = 0
    for cls in dimensions._hitchin_section_classes(group):
        deg = cls.degree(p)
        if deg < p.two_g_minus_2:
            raise RegimeError("section space below the Riemann-Roch regime")
        total += deg + 1 - p.g
    return total


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


class ReconciliationResult(NamedTuple):
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
