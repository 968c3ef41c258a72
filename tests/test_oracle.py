"""The spectral smoothness verdict against an independent sympy oracle.

For generated fields of every group, the twisted spectral curve, held as
its primitive clearing H over Z[t][x], is handed to sympy: "smooth" must hold
exactly when the Groebner basis of (H, H_x, H_t) is [1], and the reported
witnesses must be exactly the rational solutions of H = H_x = H_t = 0,
found by eliminating x and factoring over Q.  A curve rejected as
non-reduced must have a repeated factor in sympy's squarefree
factorisation.  Hand-built symmetric quartics cover the quotient
certificate's branches that no generated field reaches: witnesses off the
zero section, on a monic H and on one whose leading coefficient is not 1,
an irrational one, and a certified "smooth" at m = 2.  sympy is a test-only
oracle.
"""

import random
from fractions import Fraction

import pytest

from parahiggs.curves import NonReducedCurveError, PlaneCurve, build_plane_curve, smoothness_check
from parahiggs.groups import GroupSpec
from parahiggs.higgs import random_strongly_parabolic_higgs

sympy = pytest.importorskip("sympy")
t, x = sympy.symbols("t x")

MARKED = (Fraction(0), Fraction(1, 2), Fraction(-2))
KINDS = ("sp", "so-even", "so-odd")

CASES = [
    (kind, 1, count, deg, seed)
    for kind in KINDS
    for count in range(1, 4)
    for deg in range(3)
    for seed in range(2)
] + [(kind, 2, 1, 0, seed) for kind in KINDS for seed in range(2)]


def to_sympy(curve: PlaneCurve):
    """H(t, x) over Z."""
    return sympy.expand(sum(
        c * t**j * x**i
        for i, p in enumerate(curve.coeffs)
        for j, c in enumerate(p)
    ))


def rational_roots(expr, var) -> list[Fraction]:
    _, factors = sympy.Poly(expr, var, domain="QQ").factor_list()
    roots = []
    for factor, _ in factors:
        if factor.degree() == 1:
            a, b = factor.all_coeffs()
            root = sympy.Rational(-b, a)
            roots.append(Fraction(int(root.p), int(root.q)))
    return sorted(roots)


def rational_singular_points(basis) -> list[tuple[Fraction, Fraction]]:
    """Rational points of the zero set of a lex (x > t) Groebner basis."""
    eliminant = [g for g in basis.exprs if not g.has(x)]
    if not eliminant:
        raise AssertionError("singular locus is not finite")
    points = []
    for t0 in rational_roots(eliminant[0], t):
        fibre = [g.subs(t, sympy.Rational(t0.numerator, t0.denominator)) for g in basis.exprs]
        common = sympy.gcd_list([sympy.expand(g) for g in fibre if g != 0])
        if common.has(x):
            points += [(t0, x0) for x0 in rational_roots(common, x)]
    return sorted(points)


def assert_matches_oracle(curve):
    f = to_sympy(curve)
    try:
        report = smoothness_check(curve)
    except NonReducedCurveError:
        _, factors = sympy.sqf_list(f, x, t)
        assert any(mult > 1 for _, mult in factors)
        return None
    basis = sympy.groebner([f, sympy.diff(f, x), sympy.diff(f, t)], x, t, order="lex")
    assert (report.status == "smooth") == (basis.exprs == [1])
    if report.status != "smooth":
        assert list(report.witnesses) == rational_singular_points(basis)
    return report


@pytest.mark.parametrize("kind,m,count,deg,seed", CASES)
def test_smoothness_matches_groebner_oracle(kind, m, count, deg, seed):
    fld = random_strongly_parabolic_higgs(GroupSpec(kind, m), MARKED[:count], deg, seed)
    assert_matches_oracle(build_plane_curve(fld))


def quartic(a, b, lead=1) -> PlaneCurve:
    """lead x^4 + a x^2 + b for integer t-coefficient lists a, b."""
    return PlaneCurve((tuple(b), (), tuple(a), (), (lead,)))


def test_quotient_witnesses_off_the_zero_section():
    report = assert_matches_oracle(quartic([-2], [1, 0, -1]))  # (x^2 - 1)^2 - t^2
    assert report.witnesses == ((Fraction(0), Fraction(-1)), (Fraction(0), Fraction(1)))


def test_scaled_witnesses_off_the_zero_section():
    # (X^2 - 1)^2 - t^2 at X = 5x/2, cleared: H = (25x^2 - 4)^2 - 16 t^2,
    # with lc(H) = 625
    report = assert_matches_oracle(quartic([-200], [16, 0, -16], 625))
    assert report.witnesses == ((Fraction(0), Fraction(-2, 5)), (Fraction(0), Fraction(2, 5)))


def test_quotient_irrational_square_root_is_inconclusive():
    report = assert_matches_oracle(quartic([-4], [4, 0, -1]))  # (x^2 - 2)^2 - t^2
    assert report.status == "inconclusive"


@pytest.mark.parametrize("seed", range(4))
def test_quotient_certifies_smooth_quartics(seed):
    """x^4 + a x^2 + b with b and a^2 - 4b squarefree, drawn by sympy: smooth
    at m = 2, which disc_x f = 16 b (a^2 - 4b)^2 can never certify."""
    rng = random.Random(seed)
    while True:
        a = [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]
        b = [rng.randint(-5, 5) for _ in range(rng.randint(2, 4))]
        sa, sb = (sum(c * t**j for j, c in enumerate(p)) for p in (a, b))
        if all(sympy.degree(p, t) >= 1 and sympy.Poly(p, t).is_sqf for p in (sb, sa**2 - 4 * sb)):
            break
    report = assert_matches_oracle(quartic(a, b))
    assert report.status == "smooth"
