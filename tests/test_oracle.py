"""The spectral smoothness verdict against an independent sympy oracle.

For generated fields of every group, the twisted spectral curve f is handed
to sympy: "smooth" must hold exactly when the Groebner basis of
(f, f_x, f_t) is [1], and the reported witnesses must be exactly the
rational solutions of f = f_x = f_t = 0, found by eliminating x and
factoring over Q.  A curve rejected as non-reduced must have a repeated
factor in sympy's squarefree factorisation.  sympy is a test-only oracle.
"""

from fractions import Fraction

import pytest

from parahiggs.curves import NonReducedCurveError, build_plane_curve, smoothness_check
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


def to_sympy(f):
    return sum(
        sympy.Rational(c.numerator, c.denominator) * t**j * x**i
        for i, p in enumerate(f.coeffs)
        for j, c in enumerate(p.coeffs)
    )


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


@pytest.mark.parametrize("kind,m,count,deg,seed", CASES)
def test_smoothness_matches_groebner_oracle(kind, m, count, deg, seed):
    fld = random_strongly_parabolic_higgs(GroupSpec(kind, m), MARKED[:count], deg, seed)
    curve = build_plane_curve(fld)
    f = to_sympy(curve.f)
    try:
        report = smoothness_check(curve)
    except NonReducedCurveError:
        _, factors = sympy.sqf_list(f, x, t)
        assert any(mult > 1 for _, mult in factors)
        return
    basis = sympy.groebner([f, sympy.diff(f, x), sympy.diff(f, t)], x, t, order="lex")
    assert (report.status == "smooth") == (basis.exprs == [1])
    if report.status != "smooth":
        assert list(report.witnesses) == rational_singular_points(basis)
