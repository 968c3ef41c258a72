"""`rational_roots`, `resultant_x` and `discriminant_x` against sympy.

The root finder is handed integer polynomials with planted rational roots of
multiplicity 1..3, end coefficients of at least 64 bits and an irreducible
quadratic cofactor; its output must equal sympy's rational roots.  The
x-eliminants are compared on spectral curves whose marked points include 1/2,
so the curve coefficients carry denominators, and on random bivariate pairs
whose two operands have different denominators.  sympy is a test-only oracle.
"""

import math
import random
from fractions import Fraction

import pytest

from parahiggs.bipoly import BiPoly, discriminant_x, resultant_x
from parahiggs.curves import build_plane_curve
from parahiggs.groups import GroupSpec
from parahiggs.higgs import random_strongly_parabolic_higgs
from parahiggs.poly import UniPoly, rational_roots

sympy = pytest.importorskip("sympy")
t, x = sympy.symbols("t x")


def sym_q(c: Fraction):
    return sympy.Rational(c.numerator, c.denominator)


def to_sympy_t(p: UniPoly):
    return sum(sym_q(c) * t**j for j, c in enumerate(p.coeffs))


def to_sympy(f: BiPoly):
    return sum(to_sympy_t(p) * x**i for i, p in enumerate(f.coeffs))


def irreducible_quadratic(rng: random.Random) -> list[int]:
    while True:
        c, d = rng.randint(-50, 50), rng.randint(1, 10**6)
        disc = c * c - 4 * d
        if disc < 0 or math.isqrt(disc) ** 2 != disc:
            return [d, c, 1]


def planted(seed: int) -> UniPoly:
    """A product of (b t - a)^mult over 1..3 random roots a/b, an irreducible
    quadratic and a random integer unit, with 64-bit or larger end
    coefficients; t is a root for some seeds."""
    rng = random.Random(seed)
    p = UniPoly.make([rng.choice([-1, 1]) * rng.randint(1, 2**20)])
    p = p * UniPoly.make(irreducible_quadratic(rng))
    for _ in range(rng.randint(1, 3)):
        a = rng.choice([-1, 1]) * rng.randint(2**64, 2**80)
        b = rng.randint(2**64, 2**80)
        p = p * UniPoly.make([-a, b]) ** rng.randint(1, 3)
    if seed % 4 == 0:
        p = p * UniPoly.make([0, 1]) ** rng.randint(1, 2)
    return p


@pytest.mark.parametrize("seed", range(24))
def test_rational_roots_match_sympy(seed):
    p = planted(seed)
    nonzero = [c for c in p.coeffs if c]
    assert min(abs(nonzero[0].numerator), abs(nonzero[-1].numerator)).bit_length() >= 64
    want = sorted(
        (Fraction(int(r.p), int(r.q)), mult)
        for r, mult in sympy.roots(sympy.Poly(to_sympy_t(p), t), filter="Q").items()
    )
    assert want
    assert rational_roots(p) == want
    assert rational_roots(p * Fraction(3, 7)) == want


# so(2) is abelian, so so-even fields with m = 1 are not among the cases
DISC_CASES = [
    (kind, m, marked, seed)
    for kind in ("sp", "so-even", "so-odd")
    for m, marked in ((1, "1/2"), (1, "0,1/2,-2"), (2, "1/2"), (2, "0,1/2"))
    for seed in range(2)
    if (kind, m) != ("so-even", 1)
]


@pytest.mark.parametrize("kind,m,marked,seed", DISC_CASES)
def test_discriminant_matches_sympy(kind, m, marked, seed):
    points = tuple(Fraction(a) for a in marked.split(","))
    fld = random_strongly_parabolic_higgs(GroupSpec(kind, m), points, 1, seed)
    f = build_plane_curve(fld).f
    assert any(c.denominator > 1 for p in f.coeffs for c in p.coeffs)
    want = sympy.Poly(sympy.discriminant(to_sympy(f), x), t, domain="QQ")
    assert sympy.Poly(to_sympy_t(discriminant_x(f)), t, domain="QQ") == want


def random_bipoly(rng: random.Random, deg_x: int, den: int) -> BiPoly:
    return BiPoly.make(
        UniPoly.make(Fraction(rng.randint(-9, 9), rng.randint(1, den)) for _ in range(3))
        for _ in range(deg_x)
    ) + BiPoly.make([UniPoly.zero()] * deg_x + [UniPoly.make([Fraction(1, den), 1])])


@pytest.mark.parametrize("seed", range(8))
def test_resultant_matches_sympy(seed):
    rng = random.Random(seed)
    f, g = random_bipoly(rng, 3, 6), random_bipoly(rng, 2, 35)
    want = sympy.Poly(sympy.resultant(to_sympy(f), to_sympy(g), x), t, domain="QQ")
    assert sympy.Poly(to_sympy_t(resultant_x(f, g)), t, domain="QQ") == want
