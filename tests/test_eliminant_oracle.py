"""`rational_roots`, the spectral curve and the x-eliminants against sympy.

The root finder is handed integer polynomials with planted rational roots of
multiplicity 1..3, end coefficients of at least 64 bits and an irreducible
quadratic cofactor; its output must equal sympy's rational roots.  The
spectral curve H over Z[t][x], the primitive clearing of the twisted
characteristic polynomial f = H / lc(H), is compared with f as sympy computes
it from the field's matrix, on fields whose marked points include 1/2, so
lc(H) is not 1; its discriminant is compared with sympy's, there, on
generated curves at m = 3, on the quotients G of generated curves at m = 4
and 5, and on hand-written curves whose leading coefficient is not 1.  The
Sylvester resultant, `linalg.int_det` of the Sylvester matrix, is compared
on random pairs of bivariate integer polynomials that are not monic.  sympy
is a test-only oracle.
"""

import math
import random
from fractions import Fraction

import pytest

from parahiggs.bipoly import discriminant_x
from parahiggs.curves import build_plane_curve
from parahiggs.groups import GroupSpec
from parahiggs.higgs import random_strongly_parabolic_higgs
from parahiggs.linalg import int_det
from parahiggs.poly import UniPoly, rational_roots

from helpers import sylvester_matrix

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402
t, x = sympy.symbols("t x")


def sym_q(c: Fraction):
    return sympy.Rational(c.numerator, c.denominator)


def to_sympy_t(p: UniPoly):
    return sum(sym_q(c) * t**j for j, c in enumerate(p.coeffs))


def to_sympy(f) -> sympy.Expr:
    """A bivariate integer polynomial, ascending in x."""
    return sum(c * t**j * x**i for i, p in enumerate(f) for j, c in enumerate(p))


def twisted_char(fld) -> sympy.Expr:
    """D^r char(x / D) from sympy's characteristic polynomial of the field's
    matrix, D = prod (t - a_k); for so(2m+1), that of char / x.  With L the
    lcm of the entry denominators and a_i the coefficients of det(x - L Phi),
    its x^(r-i) coefficient is a_i D^i / L^i."""
    def entry(e):
        num, den = (sum(sympy.Rational(c) * t**j for j, c in enumerate(e[k])) for k in ("num", "den"))
        return num / den

    doc = fld.to_dict()
    phi = sympy.Matrix([[entry(e) for e in row] for row in doc["matrix"]])
    lcm = sympy.lcm([sympy.denom(sympy.cancel(e)) for e in phi])
    mat = DomainMatrix.from_Matrix((lcm * phi).applyfunc(sympy.cancel))
    coeffs = [mat.domain.to_sympy(a) for a in mat.charpoly()]
    if doc["group"] == "so-odd":
        assert coeffs[-1] == 0
        coeffs = coeffs[:-1]
    twist = sympy.Mul(*(t - sympy.Rational(a) for a in doc["marked_points"]))
    r = len(coeffs) - 1
    return sympy.expand(sum(sympy.cancel(a * twist**i / lcm**i) * x ** (r - i) for i, a in enumerate(coeffs)))


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


# so(2) is abelian, so so-even fields with m = 1 are not among the cases; from
# m = 4 the case is the discriminant of the quotient G with H(t, x) = G(t, x^2),
# the one `analyze` takes, on the node route of `linalg._interpolated`
QUOTIENT_FROM_M = 4
DISC_CASES = [
    (kind, m, marked, seed)
    for kind in ("sp", "so-even", "so-odd")
    for m, marked in ((1, "1/2"), (1, "0,1/2,-2"), (2, "1/2"), (2, "0,1/2"))
    for seed in range(2)
    if (kind, m) != ("so-even", 1)
] + [(kind, 3, "1/2", 0) for kind in ("sp", "so-odd")] + [
    (kind, m, "1/2", 0) for kind in ("sp", "so-even", "so-odd") for m in (4, 5)
]


@pytest.mark.parametrize("kind,m,marked,seed", DISC_CASES)
def test_discriminant_matches_sympy(kind, m, marked, seed):
    points = tuple(Fraction(a) for a in marked.split(","))
    fld = random_strongly_parabolic_higgs(GroupSpec(kind, m), points, 1, seed)
    curve = build_plane_curve(fld)
    (lead,) = curve.coeffs[-1]
    assert lead > 1
    assert sympy.expand(to_sympy(curve.coeffs) / lead) == twisted_char(fld)
    assert_discriminant_matches(curve.coeffs if m < QUOTIENT_FROM_M else curve.quotient)


def assert_discriminant_matches(f):
    want = sympy.Poly(sympy.discriminant(to_sympy(f), x), t, domain="ZZ")
    assert sympy.Poly(to_sympy_t(discriminant_x(f)), t, domain="ZZ") == want


@pytest.mark.parametrize("f", [
    # 2x^2 + 1, 3x^3 - t x + 1 and (2t + 1) x^2 + x - t, with no symmetry
    [[1], [], [2]],
    [[1], [0, -1], [], [3]],
    [[0, -1], [1], [1, 2]],
    # (25x^2 - 4)^2 - 16 t^2: lc 625, singular at (0, +-2/5), off x = 0
    [[16, 0, -16], [], [-200], [], [625]],
    # (36x^2 - t^2 (3t - 1)^2)(36x^2 - (3t - 1)^2), lc 1296: the curve of
    # the "sp-scaled-witnesses" field, singular at (+-1, +-1/3) and (-1, +-2/3)
    [[0, 0, 1, -12, 54, -108, 81], [], [-36, 216, -360, 216, -324], [], [1296]],
], ids=["quadratic", "cubic", "t-leading", "quartic-625", "field-1296"])
def test_non_monic_discriminant_matches_sympy(f):
    assert_discriminant_matches(f)


def random_bipoly(rng: random.Random, deg_x: int) -> list[list[int]]:
    return [[rng.randint(-9, 9) for _ in range(3)] for _ in range(deg_x)] + [[rng.randint(1, 9), 1]]


@pytest.mark.parametrize("seed", range(8))
def test_resultant_matches_sympy(seed):
    rng = random.Random(seed)
    f, g = random_bipoly(rng, 3), random_bipoly(rng, 2)
    want = sympy.Poly(sympy.resultant(to_sympy(f), to_sympy(g), x), t, domain="ZZ")
    got = sum(c * t**j for j, c in enumerate(int_det(sylvester_matrix(f, g))))
    assert sympy.Poly(got, t, domain="ZZ") == want
