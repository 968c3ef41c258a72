"""Classical group bookkeeping and split bilinear forms over Q.

Random algebra elements, nilpotents and Cayley group elements are constant
matrices of Fractions and live over Q.  A Gram form has entries in Q(t) and
is held as its clearing B = B' / (c*d) with B' over Z[t], made by the same
routine that clears a Higgs field; it is checked there: B' is
(anti)symmetric and det B' (Bareiss over Z[t]) is nonzero.  Lie algebra
membership of a field Phi is read off the one product B*Phi, cleared to
Z[t]: Phi^T B + B Phi = 0 exactly when B*Phi is symmetric for a symplectic B
and antisymmetric for a symmetric B.

The three families are tagged "sp" (Sp(2m)), "so-even" (SO(2m)) and
"so-odd" (SO(2m+1)).  Split Gram matrices are fixed once:

    sp      J = [[0, I], [-I, 0]]           (antisymmetric)
    so-even B = [[0, I], [I, 0]]            (symmetric)
    so-odd  B = [[0, I, 0], [I, 0, 0], [0, 0, 1]]

Over Q a definite symmetric form has no isotropic vectors and hence no
nonzero nilpotent elements in its algebra; the split models carry the
upper-triangular nilpotents needed for parabolic residues.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .bipoly import bareiss_det
from .linalg import (
    Cleared,
    IntMat,
    QMat,
    SingularMatrixError,
    clear_fractions,
    cleared_den,
    const_mat_mul,
    entry_ints,
    mat_inverse,
)
from .poly import RationalFunction, int_fraction_from_json

GROUP_KINDS = ("sp", "so-even", "so-odd")


class GroupError(ValueError):
    pass


@dataclass(frozen=True)
class GroupSpec:
    """One of Sp(2m), SO(2m), SO(2m+1) with its derived dimension data."""

    kind: str
    m: int

    def __post_init__(self):
        if self.kind not in GROUP_KINDS:
            raise GroupError(f"unknown group kind {self.kind!r}")
        if self.m < 1:
            raise GroupError("m must be >= 1")

    @staticmethod
    def sp(m: int) -> "GroupSpec":
        return GroupSpec("sp", m)

    @staticmethod
    def so_even(m: int) -> "GroupSpec":
        return GroupSpec("so-even", m)

    @staticmethod
    def so_odd(m: int) -> "GroupSpec":
        return GroupSpec("so-odd", m)

    @property
    def rank_size(self) -> int:
        """Matrix size r: 2m, or 2m+1 for so-odd."""
        return 2 * self.m + (1 if self.kind == "so-odd" else 0)

    @property
    def dim_group(self) -> int:
        m = self.m
        return m * (2 * m - 1) if self.kind == "so-even" else m * (2 * m + 1)

    @property
    def dim_borel(self) -> int:
        m = self.m
        return m * m if self.kind == "so-even" else m * m + m

    @property
    def dim_flag(self) -> int:
        """dim G/B, the full-flag contribution per marked point."""
        return self.dim_group - self.dim_borel


@dataclass(frozen=True)
class GramForm:
    """Invertible Gram matrix over Q(t), antisymmetric or symmetric, held as
    (B', d, c) with B = B' / (c*d)."""

    cleared: Cleared
    kind: str  # "symplectic" | "symmetric"

    def __post_init__(self):
        b = self.cleared[0]
        n = len(b)
        if any(len(row) != n for row in b):
            raise ValueError("Gram matrix must be square")
        if self.kind not in ("symplectic", "symmetric"):
            raise ValueError(f"unknown form kind {self.kind!r}")
        sign = -1 if self.kind == "symplectic" else 1
        if any(b[i][j] != tuple(sign * x for x in b[j][i]) for i in range(n) for j in range(i, n)):
            raise ValueError(f"Gram matrix is not {self.kind}")
        if not self.cleared_det:
            raise ValueError("Gram matrix is degenerate")

    @staticmethod
    def make(rows, kind: str) -> "GramForm":
        """The form of a grid of RationalFunctions and rational scalars."""
        return GramForm(clear_fractions([[entry_ints(x) for x in row] for row in rows]), kind)

    @property
    def size(self) -> int:
        return len(self.cleared[0])

    @cached_property
    def matrix(self) -> tuple[tuple[RationalFunction, ...], ...]:
        """B as reduced rational functions, for output."""
        b, d, c = self.cleared
        q, lead = cleared_den(d, c)
        return tuple(tuple(RationalFunction.from_ints(p, q, lead) for p in row) for row in b)

    @cached_property
    def cleared_det(self) -> tuple[int, ...]:
        """det B' over Z[t], by Bareiss: det B = det B' / (c*d)^n."""
        return tuple(bareiss_det([[list(p) for p in row] for row in self.cleared[0]]))

    @cached_property
    def det(self) -> RationalFunction:
        """det B, for output."""
        _, d, c = self.cleared
        return RationalFunction.from_ints(self.cleared_det, *cleared_den(d, c, self.size))

    def to_json(self) -> list[list[dict]]:
        return [[x.to_json() for x in row] for row in self.matrix]

    @staticmethod
    def from_json(data, kind: str) -> "GramForm":
        return GramForm(clear_fractions([[int_fraction_from_json(x) for x in row] for row in data]), kind)


@functools.cache
def split_gram(group: GroupSpec) -> GramForm:
    """The fixed split Gram model for the group, built once per group."""
    m = group.m
    if group.kind == "sp":
        rows = [[0] * 2 * m for _ in range(2 * m)]
        for i in range(m):
            rows[i][m + i] = 1
            rows[m + i][i] = -1
        return GramForm.make(rows, "symplectic")
    n = group.rank_size
    rows = [[0] * n for _ in range(n)]
    for i in range(m):
        rows[i][m + i] = 1
        rows[m + i][i] = 1
    if group.kind == "so-odd":
        rows[2 * m][2 * m] = 1
    return GramForm.make(rows, "symmetric")


def _check_size(mat, gram: GramForm) -> int:
    n = len(mat)
    if any(len(row) != n for row in mat) or n != gram.size:
        raise ValueError("matrix size does not match the Gram form")
    return n


def is_algebra_product(prod: IntMat, gram: GramForm) -> bool:
    """True iff prod, a nonzero multiple of B*mat, is symmetric for a
    symplectic B and antisymmetric for a symmetric B: with B^T = e*B,
    mat^T B + B mat = e*(B mat)^T + B mat."""
    sign = 1 if gram.kind == "symplectic" else -1
    n = len(prod)
    return all(
        prod[j][i] == tuple(sign * x for x in prod[i][j]) for i in range(n) for j in range(i, n)
    )


def _constant_gram(gram: GramForm) -> QMat:
    b, d, c = gram.cleared
    if d.degree > 0 or any(len(p) > 1 for row in b for p in row):
        raise GroupError("the Gram form is not constant")
    return [[Fraction(p[0] if p else 0, c) for p in row] for row in b]


def cayley_group_element(a: QMat, gram: GramForm) -> QMat:
    """Q = (I - A)(I + A)^(-1) over Q; preserves the constant Gram form exactly.

    A must lie in the algebra of the form and I + A must be invertible.
    """
    n = _check_size(a, gram)
    b_a = const_mat_mul(_constant_gram(gram), a)
    sign = 1 if gram.kind == "symplectic" else -1
    if any(b_a[j][i] != sign * b_a[i][j] for i in range(n) for j in range(i, n)):
        raise GroupError("input is not in the Lie algebra of the form")
    try:
        inv = mat_inverse([[int(i == j) + a[i][j] for j in range(n)] for i in range(n)])
    except SingularMatrixError:
        raise SingularMatrixError("Cayley pole") from None
    return const_mat_mul([[int(i == j) - a[i][j] for j in range(n)] for i in range(n)], inv)


# -- random elements ----------------------------------------------------------
#
# Block parametrization with the split Grams above (blocks of size m; v, w
# column vectors; Q_s symmetric, Q_a/R_a antisymmetric, P arbitrary):
#
#   sp      [[P, Q_s], [R_s, -P^T]]
#   so-even [[P, Q_a], [R_a, -P^T]]
#   so-odd  [[P, Q_a, v], [R_a, -P^T, w], [-w^T, -v^T, 0]]
#
# The strictly-upper-triangular members of each algebra form the abelian
# subspace {P = R = 0 (and v = w = 0), upper block as above}; conjugates of
# its draws supply the nilpotent residues of generated Higgs fields.


def _assemble(group: GroupSpec, p, q, r, v=None, w=None) -> QMat:
    m = group.m
    n = group.rank_size
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(m):
        for j in range(m):
            out[i][j] = Fraction(p[i][j])
            out[i][m + j] = Fraction(q[i][j])
            out[m + i][j] = Fraction(r[i][j])
            out[m + i][m + j] = Fraction(-p[j][i])
    if group.kind == "so-odd":
        for i in range(m):
            out[i][2 * m] = Fraction(v[i])
            out[m + i][2 * m] = Fraction(w[i])
            out[2 * m][i] = Fraction(-w[i])
            out[2 * m][m + i] = Fraction(-v[i])
    return out


def _sym_block(rng: random.Random, m: int, lo: int, hi: int, anti: bool):
    b = [[0] * m for _ in range(m)]
    for i in range(m):
        if not anti:
            b[i][i] = rng.randint(lo, hi)
        for j in range(i + 1, m):
            x = rng.randint(lo, hi)
            b[i][j] = x
            b[j][i] = -x if anti else x
    return b


def random_algebra_element(group: GroupSpec, rng: random.Random, lo: int = -2, hi: int = 2) -> QMat:
    """Seeded random element of the split-form Lie algebra (integer entries)."""
    m = group.m
    anti = group.kind != "sp"
    p = [[rng.randint(lo, hi) for _ in range(m)] for _ in range(m)]
    q = _sym_block(rng, m, lo, hi, anti)
    r = _sym_block(rng, m, lo, hi, anti)
    v = w = None
    if group.kind == "so-odd":
        v = [rng.randint(lo, hi) for _ in range(m)]
        w = [rng.randint(lo, hi) for _ in range(m)]
    return _assemble(group, p, q, r, v, w)


def random_nilpotent_element(group: GroupSpec, rng: random.Random, lo: int = -3, hi: int = 3) -> QMat:
    """Seeded random strictly-upper-triangular member of the algebra.

    For so-odd with m = 1 (and so-even with m = 1) this space is zero, so
    the draw is the zero matrix; those algebras have no strictly upper
    triangular nilpotents in the fixed split basis.
    """
    m = group.m
    anti = group.kind != "sp"
    zero = [[0] * m for _ in range(m)]
    q = _sym_block(rng, m, lo, hi, anti)
    v = w = None
    if group.kind == "so-odd":
        v = [0] * m
        w = [0] * m
    return _assemble(group, zero, q, zero, v, w)


def random_group_element(group: GroupSpec, gram: GramForm, rng: random.Random) -> QMat:
    """Cayley transform of a random algebra element; retries past Cayley poles."""
    while True:
        a = random_algebra_element(group, rng, -2, 2)
        try:
            return cayley_group_element(a, gram)
        except SingularMatrixError:
            continue
