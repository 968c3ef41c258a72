"""Classical group bookkeeping and split bilinear forms, held over Z.

Random algebra elements and nilpotents are constant integer matrices, and a
Cayley group element is one over a single integer denominator, made by one
fraction-free inverse.  A Gram form has entries in Q(t) and is held as its
clearing B = B' / E with B' and E over Z[t]; it is checked there: B' is
(anti)symmetric and det B' (`linalg.int_det`) is nonzero.  The split form is
built over Z, as its integer B' over E = 1; only a parsed Gram form, or the
induced form of an odd reduction, goes through `linalg.clear_fractions`, the
routine that clears a Higgs field.  The determinant of a form is the integer
pair (det B', E^n), never a rational function.  Lie algebra membership of a
field Phi is read off the one product B*Phi, cleared to Z[t]: Phi^T B + B Phi
= 0 exactly when B*Phi is symmetric for a symplectic B and antisymmetric for
a symmetric B.

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
from functools import cached_property
from typing import NamedTuple

from .linalg import (
    Cleared,
    SingularMatrixError,
    ZMat,
    int_det,
    is_symmetric,
    zmat_inverse,
    zmat_mul,
)
from .poly import _int_pow

GROUP_KINDS = ("sp", "so-even", "so-odd")


class GroupError(ValueError):
    pass


class GroupSpec(NamedTuple("GroupSpec", [("kind", str), ("m", int)])):
    """One of Sp(2m), SO(2m), SO(2m+1) with its derived dimension data."""

    __slots__ = ()

    def __new__(cls, kind: str, m: int):
        if kind not in GROUP_KINDS:
            raise GroupError(f"unknown group kind {kind!r}")
        if m < 1:
            raise GroupError("m must be >= 1")
        return super().__new__(cls, kind, m)

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


class GramForm:
    """Invertible Gram matrix over Q(t), antisymmetric or symmetric, held as
    (B', E) with B = B' / E."""

    def __init__(self, cleared: Cleared, kind: str):  # kind: "symplectic" | "symmetric"
        self.cleared, self.kind = cleared, kind
        b = cleared[0]
        n = len(b)
        if any(len(row) != n for row in b):
            raise ValueError("Gram matrix must be square")
        if kind not in ("symplectic", "symmetric"):
            raise ValueError(f"unknown form kind {kind!r}")
        if not is_symmetric(b, self.sign):
            raise ValueError(f"Gram matrix is not {kind}")
        if not self.det[0]:
            raise ValueError("Gram matrix is degenerate")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.cleared, self.kind) == (other.cleared, other.kind)

    def __hash__(self):
        return hash((self.cleared, self.kind))

    @property
    def sign(self) -> int:
        """e with B^T = e*B: -1 for a symplectic form, 1 for a symmetric one."""
        return -1 if self.kind == "symplectic" else 1

    @property
    def size(self) -> int:
        return len(self.cleared[0])

    @cached_property
    def det(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(det B', E^n) over Z[t] with det B = det B' / E^n, det B' sampled by `int_det`."""
        b, e = self.cleared
        return int_det(b), tuple(_int_pow(e, len(b)))


@functools.cache
def split_gram(group: GroupSpec) -> GramForm:
    """The fixed split Gram model for the group, built once per group."""
    m, n = group.m, group.rank_size
    rows = [[0] * n for _ in range(n)]
    for i in range(m):
        rows[i][m + i], rows[m + i][i] = 1, -1 if group.kind == "sp" else 1
    if group.kind == "so-odd":
        rows[2 * m][2 * m] = 1
    cleared = (tuple(tuple((x,) if x else () for x in row) for row in rows), (1,))
    return GramForm(cleared, "symplectic" if group.kind == "sp" else "symmetric")


def _check_size(mat, gram: GramForm) -> int:
    n = len(mat)
    if any(len(row) != n for row in mat) or n != gram.size:
        raise ValueError("matrix size does not match the Gram form")
    return n


def _constant_gram(gram: GramForm) -> ZMat:
    b, d = gram.cleared
    if len(d) > 1 or any(len(p) > 1 for row in b for p in row):
        raise GroupError("the Gram form is not constant")
    return [[p[0] if p else 0 for p in row] for row in b]


def cayley_group_element(a: ZMat, gram: GramForm) -> tuple[ZMat, int]:
    """(Q', delta) with Q = Q' / delta = (I - A)(I + A)^(-1) for an integer
    matrix A, from one fraction-free inverse (I + A)^(-1) = X / delta: Q' =
    (I - A) X.  Q preserves the constant Gram form exactly.

    A must lie in the algebra of the form and I + A must be invertible.
    """
    n = _check_size(a, gram)
    # A is in the algebra iff (B A)^T = -e B A, for B^T = e B
    b_a = zmat_mul(_constant_gram(gram), a)
    if not is_symmetric([[(x,) for x in row] for row in b_a], -gram.sign):
        raise GroupError("input is not in the Lie algebra of the form")
    try:
        inv, delta = zmat_inverse([[int(i == j) + a[i][j] for j in range(n)] for i in range(n)])
    except SingularMatrixError:
        raise SingularMatrixError("Cayley pole") from None
    return zmat_mul([[int(i == j) - a[i][j] for j in range(n)] for i in range(n)], inv), delta


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


def _assemble(group: GroupSpec, p, q, r, v=None, w=None) -> ZMat:
    m = group.m
    out = [p[i] + q[i] for i in range(m)] + [r[i] + [-x for x in col] for i, col in enumerate(zip(*p))]
    if group.kind == "so-odd":
        out = [row + [x] for row, x in zip(out, v + w)] + [[-x for x in w + v] + [0]]
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


def random_algebra_element(group: GroupSpec, rng: random.Random, lo: int = -2, hi: int = 2) -> ZMat:
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


def random_nilpotent_element(group: GroupSpec, rng: random.Random) -> ZMat:
    """Seeded random member of the abelian block [[0, Q], [0, 0]] of the
    algebra, entries of Q in -3..3: strictly upper triangular, hence
    nilpotent, but never regular.

    For so-odd and so-even with m = 1 the block is zero (Q is 1 x 1 and
    antisymmetric), so the draw is the zero matrix.  The nilradical of so(3)
    is not zero: it is spanned by v, which this draw leaves out.  Regular
    nilpotent residues are ROADMAP item 2.
    """
    m = group.m
    zero = [[0] * m for _ in range(m)]
    q = _sym_block(rng, m, -3, 3, group.kind != "sp")
    return _assemble(group, zero, q, zero, [0] * m, [0] * m)


def random_group_element(group: GroupSpec, gram: GramForm, rng: random.Random) -> tuple[ZMat, int]:
    """Cayley transform (Q', delta) of a random algebra element; retries past Cayley poles."""
    while True:
        a = random_algebra_element(group, rng, -2, 2)
        try:
            return cayley_group_element(a, gram)
        except SingularMatrixError:
            continue
