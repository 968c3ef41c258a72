"""Higgs fields: checkers, random generation, odd-rank reduction.

A Higgs field here is a square matrix with entries in Q(t), lying in the
algebra of a Gram form, with simple poles allowed only at the marked points
of the affine chart.  The checkers verify exactly (no tolerances) the
structural laws the three group families impose on the characteristic
coefficients: evenness, the Pfaffian square, nilpotency of residues and the
pole-order bounds.

A field is cleared once to Phi = M / (c*d) with M over Z[t], and B*Phi is
formed once from M over Z[t].  Membership, the characteristic data
(e_1..e_r over Z[t] with s_i = e_i / (c*d)^i), the residues
M(a) / (c*d'(a)), the Pfaffian and the so(2m+1) kernel line (the Pfaffian
adjugate of B*Phi) are all read off these two, and no check computes over
Q(t): rational functions are built only for field entries and JSON output.
The generator does its constant linear algebra (residues, Cayley elements,
conjugation) over Q.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .groups import (
    GramForm,
    GroupError,
    GroupSpec,
    is_algebra_product,
    random_algebra_element,
    random_group_element,
    random_nilpotent_element,
    split_gram,
)
from .linalg import (
    IntMat,
    Mat,
    QMat,
    const_mat_mul,
    int_char_poly,
    int_mat_at,
    int_mat_mul,
    int_pfaffian,
    mat_inverse,
    pfaffian_adjugate,
    scaled_integer_matrix,
)
from .poly import (
    RationalFunction,
    UniPoly,
    _int_exact_div,
    _int_gcd,
    _int_poly_mul_add,
    q_from_str,
    q_to_str,
    root_multiplicity,
)


class PoleOrderError(ArithmeticError):
    pass


class NonGenericFieldError(ArithmeticError):
    pass


@dataclass(frozen=True)
class CharData:
    """det(x*I - Phi) = x^r + s_1 x^(r-1) + ... + s_r for Phi = M / (c*d):
    s_i = e_i / (c*d)^i with e_i the i-th coefficient of det(x*I - M) over
    Z[t] (ascending integer tuples), c a positive integer and d monic."""

    e: tuple[tuple[int, ...], ...]
    c: int
    d: UniPoly

    @property
    def r(self) -> int:
        return len(self.e)

    def x_cofactor(self) -> "CharData":
        """s_1..s_(r-1): the data of char / x when s_r = 0."""
        return CharData(self.e[:-1], self.c, self.d)

    @cached_property
    def den_powers(self) -> tuple[UniPoly, ...]:
        """(c*d)^1..(c*d)^r, the denominators that e_1..e_r are divided by."""
        den, power, out = self.d * self.c, UniPoly.one(), []
        for _ in self.e:
            power = power * den
            out.append(power)
        return tuple(out)

    def sections(self) -> list[RationalFunction]:
        """s_1..s_r as reduced rational functions, for output."""
        return [RationalFunction.make(UniPoly.make(e), p) for e, p in zip(self.e, self.den_powers)]

    def pole_order(self, i: int, a: Fraction) -> int | None:
        """Order of the pole of s_i at t = a, i*ord_a(d) - ord_a(e_i): positive
        for a pole, <= 0 otherwise, None for s_i = 0."""
        e_i = self.e[i - 1]
        if not e_i:
            return None
        return i * root_multiplicity(self.d.int_scaled()[0], a) - root_multiplicity(e_i, a)

    def same_sections(self, other: "CharData") -> bool:
        """s_i = s'_i for every i, compared as e_i (c'd')^i = e'_i (c d)^i."""
        return self.r == other.r and all(
            UniPoly.make(a) * q == UniPoly.make(b) * p
            for a, b, p, q in zip(self.e, other.e, self.den_powers, other.den_powers)
        )


@dataclass(eq=False)
class HiggsField:
    """Phi with entries in Q(t); the values derived from ``matrix`` are computed once."""

    group: GroupSpec
    gram: GramForm
    matrix: Mat
    marked_points: tuple[Fraction, ...]

    def __post_init__(self):
        r = self.group.rank_size
        if len(self.matrix) != r or any(len(row) != r for row in self.matrix):
            raise ValueError(f"matrix must be {r}x{r} for {self.group.kind}, m={self.group.m}")
        if self.gram.size != r:
            raise ValueError("Gram form size does not match the group")
        self.marked_points = tuple(Fraction(a) for a in self.marked_points)
        if len(set(self.marked_points)) != len(self.marked_points):
            raise ValueError("duplicate marked points")

    @cached_property
    def cleared(self) -> tuple[IntMat, UniPoly, int]:
        """(M, d, c) with Phi = M / (c*d), M over Z[t], d monic."""
        return scaled_integer_matrix(self.matrix)

    @cached_property
    def gram_product(self) -> tuple[IntMat, UniPoly]:
        """(P, e) with B*Phi = P / e: P = B'M over Z[t] for B = B' / (c'*d')."""
        ints, d, c = self.cleared
        b, d_b, c_b = self.gram.cleared
        return int_mat_mul(b, ints), d * d_b * (c * c_b)

    @cached_property
    def is_member(self) -> bool:
        """Phi^T B + B Phi = 0."""
        return is_algebra_product(self.gram_product[0], self.gram)

    @cached_property
    def char_data(self) -> CharData:
        ints, d, c = self.cleared
        return CharData(tuple(int_char_poly(ints)), c, d)

    @cached_property
    def pfaffian(self) -> tuple[int, ...]:
        """Pf(P) over Z[t] of an so(2m) field in its Lie algebra, with
        B*Phi = P / e: Pf(B*Phi) = Pf(P) / e^m."""
        if self.group.kind != "so-even":
            raise GroupError("Pfaffian square law applies to so-even fields only")
        if not self.is_member:
            raise ValueError("field is not in the Lie algebra of its Gram form")
        return int_pfaffian(self.gram_product[0])

    def to_dict(self) -> dict:
        out = {
            "group": self.group.kind,
            "m": self.group.m,
            "marked_points": [q_to_str(a) for a in self.marked_points],
            "matrix": [[x.to_json() for x in row] for row in self.matrix],
        }
        if self.gram != split_gram(self.group):
            out["gram"] = self.gram.to_json()
        return out

    @staticmethod
    def from_dict(data: dict) -> "HiggsField":
        group = GroupSpec(data["group"], int(data["m"]))
        if "gram" in data:
            kind = "symplectic" if group.kind == "sp" else "symmetric"
            gram = GramForm.from_json(data["gram"], kind)
        else:
            gram = split_gram(group)
        matrix = [[RationalFunction.from_json(x) for x in row] for row in data["matrix"]]
        marked = tuple(q_from_str(s) for s in data["marked_points"])
        return HiggsField(group, gram, matrix, marked)


# -- residues and the strong-parabolicity law ---------------------------------


def residue_at(fld: HiggsField, a) -> QMat:
    """Residue lim (t - a) * Phi(t) = M(a) / (c*d'(a)) at a marked point.

    Zero when d(a) != 0; d'(a) = 0 at a root of d means a pole of order > 1.
    """
    a = Fraction(a)
    if a not in fld.marked_points:
        raise ValueError(f"t = {a} is not a marked point")
    ints, d, c = fld.cleared
    if d(a) != 0:
        return [[Fraction(0)] * len(ints) for _ in ints]
    slope = d.derivative()(a)
    if slope == 0:
        raise PoleOrderError(f"pole of order > 1 at t = {a}")
    return [[x / (c * slope) for x in row] for row in int_mat_at(ints, a)]


def _fraction_mat_nilpotent(mat: QMat, power: int) -> bool:
    cur = mat
    for _ in range(power - 1):
        if all(x == 0 for row in cur for x in row):
            return True
        cur = const_mat_mul(cur, mat)
    return all(x == 0 for row in cur for x in row)


@dataclass(frozen=True)
class StrongParabolicResult:
    passed: bool
    failures: tuple[str, ...]


def strong_parabolic_check(fld: HiggsField) -> StrongParabolicResult:
    """Poles of Phi only at marked points, residue nilpotency at every marked
    point, and the pole bound ord_a(s_i) <= i - 1 on the characteristic
    coefficients."""
    failures: list[str] = []
    r = fld.group.rank_size
    off = fld.cleared[1]
    for a in fld.marked_points:
        off = off.exact_div(UniPoly.linear_root(a) ** root_multiplicity(off.int_scaled()[0], a))
    if off.degree > 0:
        failures.append(f"pole off the marked points: Phi has denominator factor {off}")
    for a in fld.marked_points:
        try:
            res = residue_at(fld, a)
        except PoleOrderError as exc:
            failures.append(str(exc))
            continue
        if not _fraction_mat_nilpotent(res, r):
            failures.append(f"residue at t = {a} is not nilpotent")
    char = fld.char_data
    for i in range(1, r + 1):
        for a in fld.marked_points:
            order = char.pole_order(i, a)
            if order is not None and order > i - 1:
                failures.append(f"s_{i} has pole order {order} > {i - 1} at t = {a}")
    return StrongParabolicResult(not failures, tuple(failures))


# -- parity of the characteristic polynomial ----------------------------------


@dataclass(frozen=True)
class ParityResult:
    passed: bool
    first_odd_index: int | None


def parity_classify(char: CharData, group: GroupSpec) -> ParityResult:
    """PASS iff all odd-indexed e_i vanish identically (so the char is even,
    resp. x times an even polynomial for so-odd)."""
    r = group.rank_size
    if char.r != r:
        raise ValueError(f"char data has degree {char.r}, group needs {r}")
    bad = next((i for i in range(1, r + 1, 2) if char.e[i - 1]), None)
    return ParityResult(bad is None, bad)


# -- Pfaffian square law -------------------------------------------------------


@dataclass(frozen=True)
class PfaffianSquareResult:
    passed: bool
    pfaffian: RationalFunction
    unit: RationalFunction
    """s_2m * unit == pfaffian^2, with unit = det(B) ( = (-1)^m for the split Gram)."""


def pfaffian_square_check(fld: HiggsField) -> PfaffianSquareResult:
    """For so-even fields: s_2m * det(B) == Pf(B*Phi)^2 identically.  With
    Phi = M / (c*d), B = B' / (c'*d') and B*Phi = B'M / e this is
    e_2m * det B' == Pf(B'M)^2 over Z[t]; the rational functions Pf(B*Phi)
    and det B are built for output only."""
    pf, gram = fld.pfaffian, fld.gram
    lhs: list[int] = []
    rhs: list[int] = []
    _int_poly_mul_add(lhs, fld.char_data.e[-1], gram.cleared_det)
    _int_poly_mul_add(rhs, pf, pf)
    pf_rf = RationalFunction.make(UniPoly.make(pf), fld.gram_product[1] ** fld.group.m)
    return PfaffianSquareResult(lhs == rhs, pf_rf, gram.det)


# -- random field generation ---------------------------------------------------


def random_strongly_parabolic_higgs(
    group: GroupSpec,
    marked_points,
    degree_bound: int,
    seed: int,
    *,
    _semisimple_first_residue: bool = False,
) -> HiggsField:
    """Seeded random field Phi(t) = sum_k N_k/(t - a_k) + P(t).

    Each residue N_k is a group conjugate of a strictly-upper-triangular
    algebra draw (hence nilpotent and in the algebra); the polynomial part
    has algebra-valued coefficients of degree <= degree_bound.  Identical
    arguments reproduce the field bit for bit.

    The keyword hook replaces the first residue by a semisimple diagonal
    element; that negative control breaks both strong-parabolicity clauses.
    """
    if degree_bound < 0:
        raise ValueError("degree_bound must be >= 0")
    marked = tuple(Fraction(a) for a in marked_points)
    if len(set(marked)) != len(marked):
        raise ValueError("duplicate marked points")
    rng = random.Random(seed)
    gram = split_gram(group)
    r = group.rank_size
    m = group.m

    residues: list[QMat] = []
    for k in range(len(marked)):
        if k == 0 and _semisimple_first_residue:
            diag = [Fraction(0)] * r
            diag[0], diag[m] = Fraction(1), Fraction(-1)
            residues.append([[diag[i] if i == j else Fraction(0) for j in range(r)] for i in range(r)])
            continue
        u = random_nilpotent_element(group, rng)
        q = random_group_element(group, gram, rng)
        residues.append(const_mat_mul(const_mat_mul(q, u), mat_inverse(q)))
    poly_coeffs = [random_algebra_element(group, rng, -3, 3) for _ in range(degree_bound + 1)]

    # every entry over the one denominator d = prod (t - a_k); make() reduces
    d = UniPoly.one()
    for a in marked:
        d = d * UniPoly.linear_root(a)
    cofactors = [d.exact_div(UniPoly.linear_root(a)) for a in marked]
    entries: Mat = []
    for i in range(r):
        row = []
        for j in range(r):
            num = UniPoly.make([c[i][j] for c in poly_coeffs]) * d
            for cof, n_k in zip(cofactors, residues):
                if n_k[i][j]:
                    num = num + cof * n_k[i][j]
            row.append(RationalFunction.make(num, d))
        entries.append(row)
    return HiggsField(group, gram, entries, marked)


def semisimple_residue_control(group: GroupSpec, marked_points, degree_bound: int, seed: int) -> HiggsField:
    """Negative control: first residue semisimple (diag(1, -1) block), so the
    residue is not nilpotent and s_2 picks up a pole of order 2."""
    if not marked_points:
        raise ValueError("control needs at least one marked point")
    return random_strongly_parabolic_higgs(
        group, marked_points, degree_bound, seed, _semisimple_first_residue=True
    )


# -- so(2m+1) reduction ---------------------------------------------------------


@dataclass(frozen=True)
class SoOddReduction:
    kernel_vector: tuple[UniPoly, ...]
    removed_index: int
    reduced: Mat
    induced_gram: GramForm


def _primitive_kernel_vector(polys: list[tuple[int, ...]]) -> tuple[UniPoly, ...]:
    # coprime coordinates, integer content 1, first nonzero lc > 0: unique on the line
    nonzero = [list(p) for p in polys if p]
    g = nonzero[0]
    for p in nonzero[1:]:
        g = _int_gcd(g, p)
    polys = [_int_exact_div(list(p), g) if p else [] for p in polys]
    lead = next(p for p in polys if p)[-1]
    scale = math.gcd(*(c for p in polys for c in p)) * (1 if lead > 0 else -1)
    return tuple(UniPoly.make(c // scale for c in p) for p in polys)


def so_odd_reduce(fld: HiggsField) -> SoOddReduction:
    """Split off the kernel line of a generic so(2m+1) field.

    Returns the primitive polynomial kernel vector, the matrix of the action
    induced on the quotient by the standard-basis complement (dropping the
    coordinate of largest degree in the kernel vector), and the induced skew
    form G_ij = <Phi b_i, b_j> = (B*Phi)_ji.  Guarantees x * char(reduced) =
    char(input).  The kernel is that of B*Phi, antisymmetric of odd size.
    """
    if fld.group.kind != "so-odd":
        raise GroupError("reduction applies to so-odd fields only")
    if not fld.is_member:
        raise ValueError("field is not in the Lie algebra of its Gram form")
    prod, prod_den = fld.gram_product
    w = pfaffian_adjugate(prod)
    if not any(w):
        raise NonGenericFieldError("non-generic field: kernel rank != 1")
    v = _primitive_kernel_vector(w)
    ell = max(range(len(v)), key=lambda i: (v[i].degree, -i))
    keep = [i for i in range(len(v)) if i != ell]
    ints, d, c = fld.cleared
    m = [[UniPoly.make(p) for p in row] for row in ints]
    den = d * c * v[ell]
    # Phi_ij - Phi_ell,j * v_i / v_ell over the one denominator c*d*v_ell
    reduced = [
        [RationalFunction.make(m[i][j] * v[ell] - m[ell][j] * v[i], den) for j in keep]
        for i in keep
    ]
    induced = [
        [RationalFunction.make(UniPoly.make(prod[j][i]), prod_den) for j in keep] for i in keep
    ]
    try:
        gram = GramForm.make(induced, "symplectic")
    except ValueError as exc:
        raise NonGenericFieldError(f"induced form is degenerate or not skew: {exc}") from None
    return SoOddReduction(v, ell, reduced, gram)
