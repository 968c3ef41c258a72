"""Higgs fields: checkers, random generation, odd-rank reduction.

A Higgs field here is a square matrix with entries in Q(t), lying in the
algebra of a Gram form, with simple poles allowed only at the marked points
of the affine chart.  The checkers verify exactly (no tolerances) the
structural laws the three group families impose on the characteristic
coefficients: evenness, the Pfaffian square, nilpotency of residues and the
pole-order bounds.

A field Phi = M / Delta is held as the integer pair (M, Delta), made by
`linalg.clear_fractions` whether the field is parsed from JSON, generated or
reduced; for a Gram form B = B' / E, B*Phi is held once as (B'M, E*Delta),
over a common denominator that no check needs reduced.  Membership, the
characteristic data (e_1..e_r over Z[t] with s_i = e_i / Delta^i), the
residues M(a) / Delta'(a) (each the integer pair (X, e) for X / e), the
Pfaffian and the so(2m+1) kernel line (the primitive integer Pfaffian
adjugate of B*Phi) are all read off these two: every value a check computes
is an integer object, Q appears only in the marked points and the printed
pole reason, and the JSON is written from the integers.
The generator does its constant linear algebra (residues, Cayley elements,
conjugation) over Z, each residue over one integer denominator, and
assembles M over the integer denominator prod (b_k t - a_k) of the marked
points a_k / b_k (`poly._chart_twist`).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .groups import (
    GramForm,
    GroupError,
    GroupSpec,
    _constant_gram,
    random_algebra_element,
    random_group_element,
    random_nilpotent_element,
    split_gram,
)
from .linalg import (
    Cleared,
    ZMat,
    clear_fractions,
    cleared_json,
    int_char_poly,
    int_mat_mul,
    int_pfaffian,
    is_symmetric,
    pfaffian_adjugate,
    zmat_mul,
)
from .poly import (
    RationalFunction,
    UniPoly,
    _chart_twist,
    _hom_eval,
    _hom_evals,
    _int_derivative,
    _int_exact_div,
    _int_gcd,
    _int_mul,
    _int_poly_mul_add,
    _int_pow,
    _int_trim,
    _split_at,
    int_fraction_grid_from_json,
    json_int_or_str,
    q_from_str,
    root_multiplicity,
)


class PoleOrderError(ArithmeticError):
    pass


class NonGenericFieldError(ArithmeticError):
    pass


class CharData:
    """det(x*I - Phi) = x^r + s_1 x^(r-1) + ... + s_r for Phi = M / Delta:
    s_i = e_i / Delta^i with e_i the i-th coefficient of det(x*I - M) over
    Z[t] (ascending integer tuples)."""

    def __init__(self, e: tuple[tuple[int, ...], ...], delta: tuple[int, ...]):
        self.e, self.delta = e, delta

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.e, self.delta) == (other.e, other.delta)

    def __hash__(self):
        return hash((self.e, self.delta))

    @property
    def r(self) -> int:
        return len(self.e)

    def x_cofactor(self) -> "CharData":
        """s_1..s_(r-1): the data of char / x when s_r = 0."""
        return CharData(self.e[:-1], self.delta)

    @cached_property
    def den_powers(self) -> tuple[list[int], ...]:
        """Delta^1..Delta^r over Z[t]: the denominators of s_1..s_r."""
        return tuple(_int_pow(self.delta, i) for i in range(1, self.r + 1))

    def pole_order(self, i: int, a: Fraction) -> int | None:
        """Order of the pole of s_i at t = a, i*ord_a(Delta) - ord_a(e_i):
        positive for a pole, <= 0 otherwise, None for s_i = 0."""
        e_i = self.e[i - 1]
        if not e_i:
            return None
        return i * root_multiplicity(self.delta, a) - root_multiplicity(e_i, a)

    def same_sections(self, other: "CharData") -> bool:
        """s_i = s'_i for every i, compared over Z[t] as
        e_i Delta'^i == e'_i Delta^i."""
        return self.r == other.r and all(
            _int_mul(a, q) == _int_mul(b, p)
            for a, b, p, q in zip(self.e, other.e, self.den_powers, other.den_powers)
        )


def marked_point(text: int | str) -> Fraction:
    """The rational of a marked point, a "p/q" string or an integer; a bad
    one raises ValueError naming it."""
    try:
        return q_from_str(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad marked point {text!r}") from None


def _check_shape(group: GroupSpec, rows, gram_rows) -> None:
    """The matrix of a field is r x r and its Gram form, if given, has r rows,
    for the group's r; a parsed document is checked before any Gram form is
    built."""
    r = group.rank_size
    if len(rows) != r or any(len(row) != r for row in rows):
        raise ValueError(f"matrix must be {r}x{r} for {group.kind}, m={group.m}")
    if gram_rows is not None and len(gram_rows) != r:
        raise ValueError("Gram form size does not match the group")


class HiggsField:
    """Phi = M / Delta with entries in Q(t), held as its clearing ``cleared``
    = (M, Delta); the values derived from it are computed once.  Equal only
    to itself."""

    def __init__(self, group: GroupSpec, gram: GramForm, cleared: Cleared, marked_points):
        _check_shape(group, cleared[0], gram.cleared[0])
        self.group, self.gram, self.cleared = group, gram, cleared
        self.marked_points = tuple(Fraction(a) for a in marked_points)
        if len(set(self.marked_points)) != len(self.marked_points):
            raise ValueError("duplicate marked points")

    @cached_property
    def matrix(self) -> tuple[tuple[RationalFunction, ...], ...]:
        """Phi as reduced rational functions."""
        ints, d = self.cleared
        return tuple(tuple(RationalFunction.from_ints(p, d) for p in row) for row in ints)

    @cached_property
    def gram_product(self) -> Cleared:
        """(B'M, E*Delta) with B*Phi = B'M / (E*Delta), for B cleared to (B', E)."""
        ints, d = self.cleared
        b, d_b = self.gram.cleared
        return int_mat_mul(b, ints), tuple(_int_mul(d, d_b))

    @cached_property
    def is_member(self) -> bool:
        """Phi^T B + B Phi = 0.  With B^T = e*B this is e*(B Phi)^T + B Phi = 0,
        so Phi is a member iff B'M, a nonzero multiple of B*Phi, is symmetric
        for a symplectic B (e = -1) and antisymmetric for a symmetric B (e = 1)."""
        return is_symmetric(self.gram_product[0], -self.gram.sign)

    @cached_property
    def char_data(self) -> CharData:
        ints, d = self.cleared
        return CharData(tuple(int_char_poly(ints)), d)

    @cached_property
    def pfaffian(self) -> tuple[int, ...]:
        """Pf(P) over Z[t] of an so(2m) field in its Lie algebra, for
        B*Phi = P / E: Pf(B*Phi) = Pf(P) / E^m."""
        if self.group.kind != "so-even":
            raise GroupError("Pfaffian square law applies to so-even fields only")
        if not self.is_member:
            raise ValueError("field is not in the Lie algebra of its Gram form")
        return int_pfaffian(self.gram_product[0])

    def to_dict(self) -> dict:
        out = {
            "group": self.group.kind,
            "m": self.group.m,
            "marked_points": [str(a) for a in self.marked_points],
            "matrix": cleared_json(self.cleared, self.marked_points),
        }
        if self.gram != split_gram(self.group):
            out["gram"] = cleared_json(self.gram.cleared, self.marked_points)
        return out

    @staticmethod
    def from_dict(data: dict) -> "HiggsField":
        """The field of a JSON document; a document of the wrong shape raises ValueError."""
        if not isinstance(data, dict) or not isinstance(data.get("marked_points", []), list):
            raise ValueError("a field must be a JSON object with a list of marked_points")
        missing = next((key for key in ("group", "m", "matrix", "marked_points") if key not in data), None)
        if missing:
            raise ValueError(f"a field needs the key {missing!r}")
        try:
            m = int(json_int_or_str(data["m"]))
        except ValueError:
            raise ValueError(f"bad m {data['m']!r}") from None
        group = GroupSpec(data["group"], m)
        gram_grid = int_fraction_grid_from_json(data["gram"]) if "gram" in data else None
        grid = int_fraction_grid_from_json(data["matrix"])
        _check_shape(group, grid, gram_grid)
        gram = split_gram(group)
        if gram_grid is not None:
            gram = GramForm(clear_fractions(gram_grid), gram.kind)
        marked = tuple(map(marked_point, data["marked_points"]))
        return HiggsField(group, gram, clear_fractions(grid), marked)


# -- residues and the strong-parabolicity law ---------------------------------


def residue_at(fld: HiggsField, a) -> tuple[ZMat, int]:
    """(X, e) with X / e the residue lim (t - a) * Phi(t) = M(a) / Delta'(a)
    at a marked point, unique with X integer, e > 0 and content 1: for a =
    p / b and k = max deg M + deg Delta - 1, b^k M(a) over b^k Delta'(a), both
    over Z.  (0, 1) when Delta(a) != 0; Delta'(a) = 0 at a root of Delta
    means a pole of order > 1."""
    a = Fraction(a)
    if a not in fld.marked_points:
        raise ValueError(f"t = {a} is not a marked point")
    ints, delta = fld.cleared
    p, b = a.numerator, a.denominator  # b^deg f * f(a) = _hom_eval(f, p, b)
    if _hom_eval(delta, p, b):
        return [[0] * len(ints) for _ in ints], 1
    slope = _hom_eval(_int_derivative(delta), p, b)
    if slope == 0:
        raise PoleOrderError(f"pole of order > 1 at t = {a}")
    n = max(len(q) for row in ints for q in row) - 1
    x = [_hom_evals(row, p, b, n + len(delta) - 2) for row in ints]
    e = slope * b**n
    g = math.gcd(e, *(v for row in x for v in row)) * (1 if e > 0 else -1)
    return [[v // g for v in row] for row in x], e // g


def _is_nilpotent(mat: ZMat, power: int) -> bool:
    """mat^power == 0 for an integer matrix."""
    cur = mat
    for _ in range(power - 1):
        if not any(map(any, cur)):
            break
        cur = zmat_mul(cur, mat)
    return not any(map(any, cur))


class StrongParabolicResult(NamedTuple):
    passed: bool
    failures: tuple[str, ...]


def strong_parabolic_check(fld: HiggsField) -> StrongParabolicResult:
    """Poles of Phi only at marked points, residue nilpotency at every marked
    point, and the pole bound ord_a(s_i) <= i - 1 on the characteristic
    coefficients."""
    failures: list[str] = []
    r = fld.group.rank_size
    orders, off = _split_at(fld.cleared[1], fld.marked_points)
    if len(off) > 1:
        failures.append(f"pole off the marked points: Phi has denominator factor {UniPoly.make(off).monic()}")
    for a in fld.marked_points:
        try:
            res, _ = residue_at(fld, a)
        except PoleOrderError as exc:
            failures.append(str(exc))
            continue
        if not _is_nilpotent(res, r):
            failures.append(f"residue at t = {a} is not nilpotent")
    # ord_a(s_i) = i ord_a(Delta) - ord_a(e_i), at most 0 when ord_a(Delta) = 0
    for i, e_i in enumerate(fld.char_data.e, start=1):
        for a, v in zip(fld.marked_points, orders):
            order = i * v - root_multiplicity(e_i, a) if v and e_i else 0
            if order > i - 1:
                failures.append(f"s_{i} has pole order {order} > {i - 1} at t = {a}")
    return StrongParabolicResult(not failures, tuple(failures))


# -- parity of the characteristic polynomial ----------------------------------


class ParityResult(NamedTuple):
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


class PfaffianSquareResult(NamedTuple):
    """s_2m * unit == pfaffian^2, with unit = det(B) ( = (-1)^m for the split
    Gram); each value is held as (num, den) for num / den over Z[t]."""

    passed: bool
    pfaffian: tuple[tuple[int, ...], tuple[int, ...]]
    unit: tuple[tuple[int, ...], tuple[int, ...]]


def pfaffian_square_check(fld: HiggsField) -> PfaffianSquareResult:
    """For so-even fields: s_2m * det(B) == Pf(B*Phi)^2 identically.  With
    Phi = M / Delta, B = B' / E and B*Phi = B'M / (E*Delta) this is
    e_2m * det B' == Pf(B'M)^2 over Z[t]."""
    pf, unit = fld.pfaffian, fld.gram.det
    passed = _int_mul(fld.char_data.e[-1], unit[0]) == _int_mul(pf, pf)
    return PfaffianSquareResult(passed, (pf, tuple(_int_pow(fld.gram_product[1], fld.group.m))), unit)


# -- random field generation ---------------------------------------------------


def random_strongly_parabolic_higgs(
    group: GroupSpec,
    marked_points,
    degree_bound: int,
    seed: int,
) -> HiggsField:
    """Seeded random field Phi(t) = sum_k N_k/(t - a_k) + P(t).

    Each residue N_k is a group conjugate of a strictly-upper-triangular
    algebra draw (hence nilpotent and in the algebra); the polynomial part
    has algebra-valued coefficients of degree <= degree_bound.  Identical
    arguments reproduce the field bit for bit.
    """
    if degree_bound < 0:
        raise ValueError("degree_bound must be >= 0")
    marked = tuple(Fraction(a) for a in marked_points)
    rng = random.Random(seed)
    gram = split_gram(group)
    r = group.rank_size

    # the split Gram is a signed permutation, B e_j = s_j e_p(j) with s_j = +-1,
    # so Q^(-1) = B^(-1) Q^T B has the entries s_i s_j Q_p(j),p(i)
    signed = [next((p, row[j]) for p, row in enumerate(_constant_gram(gram)) if row[j]) for j in range(r)]
    residues: list[tuple[ZMat, int]] = []  # (N', e) for N_k = N' / e
    for _ in marked:
        u = random_nilpotent_element(group, rng)
        q, delta = random_group_element(group, gram, rng)
        q_inv = [[s_i * s_j * q[p_j][p_i] for p_j, s_j in signed] for p_i, s_i in signed]
        n_k = zmat_mul(q, zmat_mul(u, q_inv))
        g = math.gcd(delta * delta, *(x for row in n_k for x in row))
        residues.append(([[x // g for x in row] for row in n_k], delta * delta // g))
    poly_coeffs = [random_algebra_element(group, rng, -3, 3) for _ in range(degree_bound + 1)]

    # Phi_ij = P_ij + sum_k N_k[i][j] b_k / (b_k t - a_k) for a_k = a/b in
    # lowest terms: every entry over k * D with D = prod (b_k t - a_k) and k
    # the lcm of the residue denominators
    big_d, _ = _chart_twist(marked)
    cofactors = [_int_exact_div(big_d, [-a.numerator, a.denominator]) for a in marked]
    k = math.lcm(1, *(e for _, e in residues))
    den = tuple(k * x for x in big_d)
    grid = []
    for i in range(r):
        row = []
        for j in range(r):
            num = _int_mul([k * c[i][j] for c in poly_coeffs], big_d)
            for a, cof, (n_k, e) in zip(marked, cofactors, residues):
                if n_k[i][j]:
                    _int_poly_mul_add(num, [n_k[i][j] * (k // e) * a.denominator], cof)
            row.append((tuple(_int_trim(num)), den))
        grid.append(row)
    return HiggsField(group, gram, clear_fractions(grid), marked)


# -- so(2m+1) reduction ---------------------------------------------------------


class SoOddReduction(NamedTuple):
    kernel_vector: tuple[tuple[int, ...], ...]
    removed_index: int
    reduced: Cleared
    induced_gram: GramForm


def _primitive_kernel_vector(polys: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    # coprime coordinates, integer content 1, first nonzero lc > 0: unique on the line
    nonzero = [list(p) for p in polys if p]
    g = nonzero[0]
    for p in nonzero[1:]:
        g = _int_gcd(g, p)
    polys = [_int_exact_div(list(p), g) if p else [] for p in polys]
    lead = next(p for p in polys if p)[-1]
    scale = math.gcd(*(c for p in polys for c in p)) * (1 if lead > 0 else -1)
    return [tuple(c // scale for c in p) for p in polys]


def so_odd_reduce(fld: HiggsField) -> SoOddReduction:
    """Split off the kernel line of a generic so(2m+1) field.

    Returns the primitive polynomial kernel vector, the clearing of the
    matrix of the action induced on the quotient by the standard-basis
    complement (dropping the coordinate of largest degree in the kernel
    vector), and the induced skew form G_ij = <Phi b_i, b_j> = (B*Phi)_ji.
    Guarantees x * char(reduced) = char(input).  The kernel is that of
    B*Phi, antisymmetric of odd size.
    """
    if fld.group.kind != "so-odd":
        raise GroupError("reduction applies to so-odd fields only")
    if not fld.is_member:
        raise ValueError("field is not in the Lie algebra of its Gram form")
    prod, prod_d = fld.gram_product
    w = pfaffian_adjugate(prod)
    if not any(w):
        raise NonGenericFieldError("non-generic field: kernel rank != 1")
    v = _primitive_kernel_vector(w)
    ell = max(range(len(v)), key=lambda i: (len(v[i]), -i))
    keep = [i for i in range(len(v)) if i != ell]
    ints, d = fld.cleared
    den = tuple(_int_mul(d, v[ell]))
    # Phi_ij - Phi_ell,j * v_i / v_ell = M'_ij / (Delta*v_ell), M'_ij = m_ij v_ell - m_ell,j v_i
    reduced = []
    for i in keep:
        row = []
        for j in keep:
            num = _int_mul(ints[i][j], v[ell])
            _int_poly_mul_add(num, [-x for x in ints[ell][j]], v[i])
            row.append((tuple(_int_trim(num)), den))
        reduced.append(row)
    induced = [[(prod[j][i], prod_d) for j in keep] for i in keep]
    try:
        gram = GramForm(clear_fractions(induced), "symplectic")
    except ValueError as exc:
        raise NonGenericFieldError(f"induced form is degenerate or not skew: {exc}") from None
    return SoOddReduction(tuple(v), ell, clear_fractions(reduced), gram)
