"""Higgs field checkers, the seeded generator, and the odd-rank reduction."""

import itertools
import math
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from parahiggs import higgs
from parahiggs.groups import GROUP_KINDS, GramForm, GroupError, GroupSpec, split_gram
from parahiggs.higgs import (
    CharData,
    HiggsField,
    NonGenericFieldError,
    PoleOrderError,
    parity_classify,
    pfaffian_square_check,
    random_strongly_parabolic_higgs,
    residue_at,
    so_odd_reduce,
    strong_parabolic_check,
)
from parahiggs.linalg import int_char_poly
from parahiggs.poly import RationalFunction, UniPoly, root_multiplicity

from helpers import gram_matrix, scalars, sections, semisimple_residue_control

P = UniPoly.make
RF = RationalFunction.make


def char_sections(cleared):
    """s_1..s_r of det(x*I - Phi) as reduced rational functions, for the
    clearing (M, Delta) of Phi."""
    ints, d = cleared
    return sections(CharData(tuple(int_char_poly(ints)), d))


def sp1_field(entries, marked):
    return HiggsField.from_grid(GroupSpec.sp(1), split_gram(GroupSpec.sp(1)), entries, marked)


def cross_matrix(a, b, c):
    """v -> (a,b,c) x v; antisymmetric with kernel (a, b, c)."""
    return scalars([[0, -c, b], [c, 0, -a], [-b, a, 0]])


def so3_identity_gram_field(a, b, c, marked=()):
    gram = GramForm.make([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "symmetric")
    return HiggsField.from_grid(GroupSpec.so_odd(1), gram, cross_matrix(a, b, c), marked)


ONE_OVER_T = RF(P([1]), P([0, 1]))
MINUS_ONE_OVER_T = RF(P([-1]), P([0, 1]))
T = RF(P([0, 1]))
MINUS_T = RF(P([0, -1]))
ZERO = RF(0)


class TestResidue:
    def test_reads_off_simple_pole(self):
        fld = sp1_field([[T, ONE_OVER_T], [T, MINUS_T]], (Q(0),))
        assert residue_at(fld, 0) == ([[0, 1], [0, 0]], 1)

    def test_polynomial_entries_zero_residue(self):
        fld = sp1_field([[T, RF(P([0, 0, 1]))], [RF(1), MINUS_T]], (Q(0),))
        assert residue_at(fld, 0) == ([[0, 0], [0, 0]], 1)

    def test_diagonal_pole(self):
        f, minus_f = RF(P([1]), P([-1, 1])), RF(P([-1]), P([-1, 1]))
        fld = sp1_field([[f, ZERO], [ZERO, minus_f]], (Q(1),))
        assert residue_at(fld, 1) == ([[1, 0], [0, -1]], 1)

    def test_unmarked_point_rejected(self):
        fld = sp1_field([[T, ZERO], [ZERO, MINUS_T]], (Q(0),))
        with pytest.raises(ValueError, match="not a marked point"):
            residue_at(fld, 5)

    def test_high_order_pole_rejected(self):
        f = RF(P([1]), P([0, 0, 1]))
        fld = sp1_field([[ZERO, f], [ZERO, ZERO]], (Q(0),))
        with pytest.raises(PoleOrderError):
            residue_at(fld, 0)

    def test_fractional_marked_point(self):
        # poles at a = 2/3, cleared over D = 3t - 2 (lc(D) = 3): the residue of
        # n(t) / (k (3t - 2)) is n(2/3) / (3k), here X / 27 for an integer X
        third = P([-2, 3])
        fld = sp1_field(
            [[RF(P([0, 1]), third), RF(P([1, -2, 3]), third)],  # t/(3t-2), 1/(3t-2) + t
             [RF(P([0, 0, 1]), third * 2), RF(P([0, -1]), third)]],  # t^2/(6t-4), -t/(3t-2)
            (Q(2, 3),),
        )
        assert residue_at(fld, Q(2, 3)) == ([[6, 9], [2, -6]], 27)

    def test_double_pole_at_a_fractional_marked_point(self):
        fld = sp1_field([[ZERO, RF(P([1]), P([4, -12, 9]))], [ZERO, ZERO]], (Q(2, 3),))  # 1/(3t-2)^2
        with pytest.raises(PoleOrderError, match="pole of order > 1 at t = 2/3"):
            residue_at(fld, Q(2, 3))
        assert strong_parabolic_check(fld).failures == ("pole of order > 1 at t = 2/3",)

    @given(
        st.sampled_from(GROUP_KINDS),
        st.integers(1, 3),
        st.integers(0, 2),
        st.sampled_from([Q(1, 2), Q(-2, 3), Q(3, 4)]),
        st.lists(st.sampled_from([Q(0), Q(1), Q(-2), Q(5, 3)]), max_size=2, unique=True),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_integer_residue_matches_fraction_residue(self, kind, m, deg, fractional, others, seed):
        # oracle: num(a) / den'(a) of each reduced entry with a simple pole at a, 0 elsewhere
        def at(p, a):
            return sum(c * a**k for k, c in enumerate(p.coeffs))

        marked = [fractional, *others]
        fld = random_strongly_parabolic_higgs(GroupSpec(kind, m), marked, deg, seed)
        for a in marked:
            x, e = residue_at(fld, a)
            assert e > 0 and math.gcd(e, *(v for row in x for v in row)) == 1
            want = [[at(f.num, a) / at(f.den.derivative(), a) if at(f.den, a) == 0 else 0 for f in row]
                    for row in fld.matrix]
            assert [[Q(v, e) for v in row] for row in x] == want


class TestCharAndParity:
    def test_sl2_char(self):
        fld = sp1_field(scalars([[1, 2], [3, -1]]), ())
        s = fld.char_data
        assert s.e == ((), (-7,))  # x^2 - 7
        assert sections(s) == [RF(0), RF(-7)]
        res = parity_classify(s, GroupSpec.sp(1))
        assert res.passed and res.first_odd_index is None

    def test_so3_cofactor(self):
        # cross matrix (1,2,3): char = x^3 + 14x
        s = so3_identity_gram_field(1, 2, 3).char_data
        assert s.e == ((), (14,), ())
        res = parity_classify(s, GroupSpec.so_odd(1))
        assert res.passed
        assert sections(s.x_cofactor()) == [RF(0), RF(14)]  # x^2 + 14

    def test_fail_carries_first_index(self):
        s = CharData(((1,), ()), (1,))  # x^2 + x
        res = parity_classify(s, GroupSpec.sp(1))
        assert not res.passed and res.first_odd_index == 1

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="degree"):
            parity_classify(CharData(((), (1,)), (1,)), GroupSpec.so_odd(1))


class TestStrongParabolic:
    def test_nilpotent_residue_passes(self):
        fld = sp1_field([[T, ONE_OVER_T], [T, MINUS_T]], (Q(0),))
        assert fld.is_member
        res = strong_parabolic_check(fld)
        assert res.passed, res.failures
        # s_2 = -t^2 - 1: pole order 0 <= 1
        assert sections(fld.char_data)[1] == RF(P([-1, 0, -1]))

    def test_semisimple_residue_fails_both_clauses(self):
        fld = sp1_field([[ONE_OVER_T, ZERO], [ZERO, MINUS_ONE_OVER_T]], (Q(0),))
        res = strong_parabolic_check(fld)
        assert not res.passed
        text = "\n".join(res.failures)
        assert "not nilpotent" in text
        assert "pole order 2 > 1" in text
        # the offending coefficient is s_2 = -1/t^2
        assert sections(fld.char_data)[1] == RF(P([-1]), P([0, 0, 1]))

    def test_polynomial_entries_pass_vacuously(self):
        fld = sp1_field([[T, T], [T, MINUS_T]], (Q(0),))
        res = strong_parabolic_check(fld)
        assert res.passed

    def test_pole_off_marked_points_fails(self):
        # nilpotent, in sp(1), char = x^2: only the pole at t = 5 is wrong
        fld = sp1_field([[ZERO, RF(P([1]), P([-5, 1]))], [ZERO, ZERO]], (Q(0),))
        assert fld.is_member
        res = strong_parabolic_check(fld)
        assert res.failures == ("pole off the marked points: Phi has denominator factor -5 + t",)

    def test_double_pole_at_marked_point_reported_once(self):
        fld = sp1_field([[ZERO, RF(P([1]), P([0, 0, 1]))], [ZERO, ZERO]], (Q(0),))
        assert strong_parabolic_check(fld).failures == ("pole of order > 1 at t = 0",)

    def test_reduced_field_has_poles_at_the_kernel_pivot(self):
        # the quotient frame of reduce-odd is singular where v_ell vanishes
        fld = random_strongly_parabolic_higgs(GroupSpec.so_odd(2), [0], 0, seed=100)
        red = so_odd_reduce(fld)
        v_ell = P(red.kernel_vector[red.removed_index])
        reduced = HiggsField(GroupSpec.sp(2), red.induced_gram, red.reduced, fld.marked_points)
        assert reduced.is_member
        (failure,) = strong_parabolic_check(reduced).failures
        assert failure == f"pole off the marked points: Phi has denominator factor {v_ell.monic()}"


# semisimple controls, whose s_2 has a pole of order 2 at the first marked
# point, a generated field, and a hand-built sp(1) field with s_2 = -1/t^2
POLE_FIELDS = [
    lambda: semisimple_residue_control(GroupSpec.sp(2), [0, 1], 1, seed=5),
    lambda: semisimple_residue_control(GroupSpec.so_odd(2), [Q(1, 2), -1], 0, seed=2),
    lambda: semisimple_residue_control(GroupSpec.so_even(2), [Q(1, 3), Q(-2, 5), 2], 1, seed=0),
    lambda: semisimple_residue_control(GroupSpec.sp(1), [Q(-2, 3)], 0, seed=7),
    lambda: random_strongly_parabolic_higgs(GroupSpec.sp(2), [0, Q(1, 2)], 1, seed=3),
    lambda: sp1_field([[ONE_OVER_T, ZERO], [ZERO, MINUS_ONE_OVER_T]], (Q(0), Q(1))),
]


class TestPoleOrders:
    """`strong_parabolic_check` reads ord_a(Delta) from one split of Delta per
    field; `CharData.pole_order`, which finds it again for every i, is its
    oracle."""

    @pytest.mark.parametrize("make", POLE_FIELDS)
    def test_orders_match_the_reported_failures(self, make):
        fld = make()
        char = fld.char_data
        want = [
            f"s_{i} has pole order {order} > {i - 1} at t = {a}"
            for i in range(1, char.r + 1)
            for a in fld.marked_points
            if (order := char.pole_order(i, a)) is not None and order > i - 1
        ]
        got = [f for f in strong_parabolic_check(fld).failures if " has pole order " in f]
        assert got == want

    @pytest.mark.parametrize("make", POLE_FIELDS)
    def test_delta_is_split_once_per_marked_point(self, make, monkeypatch):
        # at most one root_multiplicity call on Delta per marked point and
        # check, where reading pole_order per (i, a) makes up to r * n
        fld = make()
        delta = list(fld.cleared[1])
        calls = []

        def counting(p, a):
            calls.append(list(p) == delta)
            return root_multiplicity(p, a)

        monkeypatch.setattr(higgs, "root_multiplicity", counting)
        strong_parabolic_check(fld)
        assert sum(calls) <= len(fld.marked_points)


class TestPfaffianSquare:
    def test_so2_toy(self):
        group = GroupSpec.so_even(1)
        fld = HiggsField.from_grid(group, split_gram(group), [[T, ZERO], [ZERO, MINUS_T]], ())
        res = pfaffian_square_check(fld)
        assert res.passed
        assert RationalFunction.from_ints(*res.pfaffian) == MINUS_T
        assert RationalFunction.from_ints(*res.unit) == RF(-1)  # det B = (-1)^m, m = 1

    def test_zero_field(self):
        group = GroupSpec.so_even(2)
        z = [[ZERO] * 4 for _ in range(4)]
        fld = HiggsField.from_grid(group, split_gram(group), z, ())
        res = pfaffian_square_check(fld)
        assert res.passed and not res.pfaffian[0]

    def test_wrong_group_rejected(self):
        fld = sp1_field([[T, ZERO], [ZERO, MINUS_T]], ())
        with pytest.raises(GroupError):
            pfaffian_square_check(fld)

    def test_random_so4(self):
        for seed in range(10):
            fld = random_strongly_parabolic_higgs(GroupSpec.so_even(2), [0, 1], 1, seed)
            assert pfaffian_square_check(fld).passed


class TestGenerator:
    @pytest.mark.parametrize("kind,m", [("sp", 1), ("sp", 2), ("so-even", 2), ("so-odd", 1), ("so-odd", 2)])
    def test_contract(self, kind, m):
        group = GroupSpec(kind, m)
        fld = random_strongly_parabolic_higgs(group, [0, -1], 2, seed=11)
        assert fld.is_member
        assert strong_parabolic_check(fld).passed
        assert parity_classify(fld.char_data, group).passed

    def test_determinism(self):
        a = random_strongly_parabolic_higgs(GroupSpec.sp(2), [0, 1], 2, seed=42)
        b = random_strongly_parabolic_higgs(GroupSpec.sp(2), [0, 1], 2, seed=42)
        assert a.to_dict() == b.to_dict()
        c = random_strongly_parabolic_higgs(GroupSpec.sp(2), [0, 1], 2, seed=43)
        assert a.to_dict() != c.to_dict()

    def test_duplicate_marked_points_rejected(self):
        # HiggsField rejects them, with the message the generator once raised itself
        with pytest.raises(ValueError, match="^duplicate marked points$"):
            random_strongly_parabolic_higgs(GroupSpec.sp(1), [0, 0], 1, seed=1)
        with pytest.raises(ValueError, match="^duplicate marked points$"):
            random_strongly_parabolic_higgs(GroupSpec.so_odd(2), [Q(1, 2), 0, Q(2, 4)], 0, seed=1)

    def test_negative_control_flagged(self):
        fld = semisimple_residue_control(GroupSpec.sp(2), [0, 1], 1, seed=5)
        res = strong_parabolic_check(fld)
        assert not res.passed
        assert any("pole order" in f for f in res.failures)

    def test_json_roundtrip(self):
        fld = random_strongly_parabolic_higgs(GroupSpec.so_odd(2), [0, Q(1, 2)], 1, seed=3)
        again = HiggsField.from_dict(fld.to_dict())
        assert again.to_dict() == fld.to_dict()
        assert again.matrix == fld.matrix

    def test_output_grid_is_immutable(self):
        # the checks read ``cleared``, so an in-place edit of the output grid must fail
        fld = random_strongly_parabolic_higgs(GroupSpec.sp(1), [0], 1, seed=3)
        with pytest.raises(TypeError):
            fld.matrix[0][1] = fld.matrix[0][0]


class TestSoOddReduce:
    def test_kernel_e1(self):
        fld = so3_identity_gram_field(1, 0, 0)
        red = so_odd_reduce(fld)
        assert red.kernel_vector == ((1,), (), ())
        assert char_sections(red.reduced) == [RF(0), RF(1)]  # x^2 + 1

    def test_cross_123(self):
        red = so_odd_reduce(so3_identity_gram_field(1, 2, 3))
        assert char_sections(red.reduced) == [RF(0), RF(14)]  # x^2 + 14

    def test_char_factorization_and_skewness(self):
        for seed in range(6):
            for m in (1, 2):
                fld = random_strongly_parabolic_higgs(GroupSpec.so_odd(m), [0], 1, seed=seed)
                try:
                    red = so_odd_reduce(fld)
                except NonGenericFieldError:
                    continue
                full = char_sections(fld.cleared)
                reduced = char_sections(red.reduced)
                # x * char(reduced) = char(full): s_i(full) = s_i(reduced), s_r(full) = 0
                assert full[-1].num.is_zero
                assert full[:-1] == reduced
                g = gram_matrix(red.induced_gram)
                assert all(
                    g[i][j].num == g[j][i].num * -1 and g[i][j].den == g[j][i].den
                    for i in range(2 * m) for j in range(2 * m)
                )

    def test_wrong_group(self):
        fld = sp1_field([[T, ZERO], [ZERO, MINUS_T]], ())
        with pytest.raises(GroupError):
            so_odd_reduce(fld)

    def test_kernel_vector_is_exact_kernel(self):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        t = sympy.Symbol("t")

        def to_sympy(p):
            return sum(sympy.Rational(c) * t**k for k, c in enumerate(p))

        def to_sympy_rf(x):
            return to_sympy(x.num.coeffs) / to_sympy(x.den.coeffs)

        checked = 0
        for m, seed in itertools.product((1, 2), range(4)):
            fld = random_strongly_parabolic_higgs(GroupSpec.so_odd(m), [0, Q(1, 2)], 1, seed=seed)
            try:
                v = so_odd_reduce(fld).kernel_vector
            except NonGenericFieldError:
                continue
            n = len(v)
            # Phi v = 0 exactly, and sympy's nullspace over Q(t) is one line that v lies on
            phi = sympy.Matrix(n, n, lambda i, j: to_sympy_rf(fld.matrix[i][j]))
            phi_v = phi * sympy.Matrix([to_sympy(p) for p in v])
            assert all(sympy.cancel(x) == 0 for x in phi_v)
            dm = DomainMatrix.from_Matrix(phi).to_field()
            null = dm.nullspace()
            assert null.shape == (1, n)
            field = dm.domain
            w = [field.from_sympy(x) for x in null.to_Matrix().row(0)]
            u = [field.from_sympy(to_sympy(p)) for p in v]
            assert all(u[i] * w[j] == u[j] * w[i] for i in range(n) for j in range(n))
            checked += 1
        assert checked >= 4

    def test_non_member_rejected(self):
        # zero except a diagonal entry: not in so(3) for the split form
        z = [[ZERO] * 3 for _ in range(3)]
        z[0][0] = T
        fld = HiggsField.from_grid(GroupSpec.so_odd(1), split_gram(GroupSpec.so_odd(1)), z, ())
        with pytest.raises(ValueError, match="not in the Lie algebra"):
            so_odd_reduce(fld)

    def test_non_generic_detected(self):
        # zero matrix: kernel rank 3
        gram = GramForm.make([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "symmetric")
        z = [[ZERO] * 3 for _ in range(3)]
        fld = HiggsField.from_grid(GroupSpec.so_odd(1), gram, z, ())
        with pytest.raises(NonGenericFieldError):
            so_odd_reduce(fld)

    def test_induced_form_is_submatrix_of_phi_t_b(self):
        fld = so3_identity_gram_field(1, 2, 3)
        red = so_odd_reduce(fld)
        # constant Phi and B = I: Phi^T B = Phi^T, entries are integers
        phi = [[p[0] if p else 0 for p in row] for row in fld.cleared[0]]
        b = [[p[0] if p else 0 for p in row] for row in fld.gram.cleared[0]]
        phi_t_b = [[sum(phi[s][i] * b[s][j] for s in range(3)) for j in range(3)] for i in range(3)]
        keep = [i for i in range(3) if i != red.removed_index]
        expect = [[RF(phi_t_b[i][j]) for j in keep] for i in keep]
        assert [list(row) for row in gram_matrix(red.induced_gram)] == expect
