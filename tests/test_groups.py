"""Group bookkeeping, split forms, membership, Cayley transforms."""

import random
from fractions import Fraction as Q
from itertools import zip_longest

import pytest

from parahiggs import groups
from parahiggs.groups import (
    GROUP_KINDS,
    GramForm,
    GroupError,
    GroupSpec,
    cayley_group_element,
    random_algebra_element,
    random_group_element,
    random_nilpotent_element,
    split_gram,
)
from parahiggs.higgs import HiggsField, random_strongly_parabolic_higgs, residue_at
from parahiggs.linalg import SingularMatrixError
from parahiggs.poly import RationalFunction, UniPoly

from helpers import gram_matrix, scalars, sections

RF = RationalFunction.make


# -- constant linear algebra over Q, the oracle of the integer Cayley route ---


def const_mat_mul(a, b):
    return [[sum((Q(x) * y for x, y in zip(row, col)), Q(0)) for col in zip(*b)] for row in a]


def mat_inverse(a):
    """Gauss-Jordan over Q; raises ZeroDivisionError on a singular matrix."""
    n = len(a)
    work = [[Q(x) for x in row] + [Q(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        work[col], work[piv] = work[piv], work[col]
        p = work[col][col]
        prow = work[col] = [x / p for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], prow)]
    return [row[n:] for row in work]


def over(q_delta):
    """The matrix Q' / delta over Q."""
    q, delta = q_delta
    return [[Q(x, delta) for x in row] for row in q]


def transpose(a):
    return [list(col) for col in zip(*a)]


def identity(n):
    return scalars([[int(i == j) for j in range(n)] for i in range(n)])


def is_member(group, mat, gram=None):
    """Phi^T B + B Phi = 0 for the field mat, read off its cleared B*Phi."""
    return HiggsField.from_grid(group, gram or split_gram(group), mat, ()).is_member


class TestGroupSpec:
    @pytest.mark.parametrize(
        "kind,m,r,dim_g,dim_b",
        [
            ("sp", 1, 2, 3, 2),
            ("sp", 2, 4, 10, 6),
            ("sp", 3, 6, 21, 12),
            ("so-even", 1, 2, 1, 1),
            ("so-even", 2, 4, 6, 4),
            ("so-even", 3, 6, 15, 9),
            ("so-odd", 1, 3, 3, 2),
            ("so-odd", 2, 5, 10, 6),
        ],
    )
    def test_dimension_table(self, kind, m, r, dim_g, dim_b):
        g = GroupSpec(kind, m)
        assert g.rank_size == r
        assert g.dim_group == dim_g
        assert g.dim_borel == dim_b
        assert g.dim_flag == dim_g - dim_b

    def test_borel_formulas(self):
        for m in range(1, 5):
            assert GroupSpec.sp(m).dim_borel == m * m + m
            assert GroupSpec.so_even(m).dim_borel == m * m
            assert GroupSpec.so_odd(m).dim_borel == m * m + m

    def test_rejects_bad_input(self):
        with pytest.raises(GroupError):
            GroupSpec("su", 2)
        with pytest.raises(GroupError):
            GroupSpec("sp", 0)


class TestSplitGram:
    @pytest.mark.parametrize("kind,m", [("sp", 1), ("sp", 2), ("so-even", 2), ("so-odd", 2)])
    def test_symmetry_kind(self, kind, m):
        group = GroupSpec(kind, m)
        gram = split_gram(group)
        assert all(x.den == UniPoly.one() for row in gram_matrix(gram) for x in row)
        b = [[p[0] if p else 0 for p in row] for row in gram.cleared[0]]
        bt = transpose(b)
        if kind == "sp":
            assert gram.kind == "symplectic"
            assert all(bt[i][j] == -b[i][j] for i in range(len(b)) for j in range(len(b)))
        else:
            assert gram.kind == "symmetric"
            assert bt == b

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            GramForm.make([[1, 0], [0, 0]], "symmetric")
        with pytest.raises(ValueError, match="not symplectic"):
            GramForm.make([[0, 1], [1, 0]], "symplectic")


class TestMembership:
    def test_sl2_is_sp2(self):
        assert is_member(GroupSpec.sp(1), scalars([[1, 2], [3, -1]]))

    def test_identity_never_member(self):
        for group in (GroupSpec.sp(1), GroupSpec.so_even(2), GroupSpec.so_odd(1)):
            assert not is_member(group, identity(group.rank_size))

    def test_zero_member(self):
        assert is_member(GroupSpec.so_even(2), scalars([[0] * 4 for _ in range(4)]))

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="2x2"):
            is_member(GroupSpec.sp(1), identity(3))

    def test_random_elements_are_members(self):
        rng = random.Random(2)
        for group in (GroupSpec.sp(2), GroupSpec.so_even(2), GroupSpec.so_odd(2)):
            for _ in range(5):
                assert is_member(group, scalars(random_algebra_element(group, rng)))
                u = random_nilpotent_element(group, rng)
                assert is_member(group, scalars(u))
                # strictly upper triangular
                n = group.rank_size
                assert all(u[i][j] == 0 for i in range(n) for j in range(i + 1))

    def test_perturbed_field_is_not_member(self):
        # one pole term off the algebra, in an entry with a nontrivial denominator
        group = GroupSpec.so_odd(2)
        fld = random_strongly_parabolic_higgs(group, (0, 1), 1, 3)
        assert fld.is_member
        x, lin = fld.matrix[0][1], UniPoly.make([-1, 1])
        bumped = [list(row) for row in fld.matrix]
        num = map(sum, zip_longest((x.num * lin).coeffs, x.den.coeffs, fillvalue=0))
        bumped[0][1] = RF(UniPoly.make(num), x.den * lin)  # x + 1/(t - 1)
        assert not is_member(group, bumped)


class TestCayley:
    def test_rotation_generator(self):
        gram = GramForm.make([[1, 0], [0, 1]], "symmetric")
        q = over(cayley_group_element([[0, 1], [-1, 0]], gram))
        assert q == [[0, -1], [1, 0]]
        assert const_mat_mul(transpose(q), q) == [[1, 0], [0, 1]]

    def test_zero_maps_to_identity(self):
        gram = split_gram(GroupSpec.sp(2))
        z = [[0] * 4 for _ in range(4)]
        assert over(cayley_group_element(z, gram)) == [[int(i == j) for j in range(4)] for i in range(4)]

    def test_preserves_split_symplectic_form(self):
        rng = random.Random(9)
        group = GroupSpec.sp(2)
        gram = split_gram(group)
        j = [[p[0] if p else 0 for p in row] for row in gram.cleared[0]]
        for _ in range(5):
            a = random_algebra_element(group, rng)
            try:
                q = over(cayley_group_element(a, gram))
            except SingularMatrixError:
                continue
            assert const_mat_mul(const_mat_mul(transpose(q), j), q) == j

    def test_conjugation_preserves_membership_and_char(self):
        rng = random.Random(13)
        for group in (GroupSpec.sp(2), GroupSpec.so_odd(1)):
            gram = split_gram(group)
            a = random_algebra_element(group, rng)
            q = over(random_group_element(group, gram, rng))
            conj = HiggsField.from_grid(group, gram, scalars(const_mat_mul(const_mat_mul(q, a), mat_inverse(q))), ())
            assert conj.is_member
            char = HiggsField.from_grid(group, gram, scalars(a), ()).char_data
            assert sections(conj.char_data) == sections(char)

    def test_rejects_non_member(self):
        with pytest.raises(GroupError):
            cayley_group_element([[1, 0], [0, 1]], split_gram(GroupSpec.sp(1)))
        # B*A = [[0, 0], [0, 1]] is symmetric, not antisymmetric as so(2) needs
        with pytest.raises(GroupError, match="not in the Lie algebra"):
            cayley_group_element([[0, 1], [0, 0]], split_gram(GroupSpec.so_even(1)))

    def test_rejects_non_constant_gram(self):
        t, minus_t = RF(UniPoly.make([0, 1])), RF(UniPoly.make([0, -1]))
        gram = GramForm.make([[0, t], [minus_t, 0]], "symplectic")
        with pytest.raises(GroupError, match="not constant"):
            cayley_group_element([[1, 0], [0, -1]], gram)

    def test_cayley_pole(self):
        b = GramForm.make([[0, 1], [-1, 0]], "symplectic")
        bad = [[-1, 0], [0, 1]]  # in sp(2), eigenvalue -1
        with pytest.raises(SingularMatrixError, match="Cayley pole"):
            cayley_group_element(bad, b)


MARKED = (Q(0), Q(1, 2))


def fraction_route(group, seed):
    """(residues, Cayley attempts) of the generator's former route over Q,
    replayed on its random stream: Q = (I - A)(I + A)^(-1) with a retry past
    each Cayley pole, and the residue Q u Q^(-1) with a second inverse."""
    rng = random.Random(seed)
    n = group.rank_size
    residues, attempts = [], 0
    for _ in MARKED:
        u = random_nilpotent_element(group, rng)
        while True:
            attempts += 1
            a = random_algebra_element(group, rng, -2, 2)
            try:
                inv = mat_inverse([[int(i == j) + a[i][j] for j in range(n)] for i in range(n)])
                break
            except ZeroDivisionError:
                continue
        q = const_mat_mul([[int(i == j) - a[i][j] for j in range(n)] for i in range(n)], inv)
        residues.append(const_mat_mul(const_mat_mul(q, u), mat_inverse(q)))
    return residues, attempts


class TestIntegerConjugation:
    """The generator's residues, conjugated over Z with Q^(-1) = B^(-1) Q^T B,
    equal the conjugates over Q with a second inverse, and each Cayley attempt
    costs one integer inverse."""

    @pytest.mark.parametrize("kind", GROUP_KINDS)
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_fraction_route(self, kind, m, monkeypatch):
        group = GroupSpec(kind, m)
        inverses = []
        original = groups.zmat_inverse

        def counting(a):
            inverses.append(1)
            return original(a)

        monkeypatch.setattr(groups, "zmat_inverse", counting)
        retries = 0
        for seed in range(50):
            want, attempts = fraction_route(group, seed)
            inverses.clear()
            fld = random_strongly_parabolic_higgs(group, MARKED, 0, seed)
            assert [over(residue_at(fld, a)) for a in MARKED] == want
            assert len(inverses) == attempts
            retries += attempts - len(MARKED)
        # every group meets a Cayley pole within 50 seeds at m <= 3; at m = 4 only so-even does
        assert retries > 0 or (m == 4 and kind != "so-even")
