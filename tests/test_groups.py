"""Group bookkeeping, split forms, membership, Cayley transforms."""

import random

import pytest

from parahiggs.groups import (
    GramForm,
    GroupError,
    GroupSpec,
    cayley_group_element,
    check_lie_membership,
    random_algebra_element,
    random_nilpotent_element,
    split_gram,
)
from parahiggs.higgs import random_strongly_parabolic_higgs
from parahiggs.linalg import (
    SingularMatrixError,
    const_mat_mul,
    mat_from_scalars,
    transpose,
)
from parahiggs.poly import RationalFunction, UniPoly


def identity(n):
    return mat_from_scalars([[int(i == j) for j in range(n)] for i in range(n)])


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
        b = gram.as_mat()
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
        j = split_gram(GroupSpec.sp(1))
        assert check_lie_membership(mat_from_scalars([[1, 2], [3, -1]]), j)

    def test_identity_never_member(self):
        for group in (GroupSpec.sp(1), GroupSpec.so_even(2), GroupSpec.so_odd(1)):
            gram = split_gram(group)
            assert not check_lie_membership(identity(group.rank_size), gram)

    def test_zero_member(self):
        gram = split_gram(GroupSpec.so_even(2))
        assert check_lie_membership(mat_from_scalars([[0] * 4 for _ in range(4)]), gram)

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="size"):
            check_lie_membership(identity(3), split_gram(GroupSpec.sp(1)))

    def test_random_elements_are_members(self):
        rng = random.Random(2)
        for group in (GroupSpec.sp(2), GroupSpec.so_even(2), GroupSpec.so_odd(2)):
            gram = split_gram(group)
            for _ in range(5):
                assert check_lie_membership(mat_from_scalars(random_algebra_element(group, rng)), gram)
                u = random_nilpotent_element(group, rng)
                assert check_lie_membership(mat_from_scalars(u), gram)
                # strictly upper triangular
                n = group.rank_size
                assert all(u[i][j] == 0 for i in range(n) for j in range(i + 1))

    def test_perturbed_field_is_not_member(self):
        # one pole term off the algebra, in an entry with a nontrivial denominator
        fld = random_strongly_parabolic_higgs(GroupSpec.so_odd(2), (0, 1), 1, 3)
        assert check_lie_membership(fld.matrix, fld.gram)
        bump = RationalFunction.make(UniPoly.one(), UniPoly.linear_root(1))
        fld.matrix[0][1] = fld.matrix[0][1] + bump
        assert not check_lie_membership(fld.matrix, fld.gram)


class TestCayley:
    def test_rotation_generator(self):
        gram = GramForm.make([[1, 0], [0, 1]], "symmetric")
        q = cayley_group_element([[0, 1], [-1, 0]], gram)
        assert q == [[0, -1], [1, 0]]
        assert const_mat_mul(transpose(q), q) == [[1, 0], [0, 1]]

    def test_zero_maps_to_identity(self):
        gram = split_gram(GroupSpec.sp(2))
        z = [[0] * 4 for _ in range(4)]
        assert cayley_group_element(z, gram) == [[int(i == j) for j in range(4)] for i in range(4)]

    def test_preserves_split_symplectic_form(self):
        rng = random.Random(9)
        group = GroupSpec.sp(2)
        gram = split_gram(group)
        j = [[x.num.coeff(0) for x in row] for row in gram.matrix]
        for _ in range(5):
            a = random_algebra_element(group, rng)
            try:
                q = cayley_group_element(a, gram)
            except SingularMatrixError:
                continue
            assert const_mat_mul(const_mat_mul(transpose(q), j), q) == j

    def test_conjugation_preserves_membership_and_char(self):
        from parahiggs.groups import random_group_element
        from parahiggs.linalg import char_poly, mat_inverse

        rng = random.Random(13)
        for group in (GroupSpec.sp(2), GroupSpec.so_odd(1)):
            gram = split_gram(group)
            a = random_algebra_element(group, rng)
            q = random_group_element(group, gram, rng)
            conj = mat_from_scalars(const_mat_mul(const_mat_mul(q, a), mat_inverse(q)))
            assert check_lie_membership(conj, gram)
            assert char_poly(conj) == char_poly(mat_from_scalars(a))

    def test_rejects_non_member(self):
        with pytest.raises(GroupError):
            cayley_group_element([[1, 0], [0, 1]], split_gram(GroupSpec.sp(1)))

    def test_rejects_non_constant_gram(self):
        t = RationalFunction.t()
        gram = GramForm.make([[0, t], [-t, 0]], "symplectic")
        with pytest.raises(GroupError, match="not constant"):
            cayley_group_element([[1, 0], [0, -1]], gram)

    def test_cayley_pole(self):
        b = GramForm.make([[0, 1], [-1, 0]], "symplectic")
        bad = [[-1, 0], [0, 1]]  # in sp(2), eigenvalue -1
        with pytest.raises(SingularMatrixError, match="Cayley pole"):
            cayley_group_element(bad, b)
