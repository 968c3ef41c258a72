"""Spectral plane curves: twisting, involution, smoothness, fixed points."""

import json
import random
from fractions import Fraction as Q

import pytest

from parahiggs.bipoly import BiPoly, discriminant_x
from parahiggs.curves import (
    FixedPointReport,
    NonReducedCurveError,
    PlaneCurve,
    build_plane_curve,
    hyperelliptic_genus,
    involution_check,
    involution_fixed_points,
    ramification_degree_affine,
    smoothness_check,
    so_even_singularity_pattern,
    twisted_curve,
    twisted_pfaffian,
)
from parahiggs.cli import main
from parahiggs.groups import GramForm, GroupSpec, split_gram
from parahiggs.higgs import CharData, HiggsField, PoleOrderError, random_strongly_parabolic_higgs
from parahiggs.poly import RationalFunction, UniPoly, is_squarefree

P = UniPoly.make
RF = RationalFunction.make


def curve(*coeffs):
    """PlaneCurve from ascending x-coefficients (ints or t-coefficient lists)."""
    return PlaneCurve(
        BiPoly.make([P(c) if isinstance(c, (list, tuple)) else UniPoly.const(c) for c in coeffs])
    )


# x^2 - (t^3 - t)
HYPER = curve([0, 1, 0, -1], 0, 1)
# x^4 + (t-1) x^2 + t^2
QUARTIC = curve([0, 0, 1], 0, [-1, 1], 0, 1)


class TestBuildPlaneCurve:
    def test_twist_clears_marked_pole(self):
        group = GroupSpec.sp(1)
        t, minus_t = RF(P([0, 1])), RF(P([0, -1]))
        fld = HiggsField(
            group, split_gram(group),
            [[t, RF(P([1]), P([0, 1]))], [t, minus_t]],
            (Q(0),),
        )
        c = build_plane_curve(fld)
        # s_2 = -t^2 - 1, d = t: y^2 + (-t^2 - 1) t^2 = y^2 - t^4 - t^2
        assert c.f == BiPoly.make([P([0, 0, -1, 0, -1]), UniPoly.zero(), UniPoly.one()])
        assert c.twist == P([0, 1])

    def test_no_marked_points_identity_twist(self):
        group = GroupSpec.sp(1)
        t, minus_t = RF(P([0, 1])), RF(P([0, -1]))
        fld = HiggsField(group, split_gram(group), [[t, t], [t, minus_t]], ())
        c = build_plane_curve(fld)
        assert c.twist == UniPoly.one()
        # char poly passes through unchanged: x^2 + s_2
        s_2 = fld.char_data.sections()[1]
        assert s_2.is_polynomial and c.f.coeff(0) == s_2.num

    def test_zero_field(self):
        group = GroupSpec.so_even(2)
        z = [[RF(0)] * 4 for _ in range(4)]
        fld = HiggsField(group, split_gram(group), z, (Q(0),))
        assert build_plane_curve(fld).f == BiPoly.make(
            [UniPoly.zero()] * 4 + [UniPoly.one()]
        )

    def test_pole_outside_marked_locus_rejected(self):
        # s_1 = 0, s_2 = (t - 5) / (t - 5)^2: a pole at t = 5, marked point is 0
        char = CharData(((), (-5, 1)), 1, P([-5, 1]))
        with pytest.raises(PoleOrderError):
            twisted_curve(char, (Q(0),))


class TestInvolution:
    def test_even_curve_passes(self):
        assert involution_check(HYPER)

    def test_odd_power_fails(self):
        assert not involution_check(curve(0, 1, 1))  # x^2 + x

    def test_generated_sp_curves_pass(self):
        for seed in range(4):
            fld = random_strongly_parabolic_higgs(GroupSpec.sp(2), [0, 1], 1, seed)
            assert involution_check(build_plane_curve(fld))

    def test_even_curve_fx_vanishes_on_zero_section(self):
        for c in (HYPER, QUARTIC):
            assert c.f.derivative_x().coeff(0).is_zero


class TestSmoothness:
    def test_hyperelliptic_smooth(self):
        rep = smoothness_check(HYPER)
        assert rep.status == "smooth"
        assert rep.disc_squarefree
        assert discriminant_x(HYPER.f) == P([0, -4, 0, 4])  # 4(t^3 - t)

    def test_node_found(self):
        rep = smoothness_check(curve([0, 0, -1], 0, 1))  # x^2 - t^2
        assert rep.status == "singular"
        assert rep.witnesses == ((Q(0), Q(0)),)

    def test_quartic_singular_at_origin(self):
        rep = smoothness_check(QUARTIC)
        assert rep.status == "singular"
        assert (Q(0), Q(0)) in rep.witnesses

    def test_non_reduced_rejected(self):
        # (x - t)^2 (x + t)^2 = x^4 - 2t^2 x^2 + t^4: disc_z g = 0
        with pytest.raises(NonReducedCurveError):
            smoothness_check(curve([0, 0, 0, 0, 1], 0, [0, 0, -2], 0, 1))

    def test_inconclusive_on_irrational_singularity(self):
        # x^2 - (t^2 - 2)^2: singular only at t = +-sqrt(2)
        f = P([-2, 0, 1])
        rep = smoothness_check(curve([c for c in (-(f * f)).coeffs], 0, 1))
        assert rep.status == "inconclusive"

    def test_planted_nodes_never_reported_smooth(self):
        rng = random.Random(4)
        for _ in range(12):
            c0 = rng.randint(-3, 3)
            h = P([rng.randint(-3, 3) for _ in range(3)] + [1])
            if not is_squarefree(h) or h(c0) == 0:
                continue
            # x^2 - (t - c0)^2 h(t): node at (c0, 0)
            branch = P([-c0, 1]) ** 2 * h
            cur = curve([x for x in (-branch).coeffs], 0, 1)
            rep = smoothness_check(cur)
            assert rep.status == "singular"
            assert (Q(c0), Q(0)) in rep.witnesses

    def test_quotient_smooth_where_the_discriminant_never_is(self):
        # x^4 + t x^2 + 1: c0 = 1 and disc_z g = t^2 - 4 are squarefree, while
        # disc_x f = 16 (t^2 - 4)^2 is not
        quartic = curve(1, 0, [0, 1], 0, 1)
        assert not is_squarefree(discriminant_x(quartic.f))
        rep = smoothness_check(quartic)
        assert rep.status == "smooth" and rep.disc_squarefree

    def test_non_symmetric_curve_rejected(self):
        # (x - t)^2 - t^3, a cusp at the origin, and x^2 + x + t, smooth
        for cur in (curve([0, 0, 1, -1], [0, -2], 1), curve([0, 1], 1, 1)):
            for check in (smoothness_check, ramification_degree_affine):
                with pytest.raises(ValueError, match="not involution-symmetric"):
                    check(cur)

    def test_non_reduced_symmetric_rejected(self):
        with pytest.raises(NonReducedCurveError):
            smoothness_check(curve(0, 0, [0, 1], 0, 1))  # x^2 (x^2 + t): c0 = 0
        with pytest.raises(NonReducedCurveError):
            smoothness_check(curve([0, 0, 1], 0, [0, 2], 0, 1))  # (x^2 + t)^2


class TestFixedPoints:
    def test_hyperelliptic(self):
        rep = involution_fixed_points(HYPER)
        assert rep.count == 3
        assert [r for r, _ in rep.witnesses] == [Q(-1), Q(0), Q(1)]

    def test_no_fixed_points(self):
        assert involution_fixed_points(curve(-1, 0, 1)) == FixedPointReport(0, ())

    def test_double_fixed_point(self):
        rep = involution_fixed_points(QUARTIC)
        assert rep.count == 2
        assert rep.witnesses == ((Q(0), 2),)


class TestSoEvenPattern:
    def test_quartic_pattern(self):
        rep = so_even_singularity_pattern(QUARTIC, P([0, 1]), 1)  # p = t
        assert rep.passed and rep.count == 1
        assert rep.witnesses == ((Q(0), Q(0)),)
        assert rep.unit == 1

    def test_m1_toy(self):
        rep = so_even_singularity_pattern(curve([0, 0, 1], 0, 1), P([0, 1]), 1)  # x^2 + t^2
        assert rep.passed and rep.count == 1 and rep.unit == 1

    def test_split_gram_unit(self):
        rep = so_even_singularity_pattern(curve([0, 0, -1], 0, 1), P([0, 1]), -1)  # x^2 - t^2
        assert rep.passed and rep.unit == -1

    def test_constant_pfaffian(self):
        rep = so_even_singularity_pattern(curve(1, 0, 1), P([1]), 1)  # x^2 + 1
        assert rep.passed and rep.count == 0 and rep.witnesses == ()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="unit times a square"):
            so_even_singularity_pattern(curve([0, 1], 0, 1), P([0, 1]), 1)

    def test_non_unit_constant_gram_determinant(self, tmp_path, capsys):
        # B = [[0, 2], [2, 0]], det B = -4, Phi = diag(t, -t): F(t, 0) = -t^4
        # and the twisted Pfaffian is -2 t^2, so F(t, 0) = (-1/4) Pf^2
        gram = GramForm.make([[0, 2], [2, 0]], "symmetric")
        t = P([0, 1])
        fld = HiggsField(GroupSpec.so_even(1), gram, [[RF(t), RF(0)], [RF(0), RF(-t)]], (Q(0),))
        c = build_plane_curve(fld)
        rep = so_even_singularity_pattern(c, twisted_pfaffian(fld, c.twist), gram.det.num.coeff(0))
        assert rep.passed and rep.unit == Q(-1, 4)
        assert rep.count == 2 and rep.witnesses == ((Q(0), Q(0)),)
        path = tmp_path / "field.json"
        path.write_text(json.dumps(fld.to_dict()))
        assert main(["analyze", str(path)]) == 0
        assert "spectral: PASS" in capsys.readouterr().out

    def test_generated_so_even_field(self):
        from parahiggs.higgs import pfaffian_square_check

        fld = random_strongly_parabolic_higgs(GroupSpec.so_even(2), [0], 1, seed=8)
        c = build_plane_curve(fld)
        twisted = twisted_pfaffian(fld, c.twist)
        # the twisted Pfaffian is Pf(B*Phi) * t^m, with Pf(B*Phi) from the pfaffian check
        pf = pfaffian_square_check(fld).pfaffian
        assert twisted * pf.den == pf.num * c.twist ** fld.group.m
        rep = so_even_singularity_pattern(c, twisted, fld.gram.det.num.coeff(0))
        assert rep.passed


class TestRamificationAndGenus:
    def test_ramification_values(self):
        assert ramification_degree_affine(HYPER) == 3
        assert ramification_degree_affine(curve(-1, 0, 1)) == 0
        assert ramification_degree_affine(curve([0, -1], 0, 1)) == 1  # x^2 - t

    def test_hyperelliptic_genus(self):
        assert hyperelliptic_genus(P([0, -1, 0, 1])) == 1
        assert hyperelliptic_genus(P([3, 1])) == 0
        assert hyperelliptic_genus(P([1, 2, 0, 0, 0, 1])) == 2

    def test_ramification_matches_branch_degree(self):
        rng = random.Random(6)
        for _ in range(10):
            deg = rng.randint(1, 9)
            f = P([rng.randint(-4, 4) for _ in range(deg)] + [1])
            if not is_squarefree(f):
                continue
            cur = curve([c for c in (-f).coeffs], 0, 1)
            assert ramification_degree_affine(cur) == deg
            assert hyperelliptic_genus(f) == (deg - 1) // 2

    def test_quotient_reads_the_discriminant_degree(self):
        # disc_x g(t, x^2) = (-4)^m c0 (disc_z g)^2 on random monic g
        rng = random.Random(9)
        for _ in range(12):
            m = rng.randint(1, 3)
            g = [[rng.randint(-3, 3) for _ in range(rng.randint(0, 3))] for _ in range(m)]
            cur = curve(*(c for z in g for c in (z, 0)), 1)
            disc = discriminant_x(cur.f)
            c0, disc_g = cur.quotient.coeff(0), cur.quotient_discriminant
            assert disc == c0 * disc_g * disc_g * (-4) ** m
            if not disc.is_zero:
                assert ramification_degree_affine(cur) == disc.degree

    def test_genus_validation(self):
        with pytest.raises(ValueError):
            hyperelliptic_genus(P([1]))
        with pytest.raises(ValueError, match="squarefree"):
            hyperelliptic_genus(P([0, 0, 1]))


class TestSerialization:
    def test_roundtrip(self):
        d = HYPER.to_dict()
        assert PlaneCurve.from_dict(d).f == HYPER.f
        assert d["r"] == 2
