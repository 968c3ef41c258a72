"""Spectral plane curves: twisting, involution, smoothness, fixed points."""

import json
import math
import random
from fractions import Fraction as Q

import pytest

from parahiggs.bipoly import discriminant_x
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
from parahiggs.groups import GroupSpec, split_gram
from parahiggs.higgs import CharData, PoleOrderError, random_strongly_parabolic_higgs
from parahiggs.poly import RationalFunction, UniPoly, _chart_twist, _hom_eval, is_squarefree

from helpers import field_from_grid, gram_form, rational_function, sections

P = UniPoly.make
RF = rational_function


def trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return tuple(p)


def primitive_clearing(coeffs) -> tuple[tuple[int, ...], ...]:
    """The primitive integer multiple, with positive leading coefficient, of
    a bivariate polynomial given by ascending x-coefficients, each an
    ascending list of rationals."""
    coeffs = [[Q(c) for c in h] for h in coeffs]
    den = math.lcm(*(c.denominator for h in coeffs for c in h))
    ints = [[int(c * den) for c in h] for h in coeffs]
    content = math.gcd(*(c for h in ints for c in h)) * (1 if trim(ints[-1])[-1] > 0 else -1)
    return tuple(trim(c // content for c in h) for h in ints)


def curve(*coeffs, scale=1):
    """PlaneCurve of f(t, x) = scale^r F(t, x / scale), held as its primitive
    clearing, for F given by ascending X-coefficients (ints or integer
    t-coefficient lists)."""
    rows = [c if isinstance(c, (list, tuple)) else [c] for c in coeffs]
    r = len(rows) - 1
    return PlaneCurve(primitive_clearing([[Q(scale) ** (r - i) * c for c in h] for i, h in enumerate(rows)]))


def neg(p: UniPoly) -> list[int]:
    """-p as integer coefficients, for a UniPoly over Z."""
    return [-int(c) for c in p.coeffs]


def rational_coeffs(c: PlaneCurve) -> list[UniPoly]:
    """The x-coefficients of f = H / lc(H) over Q, ascending."""
    lead = c.coeffs[-1][0]
    return [P(h) * Q(1, lead) for h in c.coeffs]


# x^2 - (t^3 - t)
HYPER = curve([0, 1, 0, -1], 0, 1)
# x^4 + (t-1) x^2 + t^2
QUARTIC = curve([0, 0, 1], 0, [-1, 1], 0, 1)


class TestBuildPlaneCurve:
    def test_compared_by_value(self):
        c = curve([1, 0, 1], [], [1])
        again = PlaneCurve(c.coeffs)
        assert c is not again and c == again and hash(c) == hash(again)
        assert c != curve([1, 0, 2], [], [1])

    def test_twist_clears_marked_pole(self):
        group = GroupSpec("sp", 1)
        t, minus_t = RF(P([0, 1])), RF(P([0, -1]))
        fld = field_from_grid(
            group, split_gram(group),
            [[t, RF(P([1]), P([0, 1]))], [t, minus_t]],
            (Q(0),),
        )
        c = build_plane_curve(fld)
        # s_2 = -t^2 - 1, d = t: y^2 + (-t^2 - 1) t^2 = y^2 - t^4 - t^2
        assert rational_coeffs(c) == [P([0, 0, -1, 0, -1]), UniPoly.zero(), UniPoly.one()]
        assert _chart_twist(fld.marked_points) == ([0, 1], 1)

    def test_no_marked_points_identity_twist(self):
        group = GroupSpec("sp", 1)
        t, minus_t = RF(P([0, 1])), RF(P([0, -1]))
        fld = field_from_grid(group, split_gram(group), [[t, t], [t, minus_t]], ())
        c = build_plane_curve(fld)
        assert _chart_twist(fld.marked_points) == ([1], 1)
        # char poly passes through unchanged: x^2 + s_2
        s_2 = sections(fld.char_data)[1]
        assert s_2.is_polynomial and rational_coeffs(c)[0] == s_2.num

    def test_zero_field(self):
        group = GroupSpec("so-even", 2)
        z = [[RF(0)] * 4 for _ in range(4)]
        fld = field_from_grid(group, split_gram(group), z, (Q(0),))
        assert build_plane_curve(fld).coeffs == ((),) * 4 + ((1,),)

    def test_pole_outside_marked_locus_rejected(self):
        # s_1 = 0, s_2 = (t - 5) / (t - 5)^2: a pole at t = 5, marked point is 0
        char = CharData(((), (-5, 1)), (-5, 1))
        with pytest.raises(PoleOrderError, match=r"s_2 \* D\^2 is not polynomial"):
            twisted_curve(char, (Q(0),))

    @pytest.mark.parametrize("kind,m", [("sp", 1), ("sp", 2), ("so-even", 2), ("so-odd", 2)])
    def test_scaled_coefficients_are_the_twisted_sections(self, kind, m):
        # H_(r-i) / lc(H) = s_i D^i over Q, with D = prod (t - a_k) and s_i
        # reduced; lc(H) != 1, so the clearing is not monic
        marked = (Q(1, 2), Q(-2, 3))
        twist = P([Q(-1, 2), 1]) * P([Q(2, 3), 1])
        assert _chart_twist(marked) == ([-2, 1, 6], 6)  # D * 6 = (2t - 1)(3t + 2)
        for seed in range(3):
            fld = random_strongly_parabolic_higgs(GroupSpec(kind, m), marked, 1, seed)
            c = build_plane_curve(fld)
            assert c.coeffs[-1] != (1,)
            r = len(c.coeffs) - 1
            for i, s in enumerate(sections(fld.char_data)[:r], start=1):
                quo, rem = (s.num * twist**i).divmod(s.den)
                assert rem.is_zero and rational_coeffs(c)[r - i] == quo


def twisted_sections(char: CharData, marked) -> list[UniPoly]:
    """s_i D^i over Q for D = prod (t - a_k), s_i = e_i / Delta^i, each
    checked to be a polynomial."""
    twist = P([1])
    for a in marked:
        twist = twist * P([-a, 1])
    out = []
    for i, e_i in enumerate(char.e, start=1):
        quo, rem = (P(e_i) * twist**i).divmod(P(char.delta) ** i)
        assert rem.is_zero
        out.append(quo)
    return out


class TestTwistedCurve:
    """`twisted_curve` divides out of D~ the factors at the points where Delta
    vanishes, read off `_split_at`: checked against s_i D^i over Q."""

    @pytest.mark.parametrize("e,delta,marked", [
        # a constant Delta: nothing divides out of D~
        (((), (6, 1)), (3,), (Q(1, 2),)),
        (((1,), (0, 0, 2)), (-5,), (Q(0), Q(-2, 3))),
        # Delta = (2t - 1)^2, s_2 = (t + 1) (2t - 1)^3 / Delta^2 with a simple pole at 1/2
        (((), (-1, 5, -6, -4, 8)), (1, -4, 4), (Q(1, 2),)),
        # Delta = 6 (3t + 2)^2 vanishes at -2/3 only: s_1 = -t (3t + 2) / Delta
        # and s_2 = t (3t + 2)^2 / Delta^2 have poles of order 1 and 2 there
        (((0, -2, -3), (0, 4, 12, 9)), (24, 72, 54), (Q(1, 2), Q(-2, 3))),
    ])
    def test_coefficients_are_the_twisted_sections(self, e, delta, marked):
        char = CharData(e, delta)
        c = twisted_curve(char, marked)
        lead = c.coeffs[-1]
        assert len(lead) == 1 and lead[0] > 0
        assert math.gcd(*(v for h in c.coeffs for v in h)) == 1
        assert rational_coeffs(c) == [*reversed(twisted_sections(char, marked)), UniPoly.one()]

    @pytest.mark.parametrize("e,delta,marked,i", [
        # Delta = (2t - 1)(t - 5), s_2 = (2t + 1) / ((2t - 1)^2 (t - 5)): a pole off D
        (((), (-5, -9, 2)), (5, -11, 2), (Q(1, 2),), 2),
        # s_1 = 1 / (2t - 1)^2: pole order 2 > 1 at the marked point 1/2
        (((1,), ()), (1, -4, 4), (Q(1, 2),), 1),
    ])
    def test_pole_raises(self, e, delta, marked, i):
        with pytest.raises(PoleOrderError, match=rf"s_{i} \* D\^{i} is not polynomial"):
            twisted_curve(CharData(e, delta), marked)


class TestPrimitiveClearing:
    """The curve is the primitive clearing of the twisted char polynomial, so
    its coefficients stay small where a monic rescaling x = mu X would
    inflate them: a guard that counts bits, at m = 5 and 6 (``gen --marked
    0,1 --deg-bound 1 --seed 0``)."""

    @pytest.mark.parametrize("kind", ["sp", "so-odd", "so-even"])
    @pytest.mark.parametrize("m", [5, 6])
    def test_generated_curve_is_the_primitive_clearing(self, kind, m):
        marked = (Q(0), Q(1))
        fld = random_strongly_parabolic_higgs(GroupSpec(kind, m), marked, 1, 0)
        c = build_plane_curve(fld)
        lead = c.coeffs[-1]
        assert len(lead) == 1 and lead[0] > 0
        assert math.gcd(*(v for h in c.coeffs for v in h)) == 1
        # x^r + sum_i s_i D^i x^(r-i) over Q, from the char data
        char = fld.char_data.x_cofactor() if kind == "so-odd" else fld.char_data
        twist = P([-1, 1]) * P([0, 1])
        f = [[1]]
        for i, s in enumerate(sections(char), start=1):
            quo, rem = (s.num * twist**i).divmod(s.den)
            assert rem.is_zero
            f.insert(0, list(quo.coeffs))
        assert c.coeffs == primitive_clearing(f)
        if (kind, m) == ("sp", 6):
            assert max(abs(v).bit_length() for h in c.coeffs for v in h) <= 160


class TestInvolution:
    def test_even_curve_passes(self):
        assert involution_check(HYPER)

    def test_odd_power_fails(self):
        assert not involution_check(curve(0, 1, 1))  # x^2 + x

    def test_generated_sp_curves_pass(self):
        for seed in range(4):
            fld = random_strongly_parabolic_higgs(GroupSpec("sp", 2), [0, 1], 1, seed)
            assert involution_check(build_plane_curve(fld))

    def test_even_curve_fx_vanishes_on_zero_section(self):
        for c in (HYPER, QUARTIC):
            assert not c.coeffs[1]


class TestSmoothness:
    def test_hyperelliptic_smooth(self):
        rep = smoothness_check(HYPER)
        assert rep.status == "smooth"
        assert rep.disc_squarefree
        assert discriminant_x(HYPER.coeffs) == P([0, -4, 0, 4])  # 4(t^3 - t)

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
        rep = smoothness_check(curve(neg(f * f), 0, 1))
        assert rep.status == "inconclusive"

    def test_planted_nodes_never_reported_smooth(self):
        rng = random.Random(4)
        for _ in range(12):
            c0 = rng.randint(-3, 3)
            h = P([rng.randint(-3, 3) for _ in range(3)] + [1])
            if not is_squarefree(h) or _hom_eval([int(x) for x in h.coeffs], c0, 1) == 0:
                continue
            # x^2 - (t - c0)^2 h(t): node at (c0, 0)
            branch = P([-c0, 1]) ** 2 * h
            cur = curve(neg(branch), 0, 1)
            rep = smoothness_check(cur)
            assert rep.status == "singular"
            assert (Q(c0), Q(0)) in rep.witnesses

    def test_quotient_smooth_where_the_discriminant_never_is(self):
        # x^4 + t x^2 + 1: c0 = 1 and disc_z g = t^2 - 4 are squarefree, while
        # disc_x f = 16 (t^2 - 4)^2 is not
        quartic = curve(1, 0, [0, 1], 0, 1)
        assert not is_squarefree(discriminant_x(quartic.coeffs))
        rep = smoothness_check(quartic)
        assert rep.status == "smooth" and rep.disc_squarefree

    @pytest.mark.parametrize("scale", [Q(3), Q(-1, 3)])
    def test_scale_maps_witnesses_back_to_x(self, scale):
        # F = (X^2 - 1)^2 - t^2 is singular at (0, +-1), so the clearing H of
        # F(t, x / scale), with lc(H) = 81 for scale -1/3, is singular at
        # (0, +-scale); sorted in x
        c = curve([1, 0, -1], 0, -2, 0, 1, scale=scale)
        assert c.coeffs[-1] == ((1,) if scale == 3 else (81,))
        rep = smoothness_check(c)
        assert rep.witnesses == tuple(sorted([(Q(0), -scale), (Q(0), scale)]))

    def test_field_witnesses_off_the_zero_section(self):
        # Phi = diag(t/2, 1/2, -t/2, -1/2) with the marked point 1/3:
        # f(t, x) = (1/6)^4 F(t, 6x) for F = (X^2 - t^2 (3t - 1)^2)
        # (X^2 - (3t - 1)^2), so H = 6^4 f has lc 1296; the lines
        # X = +-t(3t - 1) and X = +-(3t - 1) cross at t = +-1, off X = 0
        half_t, half = RF(P([0, Q(1, 2)])), RF(Q(1, 2))
        diag = [half_t, half, RF(P([0, Q(-1, 2)])), RF(Q(-1, 2))]
        rows = [[diag[i] if i == j else RF(0) for j in range(4)] for i in range(4)]
        fld = field_from_grid(GroupSpec("sp", 2), split_gram(GroupSpec("sp", 2)), rows, (Q(1, 3),))
        c = build_plane_curve(fld)
        # F = X^4 - (3t - 1)^2 (t^2 + 1) X^2 + t^2 (3t - 1)^4
        assert c == curve([0, 0, 1, -12, 54, -108, 81], 0, [-1, 6, -10, 6, -9], 0, 1, scale=Q(1, 6))
        assert c.coeffs[-1] == (1296,)
        rep = smoothness_check(c)
        assert rep.status == "singular"
        assert rep.witnesses == (
            (Q(-1), Q(-2, 3)), (Q(-1), Q(2, 3)), (Q(0), Q(0)),
            (Q(1, 3), Q(0)), (Q(1), Q(-1, 3)), (Q(1), Q(1, 3)),
        )

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
        rep = so_even_singularity_pattern(QUARTIC, ((0, 1), 1), 1)  # p = t
        assert rep.passed and rep.count == 1
        assert rep.witnesses == ((Q(0), Q(0)),)

    def test_m1_toy(self):
        rep = so_even_singularity_pattern(curve([0, 0, 1], 0, 1), ((0, 1), 1), 1)  # x^2 + t^2
        assert rep.passed and rep.count == 1

    def test_split_gram_unit(self):
        rep = so_even_singularity_pattern(curve([0, 0, -1], 0, 1), ((0, 1), 1), -1)  # x^2 - t^2
        assert rep.passed

    def test_constant_pfaffian(self):
        rep = so_even_singularity_pattern(curve(1, 0, 1), ((1,), 1), 1)  # x^2 + 1
        assert rep.passed and rep.count == 0 and rep.witnesses == ()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="unit times a square"):
            so_even_singularity_pattern(curve([0, 1], 0, 1), ((0, 1), 1), 1)

    def test_twisted_pfaffian_with_a_pole_outside_the_twist_raises(self):
        # Phi = diag(f, -f), f = 1/(t - 1): Pf(B*Phi) * t = -t / (t - 1)
        group = GroupSpec("so-even", 1)
        f, minus_f = RF(P([1]), P([-1, 1])), RF(P([-1]), P([-1, 1]))
        fld = field_from_grid(group, split_gram(group), [[f, RF(0)], [RF(0), minus_f]], (Q(0),))
        with pytest.raises(PoleOrderError, match=r"Pf\(B\*Phi\) \* D\^1 is not polynomial"):
            twisted_pfaffian(fld)

    def test_non_unit_constant_gram_determinant(self, tmp_path, capsys):
        # B = [[0, 2], [2, 0]], det B = -4, Phi = diag(t, -t): F(t, 0) = -t^4
        # and the twisted Pfaffian is -2 t^2, so F(t, 0) = (-1/4) Pf^2
        gram = gram_form([[0, 2], [2, 0]], "symmetric")
        t = P([0, 1])
        fld = field_from_grid(GroupSpec("so-even", 1), gram, [[RF(t), RF(0)], [RF(0), RF(t * -1)]], (Q(0),))
        c = build_plane_curve(fld)
        assert gram.det == ((-4,), (1,))
        assert twisted_pfaffian(fld) == ((0, 0, -2), 1)
        rep = so_even_singularity_pattern(c, twisted_pfaffian(fld), Q(-4))
        assert rep.passed
        assert rep.count == 2 and rep.witnesses == ((Q(0), Q(0)),)
        path = tmp_path / "field.json"
        path.write_text(json.dumps(fld.to_dict()))
        assert main(["analyze", str(path)]) == 0
        assert "spectral: PASS" in capsys.readouterr().out

    def test_generated_so_even_field(self):
        from parahiggs.higgs import pfaffian_square_check

        fld = random_strongly_parabolic_higgs(GroupSpec("so-even", 2), [0], 1, seed=8)
        c = build_plane_curve(fld)
        twisted = twisted_pfaffian(fld)
        # the twisted Pfaffian P / s is Pf(B*Phi) * t^m, with Pf(B*Phi) from the pfaffian check
        pf = RationalFunction.from_ints(*pfaffian_square_check(fld).pfaffian)
        assert P(twisted[0]) * pf.den == pf.num * twisted[1] * P([0, 1]) ** fld.group.m
        num, den = fld.gram.det
        rep = so_even_singularity_pattern(c, twisted, Q(num[0], den[0]))
        assert rep.passed

    @pytest.mark.parametrize("seed", range(3))
    def test_twisted_pfaffian_at_fractional_marked_points(self, seed):
        from parahiggs.higgs import pfaffian_square_check

        # D = (t - 1/2)(t + 2/3): neither the chart twist nor the field's
        # denominator is monic over Z
        fld = random_strongly_parabolic_higgs(GroupSpec("so-even", 2), [Q(1, 2), Q(-2, 3)], 1, seed)
        twist = P([Q(-1, 2), 1]) * P([Q(2, 3), 1])
        pf = RationalFunction.from_ints(*pfaffian_square_check(fld).pfaffian)
        p, s = twisted_pfaffian(fld)
        assert P(p) * pf.den == pf.num * s * twist**fld.group.m


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
            cur = curve(neg(f), 0, 1)
            assert ramification_degree_affine(cur) == deg
            assert hyperelliptic_genus(f) == (deg - 1) // 2

    def test_quotient_reads_the_discriminant_degree(self):
        # disc_x g(t, x^2) = (-4)^m c0 (disc_z g)^2 on random monic g
        rng = random.Random(9)
        for _ in range(12):
            m = rng.randint(1, 3)
            g = [[rng.randint(-3, 3) for _ in range(rng.randint(0, 3))] for _ in range(m)]
            cur = curve(*(c for z in g for c in (z, 0)), 1)
            disc = discriminant_x(cur.coeffs)
            c0, disc_g = P(cur.quotient[0]), cur.quotient_discriminant
            assert disc == c0 * disc_g * disc_g * (-4) ** m
            if not disc.is_zero:
                assert ramification_degree_affine(cur) == disc.degree

    def test_genus_validation(self):
        with pytest.raises(ValueError):
            hyperelliptic_genus(P([1]))
        with pytest.raises(ValueError, match="squarefree"):
            hyperelliptic_genus(P([0, 0, 1]))
