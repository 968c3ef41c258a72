"""Integer engine: degree/genus formulas and the dimension identity chain.

Expected values are frozen from independent plug-in computation of the
Riemann-Roch counts and the two Riemann-Hurwitz bookkeepings; the closed
forms are cross-checked term by term against the section sums.  Property
tests compare the doubled-integer degrees against a plain `Fraction`
evaluation and the identity suite against the closed forms on random boxes.
"""

import ast
import os
import re
import subprocess
import sys
import time
from fractions import Fraction as Q
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from parahiggs import dimensions, groups, linalg
from parahiggs.dimensions import (
    CSV_HEADER,
    CrossCheckError,
    CurveParams,
    DimensionReport,
    IntegralityError,
    LineBundleClass,
    RegimeError,
    h0_rr,
    identity_suite,
    ramification_degree,
    rh_genus_crosscheck,
    spectral_genus,
    sweep_reports,
)
from parahiggs.cli import main
from parahiggs.groups import GroupError, GroupSpec

from helpers import (
    eigenline_degree_dual,
    eigenline_degree_grr,
    eigenline_degree_sqrt_twist,
    eigenline_reconciliation,
    hitchin_dim_by_class,
    load_script,
    sqrt_parity_check,
)

P211 = CurveParams(2, 1)
PFAFFIAN_REPORT = load_script("pfaffian_space_report")
KD = LineBundleClass.kd


class TestCurveParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            CurveParams(1, 1)
        with pytest.raises(ValueError):
            CurveParams(2, 0)

    def test_so_odd_needs_even_twist(self):
        with pytest.raises(ValueError, match="even deg"):
            identity_suite(GroupSpec("so-odd", 1), CurveParams(2, 1, deg_m=1))

    def test_compared_by_value(self):
        p = CurveParams(3, 2, 4)
        assert p is not P211 and p == CurveParams(3, 2, deg_m=4) and hash(p) == hash(CurveParams(3, 2, 4))
        assert P211 == CurveParams(2, 1, 0) and P211 not in (CurveParams(2, 1, 2), CurveParams(3, 1), (2, 1, 0))


class TestLineBundleClass:
    def test_degrees(self):
        assert KD(2, 1).degree(P211) == 5
        assert KD(0, 0).degree(P211) == 0
        assert KD(2, 2).degree(P211) == 6  # K(D)^2m at m=1

    def test_half_exponents(self):
        cls = LineBundleClass(1, 0, 1)  # K^(1/2) M^(1/2)
        assert cls.degree(CurveParams(3, 1, deg_m=2)) == 3
        with pytest.raises(IntegralityError):
            cls.degree(CurveParams(3, 1, deg_m=1))

    def test_compared_by_value(self):
        cls = LineBundleClass(4, 3)
        assert cls is not KD(2, 3) and cls == KD(2, 3) == LineBundleClass(4, 3, 0) and hash(cls) == hash(KD(2, 3))
        assert cls not in (LineBundleClass(4, 3, 1), KD(2, 2), (4, 3, 0))


def fraction_degree(a: Q, b: int, c: Q, p: CurveParams) -> int:
    """a(2g - 2) + bn + c deg(M) over Q; IntegralityError off Z."""
    val = a * (2 * p.g - 2) + b * p.n + c * p.deg_m
    if val.denominator != 1:
        raise IntegralityError(f"class K^{a}(D^{b})M^{c} has non-integral degree {val}")
    return int(val)


curve_params = st.builds(CurveParams, st.integers(2, 30), st.integers(1, 30), st.integers(-30, 30))


class TestDegreeOracle:
    @given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40), curve_params)
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_evaluation(self, two_a, b, two_c, p):
        try:
            want = fraction_degree(Q(two_a, 2), b, Q(two_c, 2), p)
        except IntegralityError as exc:
            with pytest.raises(IntegralityError, match=re.escape(str(exc))):
                LineBundleClass(two_a, b, two_c).degree(p)
        else:
            assert LineBundleClass(two_a, b, two_c).degree(p) == want


class TestH0:
    def test_values(self):
        assert h0_rr(KD(2, 1), P211) == 4
        assert h0_rr(KD(4, 3), P211) == 10
        # deg 17 > 2g-2 = 8, so no regime error; value 13
        assert h0_rr(KD(2, 1), CurveParams(5, 1)) == 13

    def test_regime_guard(self):
        with pytest.raises(RegimeError, match="h1"):
            h0_rr(KD(1, 0), P211)  # deg K = 2g-2 exactly


class TestHitchinDim:
    def test_spot_values(self):
        assert identity_suite(GroupSpec("sp", 1), P211).dim_hitchin == 4
        assert identity_suite(GroupSpec("sp", 2), CurveParams(3, 2)).dim_hitchin == 28
        assert identity_suite(GroupSpec("so-even", 2), P211).dim_hitchin == 8
        assert identity_suite(GroupSpec("so-odd", 1), P211).dim_hitchin == 4

    def test_sp_m2_g3_n2_term_by_term(self):
        p = CurveParams(3, 2)
        assert h0_rr(KD(2, 1), p) == 8
        assert h0_rr(KD(4, 3), p) == 20

    def test_so_even_m2_terms(self):
        # s_2 space K^2(D^1) and Pfaffian space K^2(D^1): 4 + 4
        assert h0_rr(KD(2, 1), P211) == 4

    def test_so_even_m1_boundary(self):
        # Pfaffian class is K itself (deg = 2g-2); the formula value g-1
        # matches the closed form m(2m-1)(g-1) + mn(m-1) = g-1
        for g in range(2, 7):
            for n in range(1, 5):
                assert identity_suite(GroupSpec("so-even", 1), CurveParams(g, n)).dim_hitchin == g - 1

    def test_closed_form_equals_sum_over_sweep(self):
        # the section sum equals the closed form dim M on the whole box
        reports = sweep_reports()
        assert len(reports) == 240
        assert all(r.dim_hitchin == r.dim_moduli for r in reports)

    @given(
        st.sampled_from(["sp", "so-even", "so-odd"]), st.integers(1, 12), st.integers(2, 30),
        st.integers(1, 30), st.integers(-15, 15), st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_regrouped_sum_equals_term_by_term_sum(self, kind, m, g, n, half_deg_m, odd):
        # deg M odd only where the group allows it: so-odd takes a square root of M
        deg_m = 2 * half_deg_m + (odd and kind != "so-odd")
        group, p = GroupSpec(kind, m), CurveParams(g, n, deg_m)
        assert identity_suite(group, p).dim_hitchin == hitchin_dim_by_class(group, p)


class TestModuliDims:
    def test_values(self):
        assert identity_suite(GroupSpec("sp", 1), P211).dim_moduli == 4  # 1*3 + 1*1
        assert identity_suite(GroupSpec("so-even", 2), P211).dim_moduli == 8  # 1*6 + 1*2
        assert identity_suite(GroupSpec("so-odd", 1), P211).dim_moduli == 4
        assert identity_suite(GroupSpec("sp", 1), P211).dim_higgs_moduli == 8
        assert identity_suite(GroupSpec("sp", 2), CurveParams(3, 2)).dim_higgs_moduli == 56
        assert identity_suite(GroupSpec("so-even", 2), P211).dim_higgs_moduli == 16


class TestGenera:
    def test_spectral_genus(self):
        assert spectral_genus(2, P211) == 6
        assert spectral_genus(1, P211) == 2  # degree-1 cover is the base
        assert spectral_genus(1, CurveParams(5, 3)) == 5
        assert spectral_genus(4, P211) == 23  # the so(4) virtual genus

    def test_rh_crosscheck_value(self):
        # 2 g_s - 2 = 2*2 + 2*1*3 = 10 -> g_s = 6
        assert rh_genus_crosscheck(2, P211) == 6
        assert rh_genus_crosscheck(1, CurveParams(4, 2)) == 4

    def test_adjunction_equals_riemann_hurwitz_everywhere(self):
        for r in range(1, 11):
            for g in range(2, 7):
                for n in range(1, 5):
                    p = CurveParams(g, n)
                    assert spectral_genus(r, p) == rh_genus_crosscheck(r, p)

    def test_fixed_points(self):
        assert identity_suite(GroupSpec("sp", 1), P211).fixed_points_or_singularities == 6
        assert identity_suite(GroupSpec("sp", 2), CurveParams(3, 2)).fixed_points_or_singularities == 24
        for m in range(1, 5):
            assert identity_suite(GroupSpec("sp", m), P211).fixed_points_or_singularities == KD(2 * m, 2 * m).degree(P211)

    def test_quotient_genus(self):
        assert identity_suite(GroupSpec("sp", 1), P211).quotient_or_desing_genus == 2  # 10 = 4 g_q - 4 + 6
        assert identity_suite(GroupSpec("sp", 2), CurveParams(3, 2)).quotient_or_desing_genus == 17  # 88 = 4 g_q - 4 + 24

    def test_quotient_genus_integral_over_sweep(self):
        # a non-integral quotient genus or an odd desingularized genus - 1 raises
        assert len(sweep_reports(("sp", "so-even"), range(1, 5), range(2, 7), range(1, 5))) == 160

    def test_so_even_singularities(self):
        rep = identity_suite(GroupSpec("so-even", 2), P211)
        assert rep.fixed_points_or_singularities == 6
        assert rep.quotient_or_desing_genus == 17  # 23 - 6


class TestPrym:
    def test_values(self):
        assert identity_suite(GroupSpec("sp", 1), P211).prym_dim == 4  # 6 - 2
        assert identity_suite(GroupSpec("so-even", 2), P211).prym_dim == 8  # (17 - 1)/2
        assert identity_suite(GroupSpec("so-odd", 1), P211).prym_dim == 4  # the sp(2) chain


class TestEigenlineDegrees:
    def test_three_modes(self):
        assert eigenline_degree_grr(0, 2, 2, 6) == 3
        assert eigenline_degree_dual(0, 2, 2, 6) == -3
        assert eigenline_degree_sqrt_twist(1, P211) == -3

    def test_reconciliation(self):
        res = eigenline_reconciliation(2, P211)
        assert (res.grr_value, res.dual_value) == (3, -3)
        assert res.difference == res.ramification == 6
        assert res.passed
        res = eigenline_reconciliation(2, CurveParams(3, 2))
        assert res.difference == res.ramification == 2 * spectral_genus(2, CurveParams(3, 2)) - 2 - 2 * 4
        assert eigenline_reconciliation(1, P211).difference == 0
        # deg E = r deg(M) / 2 = 4 moves the GRR value from 6 (deg M = 0) to 10
        res = eigenline_reconciliation(2, CurveParams(3, 2, deg_m=4))
        assert (res.grr_value, res.dual_value) == (10, -2)
        assert res.passed

    def test_reconciliation_sweep(self):
        for r in range(1, 9):
            for g in range(2, 7):
                for n in range(1, 5):
                    for dm in (-2, 0, 2):
                        assert eigenline_reconciliation(r, CurveParams(g, n, dm)).passed

    def test_sqrt_parity(self):
        assert sqrt_parity_check(2, P211)  # degree 6 is even
        for m in range(1, 5):
            for g in range(2, 7):
                for n in range(1, 5):
                    for dm in (-2, 0, 2):
                        assert sqrt_parity_check(2 * m, CurveParams(g, n, dm))
        with pytest.raises(ValueError, match="precondition"):
            sqrt_parity_check(3, CurveParams(2, 1, 1))
        with pytest.raises(ValueError, match="precondition"):
            sqrt_parity_check(3, CurveParams(3, 2, deg_m=1))

    def test_sqrt_twist_integrality_under_precondition(self):
        for m in range(1, 5):
            for g in range(2, 7):
                for n in range(1, 5):
                    for dm in (-2, -1, 0, 1, 2):
                        eigenline_degree_sqrt_twist(m, CurveParams(g, n, dm))

    def test_ramification_degree(self):
        assert ramification_degree(2, P211) == 6
        for r in range(1, 9):
            p = CurveParams(3, 2)
            assert ramification_degree(r, p) == r * (r - 1) * (2 * 3 - 2 + 2)


class TestIdentitySuite:
    def test_sp_spot(self):
        rep = identity_suite(GroupSpec("sp", 1), P211)
        assert rep.passed
        assert (rep.dim_hitchin, rep.dim_moduli, rep.prym_dim, rep.dim_higgs_moduli) == (4, 4, 4, 8)
        assert rep.to_csv_row() == "sp,1,2,1,4,4,4,8,PASS"
        assert CSV_HEADER == "group,m,g,n,dimH,dimM,prym,dimN,verdict"

    def test_so_even_spot(self):
        rep = identity_suite(GroupSpec("so-even", 2), P211)
        assert rep.passed
        assert rep.spectral_genus == 23
        assert rep.fixed_points_or_singularities == 6
        assert rep.quotient_or_desing_genus == 17
        assert (rep.dim_hitchin, rep.dim_moduli, rep.prym_dim) == (8, 8, 8)
        assert rep.dim_higgs_moduli == 16

    def test_so_odd_spot(self):
        rep = identity_suite(GroupSpec("so-odd", 1), P211)
        assert rep.passed
        assert (rep.dim_hitchin, rep.dim_moduli, rep.prym_dim, rep.dim_higgs_moduli) == (4, 4, 4, 8)

    def test_so_odd_with_even_twist(self):
        assert identity_suite(GroupSpec("so-odd", 2), CurveParams(3, 2, deg_m=4)).passed

    def test_full_sweep_passes(self):
        reports = sweep_reports()
        assert len(reports) == 240  # 3 groups x m in 1..4 x g in 2..6 x n in 1..4
        assert all(r.passed for r in reports)
        keys = [(r.group, r.m, r.g, r.n) for r in reports]
        assert keys == sorted(keys)


class TestPfaffianSpaceDiscrepancy:
    def test_literal_reading_excess_is_n(self):
        rows = PFAFFIAN_REPORT.pfaffian_space_discrepancy()
        assert len(rows) == 80
        for row in rows:
            assert row.excess == row.n
            assert row.adopted_dim == row.closed_form
            assert row.literal_dim == row.closed_form + row.n

    def test_single_instance(self):
        # m=2, g=2, n=1: literal Pfaffian space K(D)^2 has h0 = 5+1-2+... = deg 6 -> 5
        p = P211
        assert PFAFFIAN_REPORT.so_even_hitchin_dim_literal(2, p) == 9
        assert identity_suite(GroupSpec("so-even", 2), p).dim_hitchin == 8

    def test_literal_section_sum_is_a_failed_row(self, monkeypatch, capsys):
        # with the literal Pfaffian class K(D)^m the section sum exceeds dim M
        # by n, and the row's verdict says so: a failed check, not a usage error
        adopted = dimensions._hitchin_section_classes

        def literal(group):
            classes = adopted(group)
            return (*classes[:-1], KD(group.m, group.m)) if group.kind == "so-even" else classes

        monkeypatch.setattr(dimensions, "_hitchin_section_classes", literal)
        dimensions._GROUP_DATA.clear()
        try:
            code = main(["dims", "--group", "so-even", "-m", "2", "-g", "2", "-n", "1"])
        finally:
            dimensions._GROUP_DATA.clear()
        out, err = capsys.readouterr()
        assert (code, err) == (1, "")
        assert "so-even,2,2,1,9,8,8,16,FAIL:dimH=dimM" in out.splitlines()


def closed_form_row(kind: str, m: int, g: int, n: int) -> tuple:
    """(dimH, dimM, dimN, spectral genus, quotient or desingularized genus,
    fixed points or nodes, prym) from the closed forms alone."""
    ell = 2 * g - 2 + n  # deg K(D)
    if kind == "so-even":
        dim_h = sum(2 * i * (2 * g - 2) + (2 * i - 1) * n + 1 - g for i in range(1, m))
        dim_h += m * (2 * g - 2) + (m - 1) * n + 1 - g
        dim_g, dim_flag = m * (2 * m - 1), m * (m - 1)
    else:
        dim_h = sum(2 * i * (2 * g - 2) + (2 * i - 1) * n + 1 - g for i in range(1, m + 1))
        dim_g, dim_flag = m * (2 * m + 1), m * m
    r = 2 * m
    g_s = (r * (2 * g - 2) + r * (r - 1) * ell) // 2 + 1
    if kind == "so-even":
        fixed = m * ell
        quot = g_s - fixed
        prym = (quot - 1) // 2
    else:
        fixed = 2 * m * ell
        quot = (2 * g_s - 2 - fixed + 4) // 4
        prym = g_s - quot
    dim_m = (g - 1) * dim_g + n * dim_flag
    return dim_h, dim_m, 2 * dim_m, g_s, quot, fixed, prym


def spans(lo, hi, width):
    return st.tuples(st.integers(lo, hi), st.integers(0, width - 1)).map(lambda t: range(t[0], t[0] + t[1] + 1))


class TestIdentityOracle:
    @given(
        st.lists(st.sampled_from(["sp", "so-even", "so-odd"]), min_size=1, max_size=3, unique=True),
        spans(1, 9, 3), spans(2, 14, 3), spans(1, 10, 3), st.integers(-6, 6).map(lambda k: 2 * k),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_box_matches_closed_forms(self, kinds, ms, gs, ns, deg_m):
        reports = sweep_reports(kinds, ms, gs, ns, deg_m)
        assert len(reports) == len(kinds) * len(ms) * len(gs) * len(ns)
        for rep in reports:
            got = (rep.dim_hitchin, rep.dim_moduli, rep.dim_higgs_moduli, rep.spectral_genus,
                   rep.quotient_or_desing_genus, rep.fixed_points_or_singularities, rep.prym_dim)
            assert got == closed_form_row(rep.group, rep.m, rep.g, rep.n)
            assert rep.chain_verdict == "PASS"

    def test_sweep_builds_no_fraction(self):
        tree = ast.parse(Path(dimensions.__file__).read_text(encoding="utf-8"))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "fractions" not in imported
        reports = sweep_reports(ms=range(1, 6), gs=range(2, 5), ns=range(1, 4), deg_m=2)
        assert len(reports) == 135 and all(r.passed for r in reports)
        assert all(row.excess == row.n for row in PFAFFIAN_REPORT.pfaffian_space_discrepancy())
        with pytest.raises(IntegralityError, match="non-integral degree 7/2"):
            LineBundleClass(0, 0, 1).degree(CurveParams(2, 1, deg_m=7))

    @pytest.mark.parametrize("module", [linalg, groups, dimensions], ids=lambda m: m.__name__)
    def test_integer_modules_import_no_rational_function(self, module):
        # constant matrices and dimensions are held over Z; RationalFunction
        # is for printing and the tests
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        assert "RationalFunction" not in imported


# the sp, m = 1, g = 2, n = 1 row with a wrong Riemann-Hurwitz genus, under `python -O`
OPTIMIZED_CROSS_CHECK = """
from parahiggs import dimensions
from parahiggs.cli import main
dimensions._rh_genus = lambda r, k, ell: -1
assert False, "assertions are on"
try:
    dimensions.identity_suite(dimensions.GroupSpec("sp", 1), dimensions.CurveParams(2, 1))
except dimensions.CrossCheckError as exc:
    print(type(exc).__mro__[1].__name__, exc)
raise SystemExit(main(["dims", "--group", "sp", "-m", "1", "-g", "2", "-n", "1"]))
"""


def test_genus_cross_check_runs_under_python_O():
    src = str(Path(dimensions.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CROSS_CHECK],
                          capture_output=True, text=True, env=env, timeout=60)
    mismatch = "spectral genus mismatch: adjunction 6 != Riemann-Hurwitz -1"
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, f"ArithmeticError {mismatch}\n", f"error: {mismatch}\n")


class TestHoistedKernel:
    """identity_suite computes each quantity once per row from per-group data;
    every row must still equal the closed forms, and its spectral genus the
    public genus forms at r = 2m."""

    @pytest.mark.parametrize("kind,deg_ms", [
        ("sp", (0, 2, 4, 1, 3)),
        ("so-even", (0, 2, 4, 1, 3)),
        ("so-odd", (0, 2, 4)),
    ])
    def test_rows_equal_building_blocks(self, kind, deg_ms):
        for m in range(1, 7):
            group = GroupSpec(kind, m)
            for deg_m in deg_ms:
                for g in range(2, 9):
                    for n in range(1, 7):
                        p = CurveParams(g, n, deg_m)
                        want = closed_form_row(kind, m, g, n)
                        assert spectral_genus(2 * m, p) == rh_genus_crosscheck(2 * m, p) == want[3]
                        rep = identity_suite(group, p)
                        got = (rep.dim_hitchin, rep.dim_moduli, rep.dim_higgs_moduli, rep.spectral_genus,
                               rep.quotient_or_desing_genus, rep.fixed_points_or_singularities, rep.prym_dim)
                        assert got == want, (kind, m, g, n, deg_m)
                        assert (rep.group, rep.m, rep.g, rep.n, rep.chain_verdict) == (kind, m, g, n, "PASS")

    @pytest.mark.parametrize("deg_m", [1, -3])
    def test_odd_twist_raises_on_every_call(self, deg_m):
        for _ in range(2):  # the per-group cache must not swallow the error
            with pytest.raises(ValueError, match=re.escape("so-odd needs even deg(M)")):
                identity_suite(GroupSpec("so-odd", 2), CurveParams(3, 2, deg_m))
            with pytest.raises(ValueError, match=re.escape("so-odd needs even deg(M)")):
                sweep_reports(("so-odd",), range(1, 3), range(2, 4), range(1, 3), deg_m)
            with pytest.raises(ValueError, match=re.escape("so-odd needs even deg(M)")):
                sweep_reports(deg_m=deg_m)

    def test_group_check_runs_once_per_group_and_twist(self, monkeypatch):
        seen = []

        def counting(group, deg_m):
            seen.append((group, deg_m))

        monkeypatch.setattr(dimensions, "validate_group_params", counting)
        dimensions._GROUP_DATA.clear()
        try:
            for deg_m in (0, 2):
                assert len(sweep_reports(ms=range(1, 4), gs=range(2, 6), ns=range(1, 5), deg_m=deg_m)) == 144
        finally:
            dimensions._GROUP_DATA.clear()
        want = {(GroupSpec(kind, m), deg_m) for kind in ("sp", "so-even", "so-odd")
                for m in range(1, 4) for deg_m in (0, 2)}
        assert len(seen) == len(want) and set(seen) == want


@pytest.fixture
def fresh_group_data():
    """An empty per-pair cache before and after the test, so that patched class
    builders are read and leave no pair behind."""
    dimensions._GROUP_DATA.clear()
    yield
    dimensions._GROUP_DATA.clear()


def with_section(extra):
    """The Hitchin section classes of every group, plus one more class."""
    adopted = dimensions._hitchin_section_classes
    return lambda group: (*adopted(group), extra)


def open_det_triple(m):
    """A so-odd determinant triple whose quotient det E - E0 misses K^m D^m M^m
    by one power of D."""
    return LineBundleClass(0, 0, 2 * m + 1), LineBundleClass(-2 * m, -m, 1), LineBundleClass(2 * m, m - 1, 2 * m)


class TestOncePerPairProofs:
    """The section and determinant classes are checked when the (group, deg M)
    pair is built, for every row of the pair, and a failed check is never
    cached: it raises on every call, on the first row of any box."""

    @pytest.mark.parametrize("extra,deg_m", [
        (LineBundleClass(1, 1), 0),  # K^(1/2) D: below 2g - 2 once g >= n + 2
        (KD(2, -1), 0),  # K^2 D^-1: below 2g - 2 once n > 2g - 2
        (LineBundleClass(2, 0, -2), 2),  # K M^-1 with deg M = 2: below on every row
    ])
    def test_class_below_the_regime(self, fresh_group_data, monkeypatch, extra, deg_m):
        monkeypatch.setattr(dimensions, "_hitchin_section_classes", with_section(extra))
        for _ in range(2):
            with pytest.raises(RegimeError, match="section space below the Riemann-Roch regime"):
                identity_suite(GroupSpec("sp", 2), CurveParams(2, 1, deg_m))
            with pytest.raises(RegimeError, match="section space below the Riemann-Roch regime"):
                sweep_reports(("sp",), range(1, 3), range(2, 4), range(1, 3), deg_m)
        assert dimensions._GROUP_DATA == {}

    @pytest.mark.parametrize("deg_m", [1, 3, -5])
    def test_odd_twist_of_a_half_m_class(self, fresh_group_data, monkeypatch, deg_m):
        monkeypatch.setattr(dimensions, "_hitchin_section_classes", with_section(LineBundleClass(4, 3, 1)))
        want = re.escape(f"class K^2(D^3)M^1/2 has non-integral degree {deg_m}/2")
        for _ in range(2):
            with pytest.raises(IntegralityError, match=want):
                identity_suite(GroupSpec("so-even", 2), CurveParams(5, 4, deg_m))
            with pytest.raises(IntegralityError, match=want):
                sweep_reports(("sp", "so-even"), range(1, 3), range(2, 4), range(1, 3), deg_m)
        assert dimensions._GROUP_DATA == {}
        assert len(sweep_reports(("sp",), range(1, 3), range(2, 4), range(1, 3), 2)) == 8

    def test_so_odd_determinant_that_does_not_close(self, fresh_group_data, monkeypatch):
        monkeypatch.setattr(dimensions, "_quotient_det_classes", open_det_triple)
        want = re.escape("quotient determinant class mismatch: det E - E0 = K^2(D^2)M^2 != K^2(D^1)M^2")
        for _ in range(2):
            with pytest.raises(CrossCheckError, match=want):
                identity_suite(GroupSpec("so-odd", 2), CurveParams(3, 2, 4))
            with pytest.raises(CrossCheckError, match=want):
                sweep_reports(("so-odd",), range(2, 3), range(2, 4), range(1, 3))
        assert dimensions._GROUP_DATA == {}
        assert len(sweep_reports(("sp", "so-even"), range(1, 3), range(2, 4), range(1, 3))) == 16

    @given(st.integers(-2, 6), st.integers(-2, 4), st.integers(-3, 3), st.integers(-6, 6),
           st.integers(2, 30), st.integers(1, 30))
    @settings(max_examples=300, deadline=None)
    def test_proof_is_exact_for_any_extra_class(self, two_a, b, two_c, deg_m, g, n):
        # the pair fails exactly when some row fails term by term; the rows at
        # g = 2, n = 1 and far out in g and in n decide it, deg - (2g - 2) being
        # linear in (g - 1, n); otherwise dim H is the term-by-term sum, M part too
        group = GroupSpec("sp", 2)

        def outcome(g, n):
            try:
                return hitchin_dim_by_class(group, CurveParams(g, n, deg_m))
            except ArithmeticError as exc:
                return type(exc)

        with mock.patch.object(dimensions, "_hitchin_section_classes", with_section(LineBundleClass(two_a, b, two_c))):
            dimensions._GROUP_DATA.clear()
            try:
                got = identity_suite(group, CurveParams(g, n, deg_m)).dim_hitchin
            except ArithmeticError as exc:
                got = type(exc)
            finally:
                dimensions._GROUP_DATA.clear()
            rows = [outcome(g, n), outcome(2, 1), outcome(102, 1), outcome(2, 101)]
        failed = [row for row in rows if isinstance(row, type)]
        assert got == (failed[0] if failed else rows[0])

    def test_section_work_is_per_pair_not_per_row(self, fresh_group_data, monkeypatch):
        calls = []
        degree_at = LineBundleClass.degree_at

        def counting(cls, k, n, deg_m):
            calls.append(cls)
            return degree_at(cls, k, n, deg_m)

        monkeypatch.setattr(LineBundleClass, "degree_at", counting)
        box = (("sp", "so-odd"), range(3000, 3001), range(2, 22), range(1, 21))
        for want in (3000 + 3000 + 3, 0):  # per section and so-odd determinant class, then cached
            calls.clear()
            assert len(sweep_reports(*box)) == 800
            assert len(calls) == want
        calls.clear()
        assert len(sweep_reports(("sp", "so-odd"), range(3000, 3001), range(2, 62), range(1, 61))) == 7200
        assert calls == []

    def test_large_m_sweep_is_fast(self, fresh_group_data):
        box = (("sp", "so-odd"), range(3000, 3001), range(2, 22), range(1, 21))
        best = float("inf")
        for _ in range(3):
            dimensions._GROUP_DATA.clear()
            start = time.perf_counter()
            assert len(sweep_reports(*box)) == 800
            best = min(best, time.perf_counter() - start)
        assert best < 0.1


# each once-per-pair proof failing twice, under `python -O`
OPTIMIZED_PROOFS = """
from parahiggs import dimensions as d
assert False, "assertions are on"
adopted = d._hitchin_section_classes
cases = [
    ("_hitchin_section_classes", lambda group: (*adopted(group), d.LineBundleClass(1, 1)), "sp", 0),
    ("_hitchin_section_classes", lambda group: (*adopted(group), d.LineBundleClass(4, 3, 1)), "sp", 1),
    ("_quotient_det_classes", lambda m: (d.LineBundleClass(0, 0, 2 * m + 1), d.LineBundleClass(-2 * m, -m, 1),
                                         d.LineBundleClass(2 * m, m - 1, 2 * m)), "so-odd", 0),
]
for name, patched, kind, deg_m in cases:
    saved = getattr(d, name)
    setattr(d, name, patched)
    d._GROUP_DATA.clear()
    for _ in range(2):
        try:
            d.identity_suite(d.GroupSpec(kind, 2), d.CurveParams(3, 2, deg_m))
        except ArithmeticError as exc:
            print(type(exc).__name__, exc)
    setattr(d, name, saved)
"""


def test_once_per_pair_proofs_run_under_python_O():
    src = str(Path(dimensions.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_PROOFS],
                          capture_output=True, text=True, env=env, timeout=60)
    want = [
        "RegimeError section space below the Riemann-Roch regime",
        "IntegralityError class K^2(D^3)M^1/2 has non-integral degree 1/2",
        "CrossCheckError quotient determinant class mismatch: det E - E0 = K^2(D^2)M^2 != K^2(D^1)M^2",
    ]
    assert (proc.returncode, proc.stdout.splitlines(), proc.stderr) == (0, [line for line in want for _ in range(2)], "")


# (groups, ms, gs, ns, deg M) -> the error sweep_reports raises, or its rows:
# a bad m before a bad g or n, a bad g before the so-odd twist check, and an
# empty (g, n) grid builds no row and checks no twist, but still checks m
SWEEP_CONTRACT = [
    ((("sp",), range(0, 1), range(1, 2), range(1, 2), 0), GroupError, "m must be >= 1"),
    ((("so-odd",), range(1, 2), range(1, 2), range(1, 2), 1), ValueError, "genus must be >= 2"),
    ((("so-odd",), range(1, 2), range(2, 3), range(1, 2), 1), ValueError, "so-odd needs even deg(M)"),
    ((("so-odd",), range(1, 2), range(0), range(1, 2), 1), None, []),
    ((("sp",), range(0, 1), range(0), range(1, 2), 0), GroupError, "m must be >= 1"),
]

ROW_FIELDS = (
    "group", "m", "g", "n", "dim_hitchin", "dim_moduli", "dim_higgs_moduli", "spectral_genus",
    "quotient_or_desing_genus", "prym_dim", "fixed_points_or_singularities", "chain_verdict",
)


class TestSweepContract:
    @pytest.mark.parametrize("box,error,want", SWEEP_CONTRACT)
    def test_errors_keep_their_order(self, box, error, want):
        if error is None:
            assert sweep_reports(*box) == want
            return
        with pytest.raises(error, match=re.escape(want)) as caught:
            sweep_reports(*box)
        assert caught.type is error

    def test_one_identity_suite_per_row_and_curve_params_per_grid_point(self, monkeypatch):
        suite = mock.Mock(wraps=dimensions.identity_suite)
        params = mock.Mock(wraps=dimensions.CurveParams)
        monkeypatch.setattr(dimensions, "identity_suite", suite)
        monkeypatch.setattr(dimensions, "CurveParams", params)
        for kinds, ms, gs, ns in [
            (("sp", "so-even", "so-odd"), range(2, 10), range(3, 14), range(2, 10)),
            (("so-odd",), range(1, 3), range(2, 4), range(1, 6)),
        ]:
            suite.reset_mock()
            params.reset_mock()
            reports = sweep_reports(kinds, ms, gs, ns, 2)
            assert suite.call_count == len(reports) == len(kinds) * len(ms) * len(gs) * len(ns)
            assert params.call_count == len(gs) * len(ns)
            called = [(group.kind, group.m, p.g, p.n, p.deg_m) for (group, p), _ in suite.call_args_list]
            assert called == [(r.group, r.m, r.g, r.n, 2) for r in reports]


class TestDimensionReport:
    def test_fields_by_name_and_position(self):
        values = ("sp", 2, 3, 2, 28, 28, 56, 45, 17, 28, 24, "PASS")
        rep = DimensionReport(**dict(zip(ROW_FIELDS, values)))
        assert rep == DimensionReport(*values) == identity_suite(GroupSpec("sp", 2), CurveParams(3, 2, 2))
        assert tuple(getattr(rep, name) for name in ROW_FIELDS) == values

    def test_immutable_and_compared_by_value(self):
        rep = identity_suite(GroupSpec("so-even", 3), CurveParams(3, 2))
        for name in ROW_FIELDS:
            with pytest.raises(AttributeError):
                setattr(rep, name, 0)
        again = identity_suite(GroupSpec("so-even", 3), CurveParams(3, 2))
        assert rep is not again and rep == again and hash(rep) == hash(again)
        assert rep != identity_suite(GroupSpec("so-even", 3), CurveParams(3, 3))
        assert rep.spectral_genus == 103

    def test_to_dict_and_csv_row(self):
        rep = identity_suite(GroupSpec("so-odd", 2), CurveParams(3, 2, 2))
        assert list(rep.to_dict().items()) == [
            ("group", "so-odd"), ("m", 2), ("g", 3), ("n", 2), ("dimH", 28), ("dimM", 28), ("prym", 28),
            ("dimN", 56), ("spectralGenus", 45), ("quotientOrDesingGenus", 17),
            ("fixedPointsOrSingularities", 24), ("verdict", "PASS"),
        ]
        assert rep.to_csv_row() == "so-odd,2,3,2,28,28,28,56,PASS"
        assert rep.passed
        failed = DimensionReport(*[*(getattr(rep, name) for name in ROW_FIELDS[:-1]), "FAIL:dimM=prym"])
        assert not failed.passed
        assert failed.to_csv_row() == "so-odd,2,3,2,28,28,28,56,FAIL:dimM=prym"
        assert failed.to_dict()["verdict"] == "FAIL:dimM=prym"
