"""Acceptance criteria, one test per criterion.

Each test prints a single "ACCEPTANCE nn PASS/FAIL" line (visible with
``pytest -s``); every assertion is exact, no tolerances anywhere.  The
random-field laws run on seeded deterministic samples, so reruns are
replayable bit for bit.
"""

import functools
import random
import time
from fractions import Fraction as Q

from parahiggs.curves import (
    hyperelliptic_genus,
    involution_check,
    involution_fixed_points,
    smoothness_check,
    so_even_singularity_pattern,
)
from parahiggs.dimensions import (
    CurveParams,
    identity_suite,
    rh_genus_crosscheck,
    spectral_genus,
)
from parahiggs.groups import GroupSpec
from parahiggs.higgs import (
    HiggsField,
    NonGenericFieldError,
    parity_classify,
    pfaffian_square_check,
    random_strongly_parabolic_higgs,
    so_odd_reduce,
    strong_parabolic_check,
)
from parahiggs.linalg import clear_fractions, int_pfaffian
from parahiggs.poly import RationalFunction, UniPoly

from helpers import (
    bareiss_det,
    eigenline_degree_sqrt_twist,
    eigenline_reconciliation,
    entry_ints,
    field_from_grid,
    gram_form,
    gram_matrix,
    load_script,
    rational_function,
    sections,
    semisimple_residue_control,
    sqrt_parity_check,
)

P = UniPoly.make
RF = rational_function


MARKED_POOL = (0, 1, -1, 2)


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:02d} FAIL  {desc}")
                raise
            print(f"ACCEPTANCE {num:02d} PASS  {desc}")

        return wrapper

    return deco


def field_params(rng, max_m=3, max_bound=4, max_marked=3):
    """Draw generator parameters inside the criterion caps, small-biased."""
    m = rng.choice([1, 1, 2, 2, 3][: 2 * max_m - 1])
    bound = rng.choice([0, 1, 1, 2, 2, 3, 4][: max_bound + 3])
    k = rng.choice([1, 1, 2, 2, 3][: 2 * max_marked - 1])
    return m, bound, list(MARKED_POOL[:k])


@criterion(1, "dimension identity chain over the full sweep box, < 1 s")
def test_c01_identity_sweep():
    t0 = time.perf_counter()
    count = 0
    for kind in ("sp", "so-even", "so-odd"):
        for m in range(1, 5):
            for g in range(2, 7):
                for n in range(1, 5):
                    rep = identity_suite(GroupSpec(kind, m), CurveParams(g, n))
                    assert rep.passed, rep
                    assert rep.dim_higgs_moduli == 2 * rep.dim_hitchin
                    count += 1
    elapsed = time.perf_counter() - t0
    assert count == 240  # superset of the quoted 180 (m in 1..4 inclusive)
    assert elapsed < 1.0, f"sweep took {elapsed:.2f} s"


@criterion(2, "spot dimension values via independent Riemann-Roch/Hurwitz oracles")
def test_c02_spot_values():
    def rr_sum(kind, m, g, n):
        if kind == "so-even":
            total = sum(2 * i * (2 * g - 2) + (2 * i - 1) * n + 1 - g for i in range(1, m))
            return total + m * (2 * g - 2) + (m - 1) * n + 1 - g
        return sum(2 * i * (2 * g - 2) + (2 * i - 1) * n + 1 - g for i in range(1, m + 1))

    def rh_genus(r, g, n):
        return (r * (2 * g - 2) + r * (r - 1) * (2 * g - 2 + n)) // 2 + 1

    def sp_prym(m, g, n):
        g_s = rh_genus(2 * m, g, n)
        g_q = (2 * g_s - 2 - 2 * m * (2 * g - 2 + n) + 4) // 4
        return g_s - g_q

    # Sp(2), g=2, n=1
    rep = identity_suite(GroupSpec("sp", 1), CurveParams(2, 1))
    assert rep.dim_hitchin == rr_sum("sp", 1, 2, 1) == 4
    assert rep.prym_dim == sp_prym(1, 2, 1) == 4
    # Sp(4), g=3, n=2
    rep = identity_suite(GroupSpec("sp", 2), CurveParams(3, 2))
    assert rep.dim_hitchin == rr_sum("sp", 2, 3, 2) == 28
    assert rep.prym_dim == sp_prym(2, 3, 2) == 28
    # SO(4), g=2, n=1: virtual genus 23, 6 nodes, desingularized genus 17
    rep = identity_suite(GroupSpec("so-even", 2), CurveParams(2, 1))
    assert rep.dim_hitchin == rr_sum("so-even", 2, 2, 1) == 8
    assert rep.spectral_genus == rh_genus(4, 2, 1) == 23
    assert rep.fixed_points_or_singularities == 2 * (2 * 2 - 2 + 1) == 6
    assert rep.quotient_or_desing_genus == 23 - 6 == 17
    assert rep.prym_dim == (17 - 1) // 2 == 8
    # SO(3), g=2, n=1 rides the Sp(2) chain
    rep = identity_suite(GroupSpec("so-odd", 1), CurveParams(2, 1))
    assert rep.dim_hitchin == rr_sum("so-odd", 1, 2, 1) == 4
    assert rep.prym_dim == sp_prym(1, 2, 1) == 4


@criterion(3, "adjunction genus equals Riemann-Hurwitz genus for r in 1..10")
def test_c03_genus_crosscheck():
    for r in range(1, 11):
        for g in range(2, 7):
            for n in range(1, 5):
                p = CurveParams(g, n)
                assert spectral_genus(r, p) == rh_genus_crosscheck(r, p)


@criterion(4, "parity law on >= 200 seeded random fields per group")
def test_c04_parity_law():
    for gi, kind in enumerate(("sp", "so-even", "so-odd")):
        rng = random.Random(0xC4 + 101 * gi)
        failures = 0
        for sample in range(200):
            m, bound, marked = field_params(rng)
            fld = random_strongly_parabolic_higgs(
                GroupSpec(kind, m), marked, bound, seed=1000 + sample
            )
            res = parity_classify(fld.char_data, fld.group)
            if not res.passed:
                failures += 1
            if kind == "so-odd":
                assert not fld.char_data.e[-1]  # char divisible by x
        assert failures == 0, f"{kind}: {failures} parity failures"


@criterion(5, "Pfaffian square law on >= 200 so-even fields and Pf^2 = det on >= 200 matrices")
def test_c05_pfaffian_law():
    rng = random.Random(0xC5)
    for sample in range(200):
        m = rng.choice([1, 2, 2, 3, 3, 4])
        bound = rng.choice([0, 1, 1, 2])
        k = rng.choice([1, 1, 2])
        fld = random_strongly_parabolic_higgs(
            GroupSpec("so-even", m), list(MARKED_POOL[:k]), bound, seed=2000 + sample
        )
        res = pfaffian_square_check(fld)
        assert res.passed
        assert RationalFunction.from_ints(*res.unit) == RF((-1) ** m)  # det of the split Gram
    # independent route: Pf(A)^2 = det(A) on random constant antisymmetric matrices
    for sample in range(200):
        n = rng.choice([2, 4, 6, 8])
        a = [[Q(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a[i][j] = Q(rng.randint(-9, 9), rng.randint(1, 4))
                a[j][i] = -a[i][j]
        # cleared to L*A over Z: Pf(L*A)^2 = L^n Pf(A)^2 and det(L*A) = L^n det(A)
        ints, _ = clear_fractions([[entry_ints(x) for x in row] for row in a])
        pf = int_pfaffian(ints)
        assert ([pf[0] ** 2] if pf else []) == bareiss_det([[list(p) for p in row] for row in ints])


@criterion(6, "pole-order law on >= 100 generated fields; semisimple control flagged")
def test_c06_strong_parabolicity():
    rng = random.Random(0xC6)
    kinds = ("sp", "so-even", "so-odd")
    for sample in range(100):
        kind = kinds[sample % 3]
        m, bound, marked = field_params(rng, max_m=2)
        fld = random_strongly_parabolic_higgs(GroupSpec(kind, m), marked, bound, seed=3000 + sample)
        res = strong_parabolic_check(fld)
        assert res.passed, (kind, m, sample, res.failures)
    for kind in kinds:
        control = semisimple_residue_control(GroupSpec(kind, 2), [0, 1], 1, seed=77)
        res = strong_parabolic_check(control)
        assert not res.passed
        assert any("pole order" in f for f in res.failures)
        assert any("not nilpotent" in f for f in res.failures)


@criterion(7, "eigenline reconciliation and square-root integrality over the box")
def test_c07_eigenline_reconciliation():
    for r in range(1, 9):
        for g in range(2, 7):
            for n in range(1, 5):
                for dm in (-2, -1, 0, 1, 2):
                    p = CurveParams(g, n, dm)
                    rec = eigenline_reconciliation(r, p)
                    assert rec.passed
                    assert rec.difference == 2 * spectral_genus(r, p) - 2 - r * (2 * g - 2)
                    if r % 2 == 0:
                        assert sqrt_parity_check(r, p)
                        eigenline_degree_sqrt_twist(r // 2, p)  # integral, or raises
                    elif dm % 2 == 0:
                        assert sqrt_parity_check(r, p)


@criterion(8, "kernel reduction on >= 50 so-odd fields; char factors exactly")
def test_c08_so_odd_reduction():
    rng = random.Random(0xC8)
    done = 0
    sample = 0
    while done < 50:
        sample += 1
        assert sample < 200, "too many non-generic samples"
        m = rng.choice([1, 1, 2])
        bound = rng.choice([0, 1, 1, 2])
        k = rng.choice([1, 2])
        fld = random_strongly_parabolic_higgs(
            GroupSpec("so-odd", m), list(MARKED_POOL[:k]), bound, seed=4000 + sample
        )
        try:
            red = so_odd_reduce(fld)
        except NonGenericFieldError:
            continue
        full = sections(fld.char_data)
        reduced = HiggsField(GroupSpec("sp", m), red.induced_gram, red.reduced, fld.marked_points)
        assert full[-1].num.is_zero
        assert full[:-1] == sections(reduced.char_data)  # x * char(reduced) = char(input)
        g = gram_matrix(red.induced_gram)
        size = 2 * m
        assert all(
            g[i][j].num == g[j][i].num * -1 and g[i][j].den == g[j][i].den
            for i in range(size) for j in range(size)
        )
        done += 1
    # the worked 3x3 instance: cross matrix of (1,2,3) reduces to x^2 + 14
    gram = gram_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "symmetric")
    fld = field_from_grid(
        GroupSpec("so-odd", 1), gram,
        [[RF(x) for x in row] for row in [[0, -3, 2], [3, 0, -1], [-2, 1, 0]]], (),
    )
    red = so_odd_reduce(fld)
    reduced = HiggsField(GroupSpec("sp", 1), red.induced_gram, red.reduced, ())
    assert sections(reduced.char_data) == [RF(0), RF(14)]


@criterion(9, "plane-curve certification on the two reference curves")
def test_c09_plane_curves():
    # x^2 - (t^3 - t): smooth, 3 involution fixed points, hyperelliptic genus 1
    from parahiggs.curves import PlaneCurve

    hyper = PlaneCurve(((0, 1, 0, -1), (), (1,)))
    assert involution_check(hyper)
    rep = smoothness_check(hyper)
    assert rep.status == "smooth" and rep.disc_squarefree
    fixed = involution_fixed_points(hyper)
    assert fixed.count == 3
    assert [r for r, _ in fixed.witnesses] == [Q(-1), Q(0), Q(1)]
    assert hyperelliptic_genus(P([0, -1, 0, 1])) == 1
    # x^4 + (t-1) x^2 + t^2: singular exactly at the origin, where x = 0 = p
    quartic = PlaneCurve(((0, 0, 1), (), (-1, 1), (), (1,)))
    srep = smoothness_check(quartic)
    assert srep.status == "singular"
    assert srep.witnesses == ((Q(0), Q(0)),)
    pattern = so_even_singularity_pattern(quartic, ((0, 1), 1), 1)
    assert pattern.passed and pattern.count == 1
    assert pattern.witnesses == ((Q(0), Q(0)),)


@criterion(10, "documented discrepancy: literal Pfaffian space exceeds dim H by n")
def test_c10_pfaffian_space_report():
    rows = load_script("pfaffian_space_report").pfaffian_space_discrepancy()
    assert len(rows) == 80
    for row in rows:
        assert row.adopted_dim == row.closed_form
        assert row.literal_dim - row.closed_form == row.n
        assert row.excess == row.n
    # the report renders as a table artifact
    lines = ["m,g,n,literal,adopted,closed_form,excess"]
    lines += [
        f"{r.m},{r.g},{r.n},{r.literal_dim},{r.adopted_dim},{r.closed_form},{r.excess}"
        for r in rows
    ]
    report = "\n".join(lines)
    assert report.count("\n") == 80
    assert "2,2,1,9,8,8,1" in report
