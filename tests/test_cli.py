"""CLI contract: exit codes, determinism, JSON round-trips, check filtering."""

import gc
import io
import json
import time
import warnings
from fractions import Fraction
from itertools import zip_longest

import pytest

from parahiggs import groups, higgs, linalg
from parahiggs.cli import ALL_CHECKS, NON_MEMBER, main
from parahiggs.higgs import HiggsField
from parahiggs.poly import RationalFunction, UniPoly, int_fraction_from_json

ZERO = {"num": [], "den": ["1"]}
ONE = {"num": ["1"], "den": ["1"]}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDims:
    def test_sp_spot_row(self, capsys):
        code, out, _ = run(capsys, "dims", "--group", "sp", "-m", "1", "-g", "2", "-n", "1")
        assert code == 0
        assert out.splitlines()[0] == "group,m,g,n,dimH,dimM,prym,dimN,verdict"
        assert out.splitlines()[1] == "sp,1,2,1,4,4,4,8,PASS"

    def test_so_even_spot_row(self, capsys):
        code, out, _ = run(capsys, "dims", "--group", "so-even", "-m", "2", "-g", "2", "-n", "1")
        assert code == 0
        assert out.splitlines()[1] == "so-even,2,2,1,8,8,8,16,PASS"

    def test_so_odd_spot_row(self, capsys):
        code, out, _ = run(capsys, "dims", "--group", "so-odd", "-m", "1", "-g", "2", "-n", "1")
        assert code == 0
        assert out.splitlines()[1] == "so-odd,1,2,1,4,4,4,8,PASS"

    def test_invalid_params_exit_2(self, capsys):
        code, _, err = run(capsys, "dims", "--group", "sp", "-m", "1", "-g", "1", "-n", "1")
        assert code == 2
        assert "error" in err

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "dims", "--group", "sp", "-m", "1:2", "-g", "2", "-n", "1", "--format", "json"
        )
        assert code == 0
        reports = json.loads(out)
        assert [r["m"] for r in reports] == [1, 2]
        assert all(r["verdict"] == "PASS" for r in reports)


class TestSweep:
    def test_full_box(self, capsys):
        code, out, _ = run(capsys, "sweep")
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 1 + 240
        # lexicographic in (group, m, g, n)
        assert rows[1].startswith("so-even,1,2,1")
        assert rows[-1].startswith("sp,4,6,4")

    def test_markdown(self, capsys):
        code, out, _ = run(capsys, "sweep", "-m", "1", "-g", "2", "-n", "1", "--format", "md")
        assert code == 0
        assert out.splitlines()[0].startswith("| group |")
        assert len(out.strip().splitlines()) == 2 + 3


class TestGen:
    def test_deterministic_bytes(self, tmp_path, capsys):
        args = ("gen", "--group", "sp", "-m", "2", "--marked", "0,1", "--deg-bound", "2", "--seed", "42")
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, *args, "-o", str(f1))[0] == 0
        assert run(capsys, *args, "-o", str(f2))[0] == 0
        assert f1.read_bytes() == f2.read_bytes()
        doc = json.loads(f1.read_text())
        assert doc["seed"] == 42
        assert doc["group"] == "sp"

    def test_generated_field_analyzes_clean(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        run(capsys, "gen", "--group", "so-even", "-m", "2", "--marked", "0,1", "--seed", "7", "-o", str(path))
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert "overall: PASS" in out

    def test_duplicate_points_exit_2(self, capsys):
        code, _, err = run(capsys, "gen", "--group", "sp", "-m", "1", "--marked", "0,0", "--seed", "1")
        assert code == 2
        assert "duplicate" in err

    def test_m_range_exit_2(self, capsys):
        code, out, err = run(capsys, "gen", "--group", "sp", "-m", "1:3", "--marked", "0", "--seed", "1")
        assert code == 2
        assert out == ""
        assert "single m" in err

    def test_so_odd_char_divisible_by_x(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        run(capsys, "gen", "--group", "so-odd", "-m", "1", "--marked", "0", "--seed", "3", "-o", str(path))
        fld = HiggsField.from_dict(json.loads(path.read_text()))
        assert not fld.char_data.e[-1]


class TestAnalyze:
    @pytest.fixture()
    def sp_field(self, tmp_path, capsys):
        path = tmp_path / "sp.json"
        run(capsys, "gen", "--group", "sp", "-m", "1", "--marked", "0", "--seed", "5", "-o", str(path))
        capsys.readouterr()
        return path

    def test_checks_filter(self, sp_field, capsys):
        code, out, _ = run(capsys, "analyze", str(sp_field), "--checks", "parity", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert list(report["checks"]) == ["parity"]

    def test_negative_control_exit_1(self, tmp_path, capsys):
        bad = {
            "group": "sp",
            "m": 1,
            "marked_points": ["0"],
            "matrix": [
                [{"num": ["1"], "den": ["0", "1"]}, {"num": [], "den": ["1"]}],
                [{"num": [], "den": ["1"]}, {"num": ["-1"], "den": ["0", "1"]}],
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 1
        assert "strong-parabolic: FAIL" in out

    def test_pole_off_marked_points_exit_1(self, tmp_path, capsys):
        # nilpotent sp(1) field with a pole at t = 5, which is not marked
        doc = {
            "group": "sp",
            "m": 1,
            "marked_points": ["0"],
            "matrix": [[ZERO, {"num": ["1"], "den": ["-5", "1"]}], [ZERO, ZERO]],
        }
        path = tmp_path / "off.json"
        path.write_text(json.dumps(doc))
        checks = "membership,charpoly,parity,strong-parabolic"
        code, out, _ = run(capsys, "analyze", str(path), "--checks", checks)
        assert code == 1
        assert "membership: PASS" in out
        assert "strong-parabolic: FAIL" in out
        assert "  - pole off the marked points: Phi has denominator factor -5 + t" in out

    def test_analyze_clears_the_field_once(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "so4.json"
        gen = ("gen", "--group", "so-even", "-m", "2", "--marked", "0,1", "--seed", "7")
        run(capsys, *gen, "-o", str(path))
        grid = [[int_fraction_from_json(x) for x in row] for row in json.loads(path.read_text())["matrix"]]
        cleared = []
        original = linalg.clear_fractions

        def counting(a):
            cleared.append(a)
            return original(a)

        for module in (linalg, groups, higgs):
            monkeypatch.setattr(module, "clear_fractions", counting)
        code, out, _ = run(capsys, "analyze", str(path), "--format", "json")
        assert code == 0
        assert sorted(json.loads(out)["checks"]) == [
            "charpoly", "membership", "parity", "pfaffian", "spectral", "strong-parabolic"
        ]
        assert sum(1 for a in cleared if a == grid) == 1

    def test_analyze_computes_the_pfaffian_once(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "so4.json"
        gen = ("gen", "--group", "so-even", "-m", "2", "--marked", "0,1", "--seed", "7")
        run(capsys, *gen, "-o", str(path))
        calls = []
        original = higgs.int_pfaffian

        def counting(a):
            calls.append(a)
            return original(a)

        monkeypatch.setattr(higgs, "int_pfaffian", counting)
        code, out, _ = run(capsys, "analyze", str(path), "--format", "json")
        assert code == 0
        checks = json.loads(out)["checks"]
        assert checks["pfaffian"]["pass"] and checks["spectral"]["singularity_pattern"]["pass"]
        assert len(calls) == 1

    def test_non_reduced_spectral_curve_exit_1_with_report(self, tmp_path, capsys):
        # this seed draws Phi = 0 (so(2) has no nonzero nilpotents), so the
        # spectral curve is the double line x^2 = 0
        path = tmp_path / "so2.json"
        gen = ("gen", "--group", "so-even", "-m", "1", "--marked", "0,1,-1", "--deg-bound", "0")
        run(capsys, *gen, "--seed", "0", "-o", str(path))
        code, out, err = run(capsys, "analyze", str(path), "--format", "json")
        assert code == 1
        assert err == ""
        report = json.loads(out)
        assert report["checks"]["spectral"] == {"pass": False, "reason": "spectral curve is not reduced"}
        assert all(sec["pass"] for name, sec in report["checks"].items() if name != "spectral")
        assert not report["all_pass"]

    def test_text_report_prints_the_spectral_reason(self, capsys, monkeypatch):
        # gen ... | analyze -: the same double-line field as above, text report
        gen = ("gen", "--group", "so-even", "-m", "1", "--marked", "0,1,-1", "--deg-bound", "0")
        _, field, _ = run(capsys, *gen, "--seed", "0")
        monkeypatch.setattr("sys.stdin", io.StringIO(field))
        code, out, err = run(capsys, "analyze", "-")
        assert code == 1
        assert err == ""
        assert "\nspectral: FAIL\n  - spectral curve is not reduced\n" in out
        assert out.endswith("overall: FAIL\n")

    # so(2) field Phi = diag(t, -t) in the algebra of B = [[0, t+1], [t+1, 0]],
    # which degenerates at t = -1: det B = -(t + 1)^2
    NONCONSTANT_GRAM_FIELD = {
        "group": "so-even",
        "m": 1,
        "marked_points": ["0"],
        "gram": [[ZERO, {"num": ["1", "1"], "den": ["1"]}], [{"num": ["1", "1"], "den": ["1"]}, ZERO]],
        "matrix": [[{"num": ["0", "1"], "den": ["1"]}, ZERO], [ZERO, {"num": ["0", "-1"], "den": ["1"]}]],
    }
    GRAM_REASON = (
        "Gram determinant -1 - 2*t - t^2 is not constant; the SO(2m) singularity "
        "pattern needs a form that is non-degenerate at every t"
    )

    def test_nonconstant_gram_spectral_fails_with_reason(self, tmp_path, capsys):
        path = tmp_path / "so2.json"
        path.write_text(json.dumps(self.NONCONSTANT_GRAM_FIELD))
        code, out, err = run(capsys, "analyze", str(path), "--format", "json")
        assert code == 1
        assert err == ""
        report = json.loads(out)
        assert report["checks"]["spectral"] == {"pass": False, "reason": self.GRAM_REASON}
        assert all(sec["pass"] for name, sec in report["checks"].items() if name != "spectral")
        assert report["checks"]["pfaffian"]["unit"] == {"num": ["-1", "-2", "-1"], "den": ["1"]}
        assert not report["all_pass"]

    def test_nonconstant_gram_text_report_prints_the_reason(self, tmp_path, capsys):
        path = tmp_path / "so2.json"
        path.write_text(json.dumps(self.NONCONSTANT_GRAM_FIELD))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert err == ""
        assert f"\nspectral: FAIL\n  - {self.GRAM_REASON}\n" in out
        assert out.endswith("overall: FAIL\n")

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert run(capsys, "analyze", str(path))[0] == 2
        # JSON of the wrong shape is an input error too, on both commands
        zero = {"num": [], "den": ["1"]}
        field = {"group": "so-odd", "m": 1, "marked_points": ["0"], "matrix": [[zero] * 3 for _ in range(3)]}
        one_bad_entry = [[5, zero, zero], [zero] * 3, [zero] * 3]

        def with_entry(entry):
            return {**field, "matrix": [[entry, zero, zero], [zero] * 3, [zero] * 3]}

        # JSON null, booleans and floats are no integers and no "p/q" strings
        scalars = [{**field, "m": m} for m in (None, 1.5, True, 1.0)]
        scalars += [{**field, "marked_points": [a]} for a in (None, 0.5, False)]
        scalars += [with_entry({"num": [c], "den": ["1"]}) for c in (None, 0.1, True)]
        scalars += [with_entry({"num": [], "den": [1.0]})]
        scalars += [{**field, "gram": with_entry({"num": [None], "den": ["1"]})["matrix"]}]
        for doc in ([], "x", {**field, "matrix": 5}, {**field, "gram": 7}, {**field, "marked_points": 5},
                    {**field, "matrix": one_bad_entry}, *scalars):
            path.write_text(json.dumps(doc))
            for command in ("analyze", "reduce-odd"):
                code, _, err = run(capsys, command, str(path))
                assert (code, err.startswith("error: ")) == (2, True), (command, doc)
        # the documents above differ from a field in one place; integers and strings are read
        for doc in (field, {**field, "m": "1", "marked_points": [0]}, with_entry({"num": [0], "den": [1]})):
            path.write_text(json.dumps(doc))
            assert run(capsys, "analyze", str(path), "--checks", "membership")[0] == 0

    def test_pfaffian_on_sp_requested_explicitly_is_usage_error(self, sp_field, capsys):
        # the full list in the default order is an explicit request too
        for checks in ("pfaffian", ",".join(ALL_CHECKS)):
            code, _, err = run(capsys, "analyze", str(sp_field), "--checks", checks)
            assert code == 2
            assert "so-even" in err


class TestRationalFunctionsOnlyForOutput:
    """A field is held cleared over Z[t] and its JSON is written from
    integers: `gen`, `reduce-odd` and the algebraic checks make no
    RationalFunction."""

    @pytest.mark.parametrize("kind,m", [("sp", 1), ("sp", 2), ("so-odd", 1), ("so-odd", 2)])
    def test_counts(self, kind, m, tmp_path, capsys, monkeypatch):
        made = []
        original = RationalFunction.__init__

        def counting(self, *args, **kwargs):
            made.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(RationalFunction, "__init__", counting)
        path = tmp_path / "field.json"
        code, _, _ = run(capsys, "gen", "--group", kind, "-m", str(m), "--marked", "0,1/2",
                         "--seed", "3", "-o", str(path))
        assert (code, made) == (0, [])
        code, out, _ = run(capsys, "analyze", str(path), "--checks", "membership,parity,strong-parabolic")
        assert (code, made) == (0, [])
        assert out.endswith("overall: PASS\n")
        if kind == "so-odd":
            code, out, _ = run(capsys, "reduce-odd", str(path))
            assert (code, made) == (0, [])
            assert json.loads(out)["reduction_report"]["char_identity"] == "PASS"


# JSON coefficients: strings the fast path takes, strings only Fraction takes,
# strings nothing takes, JSON integers and the JSON values that are neither
PARSER_CASES = ["2/4", "-0", "0/5", "-12/8", "007", "+3", " 1/2", "0.5", "1e3", "1_000", "3/-4",
                "1/0", "1/00", "abc", "", "\u0663", 7, -3, 0, 2**70, None, True, False, 0.5, 2.0]


def fraction_oracle(x):
    """What Fraction makes of a JSON coefficient behind the JSON type check:
    the value, or the error."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        return ValueError(f"expected a JSON integer or string, not {x!r}")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        return exc


class TestCoefficientParser:
    """Every JSON coefficient parses as Fraction parses it: the same value, or
    the same error, exit code and stderr from `analyze`."""

    @pytest.mark.parametrize("x", PARSER_CASES, ids=repr)
    def test_agrees_with_fraction(self, x, tmp_path, capsys):
        want = fraction_oracle(x)
        path = tmp_path / "field.json"

        def analyze(coeff):
            entry = {"num": [coeff], "den": ["1"]}
            path.write_text(json.dumps({"group": "sp", "m": 1, "marked_points": ["0"],
                                        "matrix": [[entry, ZERO], [ZERO, ZERO]]}))
            return run(capsys, "analyze", str(path), "--checks", "charpoly", "--format", "json")

        entry = {"num": [x], "den": ["1"]}
        if isinstance(want, Exception):
            with pytest.raises(type(want)) as info:
                int_fraction_from_json(entry)
            assert str(info.value) == str(want)
            assert analyze(x) == (2, "", f"error: {want}\n")
        else:
            n, delta = int_fraction_from_json(entry)
            assert (Fraction(n[0], delta[0]) if n else 0) == want
            assert analyze(x) == analyze(str(want))


def trace_bumped(doc: dict) -> dict:
    """The field of doc with t added to Phi_00: trace Phi = t, so the
    characteristic polynomial is not even and Phi is off the algebra."""
    rows = [list(row) for row in HiggsField.from_dict(doc).matrix]
    x = rows[0][0]
    shifted = (0, *x.den.coeffs)  # t * den
    rows[0][0] = RationalFunction.make(UniPoly.make(map(sum, zip_longest(x.num.coeffs, shifted, fillvalue=0))), x.den)
    return {**doc, "matrix": [[{"num": [str(c) for c in y.num.coeffs], "den": [str(c) for c in y.den.coeffs]}
                               for y in row] for row in rows]}


def symmetric_so_even(m: int) -> dict:
    """Phi = t (E_0m + E_m0), [[0, t], [t, 0]] at m = 1: B*Phi = t (E_00 + E_mm)
    is symmetric, so Phi is off so(2m), while char = x^(2m-2) (x^2 - t^2) is even."""
    matrix = [[ZERO] * (2 * m) for _ in range(2 * m)]
    matrix[0][m] = matrix[m][0] = {"num": ["0", "1"], "den": ["1"]}
    return {"group": "so-even", "m": m, "marked_points": ["0"], "matrix": matrix}


OFF_ALGEBRA_BOUND_S = 10.0
OFF_ALGEBRA_CASES = [(kind, m, "trace") for kind in ("sp", "so-even", "so-odd") for m in (1, 2)]
OFF_ALGEBRA_CASES += [("sp", 4, "trace"), ("so-even", 1, "symmetric"), ("so-even", 2, "symmetric")]


class TestOffAlgebra:
    """A well-formed field off the Lie algebra gets a report and exit 1, never exit 2."""

    @pytest.mark.parametrize("kind,m,push", OFF_ALGEBRA_CASES)
    def test_default_analyze_reports_and_exits_1(self, kind, m, push, tmp_path, capsys):
        start = time.perf_counter()
        if push == "trace":
            _, field, _ = run(capsys, "gen", "--group", kind, "-m", str(m), "--marked", "0,1",
                              "--deg-bound", "1", "--seed", "0")
            doc = trace_bumped(json.loads(field))
            want = "char polynomial is not x * even" if kind == "so-odd" else "char polynomial is not even"
        else:
            doc = symmetric_so_even(m)
            want = NON_MEMBER
        path = tmp_path / "off.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", str(path), "--format", "json")
        assert (code, err) == (1, "")
        checks = json.loads(out)["checks"]
        assert checks["membership"] == {"pass": False}
        assert checks["spectral"] == {"pass": False, "reason": want}
        if kind == "so-even":
            assert checks["pfaffian"] == {"pass": False, "reason": NON_MEMBER}
        code, out, err = run(capsys, "analyze", str(path))
        assert (code, err) == (1, "")
        assert "\nmembership: FAIL\n" in out
        for name in ("pfaffian", "spectral"):
            if name in checks:
                assert f"\n{name}: FAIL\n  - {checks[name]['reason']}\n" in out
        assert out.endswith("overall: FAIL\n")
        assert time.perf_counter() - start < OFF_ALGEBRA_BOUND_S


def over_t_minus_1(num: str) -> dict:
    return {"num": [num], "den": ["-1", "1"]}


# well-formed fields whose characteristic coefficients have a pole the chart
# twist D = t cannot clear, so the spectral curve does not exist
POLE_FIELDS = {
    # Phi_01 = 1/(t - 1)
    "sp-pole-off-marked": ("sp", [[ZERO, over_t_minus_1("1")], [ONE, ZERO]]),
    # Phi_01 = 1/t^3
    "sp-triple-pole": ("sp", [[ZERO, {"num": ["1"], "den": ["0", "0", "0", "1"]}], [ONE, ZERO]]),
    # diag(1/(t - 1), -1/(t - 1))
    "so-even-pole-off-marked": ("so-even", [[over_t_minus_1("1"), ZERO], [ZERO, over_t_minus_1("-1")]]),
}
POLE_REASON = "s_2 * D^2 is not polynomial; pole outside the allowed order/locus"


class TestPoleOutsideAllowedOrder:
    """A forbidden pole of the characteristic coefficients fails the spectral
    section with its reason and exits 1, as strong-parabolic does."""

    @pytest.mark.parametrize("case", sorted(POLE_FIELDS))
    def test_default_analyze_reports_and_exits_1(self, case, tmp_path, capsys):
        kind, matrix = POLE_FIELDS[case]
        path = tmp_path / "pole.json"
        path.write_text(json.dumps({"group": kind, "m": 1, "marked_points": ["0"], "matrix": matrix}))
        code, out, err = run(capsys, "analyze", str(path), "--format", "json")
        assert (code, err) == (1, "")
        checks = json.loads(out)["checks"]
        assert checks["membership"] == {"pass": True}
        assert checks["spectral"] == {"pass": False, "reason": POLE_REASON}
        assert not checks["strong-parabolic"]["pass"]
        code, out, err = run(capsys, "analyze", str(path))
        assert (code, err) == (1, "")
        assert f"\nspectral: FAIL\n  - {POLE_REASON}\n" in out
        assert "\nstrong-parabolic: FAIL\n" in out
        assert out.endswith("overall: FAIL\n")


class TestReduceOdd:
    def test_reduce_then_analyze(self, tmp_path, capsys):
        src = tmp_path / "odd.json"
        red = tmp_path / "reduced.json"
        run(capsys, "gen", "--group", "so-odd", "-m", "1", "--marked", "0", "--deg-bound", "1", "--seed", "9", "-o", str(src))
        code, _, _ = run(capsys, "reduce-odd", str(src), "-o", str(red))
        assert code == 0
        doc = json.loads(red.read_text())
        assert doc["group"] == "sp"
        assert doc["reduction_report"]["char_identity"] == "PASS"
        assert doc["reduction_report"]["induced_gram_skew"] == "PASS"
        # skewness holds through the membership checker on the reduced field
        code, out, _ = run(capsys, "analyze", str(red), "--checks", "membership,parity")
        assert code == 0
        assert "membership: PASS" in out

    @pytest.mark.parametrize(
        "matrix",
        [
            [[{"num": ["0", "1"], "den": ["1"]}, ZERO, ZERO], [ZERO] * 3, [ZERO] * 3],
            [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]],
            [[ZERO, ONE, ZERO], [ZERO] * 3, [ZERO] * 3],
        ],
        ids=["diag-t", "identity", "e01"],
    )
    def test_non_member_exit_2(self, tmp_path, capsys, matrix):
        path = tmp_path / "odd.json"
        doc = {"group": "so-odd", "m": 1, "marked_points": ["0"], "matrix": matrix}
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "reduce-odd", str(path))
        assert code == 2
        assert out == ""
        assert "not in the Lie algebra" in err

    def test_wrong_group_exit_2(self, tmp_path, capsys):
        path = tmp_path / "sp.json"
        run(capsys, "gen", "--group", "sp", "-m", "1", "--marked", "0", "--seed", "2", "-o", str(path))
        code, _, err = run(capsys, "reduce-odd", str(path))
        assert code == 2
        assert "wrong group" in err


GEN_SP = ("gen", "--group", "sp", "-m", "1")


class TestArgumentErrors:
    """Every argument error exits 2 with one `error:` line and no output.
    Where two arguments are wrong, the message of the one checked first wins."""

    @pytest.mark.parametrize("argv,message", [
        (("sweep", "--groups", "sp,xx"), "unknown group 'xx'"),
        (("sweep", "-m", "1:2:3"), "-m: bad range '1:2:3'"),
        (("sweep", "-m", "3:1"), "-m: empty range '3:1'"),
        (("sweep", "-m", "x"), "-m: bad range 'x'"),
        (("dims", "--group", "sp", "-m", "1", "-g", "1", "-n", "1"), "need m >= 1, g >= 2, n >= 1"),
        (("dims", "--group", "sp", "-m", "0", "-g", "2", "-n", "1"), "need m >= 1, g >= 2, n >= 1"),
        (("sweep", "-n", "0"), "need m >= 1, g >= 2, n >= 1"),
        (("sweep", "--groups", "xx", "-m", "x"), "unknown group 'xx'"),
        (("sweep", "-m", "x", "-g", "y"), "-m: bad range 'x'"),
        (("sweep", "-g", "y", "-n", "z"), "-g: bad range 'y'"),
        (("sweep", "-m", "0", "-n", "z"), "-n: bad range 'z'"),
        (("gen", "--group", "sp", "-m", "1:3", "--marked", "0"), "gen takes a single m, not the range '1:3'"),
        (("gen", "--group", "sp", "-m", "1:3", "--marked", ","), "gen takes a single m, not the range '1:3'"),
        ((*GEN_SP, "--marked", ","), "need at least one marked point"),
        ((*GEN_SP, "--marked", "1/0"), "bad marked point '1/0'"),
        ((*GEN_SP, "--marked", ",", "--deg-bound", "-1"), "need at least one marked point"),
        ((*GEN_SP, "--marked", "0", "--deg-bound", "-1"), "degree bound must be >= 0"),
        ((*GEN_SP, "--marked", "0", "--deg-bound", "-1", "--seed", "-1"), "degree bound must be >= 0"),
        ((*GEN_SP, "--marked", "0", "--seed", "-1"), "seed must fit in 64 unsigned bits"),
        ((*GEN_SP, "--marked", "0", "--seed", str(2**64)), "seed must fit in 64 unsigned bits"),
        (("analyze", "{missing}", "--checks", "parity,nope"), "unknown checks: nope"),
        (("analyze", "{missing}", "--checks", "nope,parity,x"), "unknown checks: nope,x"),
        (("reduce-odd", "{missing}"), "[Errno 2] No such file or directory: '{missing}'"),
        (("sweep", "--groups", "sp,sp"), "--groups: repeated group 'sp'"),
        (("sweep", "--groups", "sp,so-odd,sp,xx"), "--groups: repeated group 'sp'"),
    ])
    def test_message(self, argv, message, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        argv = [arg.replace("{missing}", missing) for arg in argv]
        assert run(capsys, *argv) == (2, "", f"error: {message.replace('{missing}', missing)}\n")


class TestInputFiles:
    def test_input_file_is_closed(self, tmp_path, capsys):
        path = tmp_path / "odd.json"
        assert run(capsys, "gen", "--group", "so-odd", "-m", "1", "--marked", "0", "--seed", "9",
                   "-o", str(path))[0] == 0
        for argv in (("analyze", str(path), "--checks", "parity"), ("reduce-odd", str(path))):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert run(capsys, *argv)[0] == 0
                gc.collect()
            assert [w for w in caught if issubclass(w.category, ResourceWarning)] == [], argv


class TestRoundTrips:
    def test_field_json_roundtrip_through_cli(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        run(capsys, "gen", "--group", "so-odd", "-m", "2", "--marked", "0,1/2", "--seed", "1", "-o", str(path))
        doc = json.loads(path.read_text())
        fld = HiggsField.from_dict(doc)
        again = fld.to_dict()
        for key in ("group", "m", "marked_points", "matrix"):
            assert again[key] == doc[key]
