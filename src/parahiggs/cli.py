"""Command-line front end: generate fields, run checks, sweep dimensions.

Commands: dims, sweep, gen, analyze, reduce-odd.  Exit codes are a stable
contract: 0 all checks pass, 1 a verification failed, 2 usage/input error.
Inputs and outputs go through paths, with "-" meaning stdin/stdout; JSON
output is sorted and indented so identical runs are byte-identical.  It is
written by `_dump_json`, which gives the bytes of json.dumps(obj, indent=2,
sort_keys=True) without calling it: with `indent` set, Python 3.11's
json.dumps runs the pure-Python encoder.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .curves import (
    NonReducedCurveError,
    build_plane_curve,
    involution_check,
    ramification_degree_affine,
    smoothness_check,
    so_even_singularity_pattern,
    twisted_pfaffian,
)
from .dimensions import CSV_HEADER, DimensionReport, sweep_reports
from .groups import GROUP_KINDS, GroupError, GroupSpec
from .higgs import (
    HiggsField,
    NonGenericFieldError,
    PoleOrderError,
    marked_point,
    parity_classify,
    pfaffian_square_check,
    random_strongly_parabolic_higgs,
    so_odd_reduce,
    strong_parabolic_check,
)
from .poly import RationalFunction, fraction_writer

OK, CHECK_FAILED, USAGE_ERROR = 0, 1, 2

ALL_CHECKS = ("membership", "charpoly", "parity", "strong-parabolic", "pfaffian", "spectral")
NON_MEMBER = "field is not in the Lie algebra of its Gram form"


def parse_range(text: str, flag: str) -> range:
    """"3" -> 3..3, "1:4" -> 1..4 inclusive; `flag` names the argument in
    the error for a malformed or empty range."""
    lo, sep, hi = text.partition(":")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        raise ValueError(f"{flag}: bad range {text!r}") from None
    if hi < lo:
        raise ValueError(f"{flag}: empty range {text!r}")
    return range(lo, hi + 1)


def _read_input(path: str) -> dict:
    if path == "-":
        return json.loads(sys.stdin.read())
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write_output(path: str, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _dump_json(obj, margin: str = "\n") -> str:
    """The text of json.dumps(obj, indent=2, sort_keys=True) for a document
    of dicts with string keys, lists, tuples, strings, ints, booleans and
    None; any other value raises TypeError.  `margin` is the line break and
    indentation that close the current container.  json.dumps is not called
    because with `indent` set it runs the stdlib's pure-Python encoder, which
    cost more than the rest of writing a field; here strings go through the
    C escaper `encode_basestring_ascii` and each container is one join."""
    if type(obj) is str:
        return encode_basestring_ascii(obj)
    inner = margin + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{encode_basestring_ascii(k)}: "
            + (encode_basestring_ascii(v) if type(v) is str else _dump_json(v, inner))
            for k, v in sorted(obj.items())
        ]
        return "{" + inner + ("," + inner).join(items) + margin + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [encode_basestring_ascii(v) if type(v) is str else _dump_json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + margin + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# -- dims / sweep ---------------------------------------------------------------


def _format_reports(reports: list[DimensionReport], fmt: str) -> str:
    if fmt == "json":
        return _dump_json([r.to_dict() for r in reports])
    rows = [CSV_HEADER] + [r.to_csv_row() for r in reports]
    if fmt == "csv":
        return "\n".join(rows)
    header, *body = ["| " + row.replace(",", " | ") + " |" for row in rows]
    rule = "|" + "---|" * len(CSV_HEADER.split(","))
    return "\n".join([header, rule, *body])


def _run_suite(args: argparse.Namespace) -> int:
    """`sweep_reports` over the group kinds and the m, g and n ranges, each
    checked first; a bad argument raises ValueError."""
    kinds = (args.group,) if args.command == "dims" else tuple(args.groups.split(","))
    if "" in kinds:  # only from --groups: argparse checks dims --group
        raise ValueError(f"--groups: empty group name in {args.groups!r}")
    for i, kind in enumerate(kinds):
        if kind not in GROUP_KINDS:
            raise ValueError(f"unknown group {kind!r}")
        if kind in kinds[:i]:
            raise ValueError(f"--groups: repeated group {kind!r}")
    ms, gs, ns = parse_range(args.m, "-m"), parse_range(args.g, "-g"), parse_range(args.n, "-n")
    if ms[0] < 1 or gs[0] < 2 or ns[0] < 1:
        raise ValueError("need m >= 1, g >= 2, n >= 1")
    reports = sweep_reports(kinds, ms, gs, ns, args.deg_m)
    _write_output(args.output, _format_reports(reports, args.format))
    return OK if all(r.passed for r in reports) else CHECK_FAILED


# -- gen --------------------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    ms = parse_range(args.m, "-m")
    if len(ms) != 1:
        raise ValueError(f"gen takes a single m, not the range {args.m!r}")
    parts = args.marked.split(",")
    if not any(parts):
        raise ValueError("need at least one marked point")
    if "" in parts:
        raise ValueError(f"--marked: empty marked point in {args.marked!r}")
    marked = tuple(marked_point(part) for part in parts)
    if args.deg_bound < 0:
        raise ValueError("degree bound must be >= 0")
    if not 0 <= args.seed < 2**64:
        raise ValueError("seed must fit in 64 unsigned bits")
    group = GroupSpec(args.group, ms[0])
    sys.set_int_max_str_digits(0)  # input parsed: exact results may pass 4300 digits
    fld = random_strongly_parabolic_higgs(group, marked, args.deg_bound, args.seed)
    doc = fld.to_dict()
    doc["seed"] = args.seed
    doc["degree_bound"] = args.deg_bound
    _write_output(args.output, _dump_json(doc))
    return OK


# -- analyze ----------------------------------------------------------------------


def _spectral_section(fld: HiggsField) -> dict:
    group = fld.group
    if not parity_classify(fld.char_data, group).passed:
        even = "x * even" if group.kind == "so-odd" else "even"
        return {"pass": False, "reason": f"char polynomial is not {even}"}
    if group.kind == "so-even":
        if not fld.is_member:
            return {"pass": False, "reason": NON_MEMBER}
        num, den = fld.gram.det
        if [c * den[-1] for c in num] != [c * num[-1] for c in den]:  # det B' / E^n constant
            return {
                "pass": False,
                "reason": f"Gram determinant {RationalFunction.from_ints(num, den)} is not constant; "
                          "the SO(2m) singularity pattern needs a form that is non-degenerate at every t",
            }
        det_b = Fraction(num[-1], den[-1])
    try:
        curve = build_plane_curve(fld)
    except PoleOrderError as exc:
        return {"pass": False, "reason": str(exc)}
    try:
        smooth = smoothness_check(curve)
    except NonReducedCurveError:
        return {"pass": False, "reason": "spectral curve is not reduced"}
    out: dict = {
        "involution": involution_check(curve),
        "smoothness": smooth.to_dict(),
        "affine_ramification_degree": ramification_degree_affine(curve),
    }
    ok = out["involution"]
    if group.kind == "so-even":
        pattern = so_even_singularity_pattern(curve, twisted_pfaffian(fld), det_b)
        out["singularity_pattern"] = {
            "pass": pattern.passed,
            "count": pattern.count,
            "witnesses": [[str(a), str(b)] for a, b in pattern.witnesses],
        }
        ok = ok and pattern.passed
    out["pass"] = ok
    return out


def _analyze_field(fld: HiggsField, checks: tuple[str, ...]) -> dict:
    report: dict = {
        "group": fld.group.kind,
        "m": fld.group.m,
        "marked_points": [str(a) for a in fld.marked_points],
        "checks": {},
    }
    for name in checks:
        if name == "membership":
            section = {"pass": fld.is_member}
        elif name == "charpoly":
            write = fraction_writer(fld.char_data.delta, fld.marked_points)
            section = {"pass": True, "coefficients": [write(e, i) for i, e in enumerate(fld.char_data.e, 1)]}
        elif name == "parity":
            parity = parity_classify(fld.char_data, fld.group)
            section = {"pass": parity.passed}
            if not parity.passed:
                section["first_odd_index"] = parity.first_odd_index
        elif name == "strong-parabolic":
            strong = strong_parabolic_check(fld)
            section = {"pass": strong.passed, "failures": list(strong.failures)}
        elif name == "pfaffian" and not fld.is_member:
            section = {"pass": False, "reason": NON_MEMBER}
        elif name == "pfaffian":
            pf = pfaffian_square_check(fld)
            section = {
                "pass": pf.passed,
                "pfaffian": fraction_writer(pf.pfaffian[1], fld.marked_points)(pf.pfaffian[0]),
                "unit": fraction_writer(pf.unit[1], fld.marked_points)(pf.unit[0]),
            }
        else:  # spectral
            section = _spectral_section(fld)
        report["checks"][name] = section
    report["all_pass"] = all(sec["pass"] for sec in report["checks"].values())
    return report


def _format_analysis(report: dict, fmt: str) -> str:
    if fmt == "json":
        return _dump_json(report)
    lines = [f"field: {report['group']} m={report['m']} marked={report['marked_points']}"]
    for name, sec in report["checks"].items():
        lines.append(f"{name}: {'PASS' if sec['pass'] else 'FAIL'}")
        if "reason" in sec:
            lines.append(f"  - {sec['reason']}")
        for failure in sec.get("failures", []):
            lines.append(f"  - {failure}")
    lines.append("overall: " + ("PASS" if report["all_pass"] else "FAIL"))
    return "\n".join(lines)


def cmd_analyze(args: argparse.Namespace) -> int:
    checks = None if args.checks is None else tuple(args.checks.split(","))
    if checks and "" in checks:
        raise ValueError(f"--checks: empty check name in {args.checks!r}")
    bad = [c for c in checks or () if c not in ALL_CHECKS]
    if bad:
        raise ValueError(f"unknown checks: {','.join(bad)}")
    fld = HiggsField.from_dict(_read_input(args.input))
    if checks is None:  # every check that applies to the group
        checks = tuple(c for c in ALL_CHECKS if c != "pfaffian" or fld.group.kind == "so-even")
    elif "pfaffian" in checks and fld.group.kind != "so-even":
        raise GroupError("pfaffian check applies to so-even fields only")
    sys.set_int_max_str_digits(0)  # input parsed: exact results may pass 4300 digits
    report = _analyze_field(fld, checks)
    _write_output(args.output, _format_analysis(report, args.format))
    return OK if report["all_pass"] else CHECK_FAILED


# -- reduce-odd ---------------------------------------------------------------------


def cmd_reduce_odd(args: argparse.Namespace) -> int:
    fld = HiggsField.from_dict(_read_input(args.input))
    if fld.group.kind != "so-odd":
        raise GroupError("wrong group: reduce-odd needs an so-odd field")
    sys.set_int_max_str_digits(0)  # input parsed: exact results may pass 4300 digits
    red = so_odd_reduce(fld)
    reduced_field = HiggsField(
        GroupSpec.sp(fld.group.m), red.induced_gram, red.reduced, fld.marked_points
    )
    full = fld.char_data
    char_ok = not full.e[-1] and full.x_cofactor().same_sections(reduced_field.char_data)
    doc = reduced_field.to_dict()
    doc["reduction_report"] = {
        "kernel_vector": [[str(c) for c in p] for p in red.kernel_vector],
        "removed_index": red.removed_index,
        "char_identity": "PASS" if char_ok else "FAIL",
        "induced_gram_skew": "PASS",  # enforced by construction, or we'd have raised
    }
    _write_output(args.output, _dump_json(doc))
    return OK if char_ok else CHECK_FAILED


# -- argument parsing -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parahiggs",
        description="Exact checks for symplectic/orthogonal parabolic Higgs fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dims = sub.add_parser("dims", help="dimension identity chain for one group")
    dims.add_argument("--group", required=True, choices=GROUP_KINDS)
    dims.add_argument("-m", required=True, help="m or m-range lo:hi")
    dims.add_argument("-g", required=True, help="genus or range lo:hi")
    dims.add_argument("-n", required=True, help="marked-point count or range lo:hi")
    dims.add_argument("--deg-m", type=int, default=0, help="degree of the twisting bundle M")
    dims.add_argument("--format", default="csv", choices=("json", "csv", "md"))
    dims.add_argument("-o", "--output", default="-")

    sweep = sub.add_parser("sweep", help="identity chain over a parameter box")
    sweep.add_argument("--groups", default="sp,so-even,so-odd")
    sweep.add_argument("-m", default="1:4")
    sweep.add_argument("-g", default="2:6")
    sweep.add_argument("-n", default="1:4")
    sweep.add_argument("--deg-m", type=int, default=0)
    sweep.add_argument("--format", default="csv", choices=("json", "csv", "md"))
    sweep.add_argument("-o", "--output", default="-")

    gen = sub.add_parser("gen", help="generate a random strongly parabolic field")
    gen.add_argument("--group", required=True, choices=GROUP_KINDS)
    gen.add_argument("-m", required=True, help="group parameter m")
    gen.add_argument(
        "--marked", required=True,
        help='comma-separated rational points; write a list that starts with "-" as --marked=-2,2/3',
    )
    gen.add_argument("--deg-bound", type=int, default=1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", default="-")

    analyze = sub.add_parser("analyze", help="run checkers on a field JSON")
    analyze.add_argument("input", nargs="?", default="-")
    analyze.add_argument("--checks", default=None, help=f"subset of {','.join(ALL_CHECKS)}")
    analyze.add_argument("--format", default="text", choices=("json", "text"))
    analyze.add_argument("-o", "--output", default="-")

    reduce_odd = sub.add_parser("reduce-odd", help="kernel-quotient reduction of an so-odd field")
    reduce_odd.add_argument("input", nargs="?", default="-")
    reduce_odd.add_argument("-o", "--output", default="-")
    return parser


_HANDLERS = {
    "dims": _run_suite,
    "sweep": _run_suite,
    "gen": cmd_gen,
    "analyze": cmd_analyze,
    "reduce-odd": cmd_reduce_odd,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    bound = sys.get_int_max_str_digits()  # gen, analyze and reduce-odd lift it after parsing
    try:
        return _HANDLERS[args.command](args)
    except NonGenericFieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_FAILED
    except (ValueError, KeyError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    finally:
        sys.set_int_max_str_digits(bound)


if __name__ == "__main__":
    sys.exit(main())
