#!/usr/bin/env python3
"""Sweep the dimension identity chain over a parameter box and print a table.

Example:
    python3 scripts/run_dimension_sweep.py -m 1:4 -g 2:6 -n 1:4 --format md
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from parahiggs.cli import format_reports, run_sweep  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--groups", default="sp,so-even,so-odd")
    ap.add_argument("-m", default="1:4")
    ap.add_argument("-g", default="2:6")
    ap.add_argument("-n", default="1:4")
    ap.add_argument("--deg-m", type=int, default=0)
    ap.add_argument("--format", default="md", choices=("json", "csv", "md"))
    args = ap.parse_args()

    t0 = time.perf_counter()
    try:
        reports = run_sweep(args.groups.split(","), args.m, args.g, args.n, args.deg_m)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - t0
    print(format_reports(reports, args.format))
    failed = [r for r in reports if not r.passed]
    print(
        f"\n{len(reports)} tuples in {elapsed * 1e3:.1f} ms, "
        f"{len(reports) - len(failed)} passed, {len(failed)} failed",
        file=sys.stderr,
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
