#!/usr/bin/env python3
"""Report the two readings of the so-even Pfaffian coefficient space.

The top invariant coefficient of an so(2m) field is the square of a
Pfaffian.  Placing that Pfaffian in K(D)^m (the "literal" reading) makes
the section count exceed the closed-form dim H by exactly n on every
tuple; placing it in K^m(D^(m-1)) (forced by s_2m in K^2m(D^(2m-1)) and
s_2m = p^2) reproduces the closed form.  This script renders that
comparison as a table so the discrepancy stays documented instead of
silently patched.  A bad argument prints `error: <message>` and exits 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from parahiggs.cli import parse_range  # noqa: E402
from parahiggs.dimensions import pfaffian_space_discrepancy  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-m", default="1:4")
    ap.add_argument("-g", default="2:6")
    ap.add_argument("-n", default="1:4")
    ap.add_argument("-o", "--output", default="-")
    args = ap.parse_args()

    try:
        rows = pfaffian_space_discrepancy(
            parse_range(args.m, "-m"), parse_range(args.g, "-g"), parse_range(args.n, "-n")
        )
    except ValueError as exc:  # a malformed range, m < 1, g < 2 or n < 1
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lines = [
        "| m | g | n | literal K(D)^m | adopted K^m(D^(m-1)) | closed form | excess |",
        "|---|---|---|---|---|---|---|",
    ]
    for r in rows:
        lines.append(
            f"| {r.m} | {r.g} | {r.n} | {r.literal_dim} | {r.adopted_dim} "
            f"| {r.closed_form} | {r.excess} |"
        )
    bad = [r for r in rows if r.excess != r.n or r.adopted_dim != r.closed_form]
    lines.append("")
    lines.append(
        f"{len(rows)} tuples: adopted reading matches the closed form on all; "
        f"literal reading exceeds it by exactly n on "
        f"{'all' if not bad else len(rows) - len(bad)} tuples."
    )
    text = "\n".join(lines) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text, encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
