#!/usr/bin/env python3
"""Generate seeded random fields for all three groups and tally the checkers.

A quick confidence run outside the test suite; everything is exact, so any
nonzero failure count is a bug, not noise.  A bad argument prints
`error: <message>` and exits 2.

Example:
    python3 scripts/random_field_audit.py --samples 30 --seed 7
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from parahiggs.curves import build_plane_curve, involution_check  # noqa: E402
from parahiggs.groups import GroupSpec  # noqa: E402
from parahiggs.higgs import (  # noqa: E402
    parity_classify,
    pfaffian_square_check,
    random_strongly_parabolic_higgs,
    strong_parabolic_check,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-m", type=int, default=2)
    ap.add_argument("--deg-bound", type=int, default=2)
    args = ap.parse_args()
    for flag, value, low in (("--samples", args.samples, 1), ("--max-m", args.max_m, 1),
                             ("--deg-bound", args.deg_bound, 0)):
        if value < low:
            print(f"error: {flag} must be >= {low}", file=sys.stderr)
            return 2

    failures = 0
    for kind in ("sp", "so-even", "so-odd"):
        t0 = time.perf_counter()
        tallies = {"membership": 0, "parabolic": 0, "parity": 0, "involution": 0, "pfaffian": 0}
        for i in range(args.samples):
            m = 1 + (i % args.max_m)
            fld = random_strongly_parabolic_higgs(
                GroupSpec(kind, m), [0, 1], args.deg_bound, seed=args.seed + i
            )
            tallies["membership"] += fld.is_member
            tallies["parabolic"] += strong_parabolic_check(fld).passed
            parity = parity_classify(fld.char_data, fld.group)
            tallies["parity"] += parity.passed
            # for so-odd the curve is that of the even cofactor char/x, which needs parity
            if kind != "so-odd" or parity.passed:
                tallies["involution"] += involution_check(build_plane_curve(fld))
            if kind == "so-even":
                tallies["pfaffian"] += pfaffian_square_check(fld).passed
        elapsed = time.perf_counter() - t0
        expect = {k: args.samples for k in tallies}
        expect["pfaffian"] = args.samples if kind == "so-even" else 0
        line = ", ".join(f"{k}={v}/{expect[k]}" for k, v in tallies.items() if expect[k])
        print(f"{kind:8s} {line}  ({elapsed:.1f} s)")
        failures += sum(expect[k] - v for k, v in tallies.items() if expect[k])
    print("clean" if failures == 0 else f"{failures} FAILURES")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
