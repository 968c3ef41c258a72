#!/usr/bin/env python3
"""Build spectral_fields.json, the fields the spectral-certify workload analyzes.

    python3 perfbench/make_catalogue.py

Run from the repository root.  For every stratum (group, m in 1..2, marked-point
count 1..3, degree bound 0..2) it tries `gen` seeds from a fixed stream and
keeps the first fields on which `analyze --format json` (default checks,
spectral curve included) exits 0 with every check passing within CAP_S
reference seconds: four fields per m=1 stratum, two per m=2 stratum, out of
at most MAX_TRIES seeds.  A field whose analysis takes longer (the exponential
witness search of ROADMAP item 3) or whose curve is non-reduced (exit 2) is
skipped, so every op of the workload ends in a verdict; the file counts the
skipped fields per stratum and outcome, and a stratum may stay short.
Rebuild it when `gen`'s seeded output changes.
"""

from __future__ import annotations

import itertools
import json
import random
import sys

import run

CAP_S = 1.0  # reference seconds
COPIES = {1: 4, 2: 2}
MAX_TRIES = 24
CATALOGUE = run.CATALOGUE


class Candidates:
    check = run.SpectralCertify.check

    def sizes(self, op, results):
        return {}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    cli = run.load_cli()
    speed = run.SpeedProbe()
    speed.sample()
    checker = Candidates()
    entries, skipped = [], {}
    with run.Deadline():
        for g, m, k, deg in itertools.product(run.GROUPS, (1, 2), range(1, 4), range(3)):
            rng = random.Random(f"catalogue:{g}:{m}:{k}:{deg}")
            subsets = [list(c) for c in itertools.combinations(run.POINTS, k)]
            kept = 0
            for attempt in range(MAX_TRIES):
                gen = run._gen_argv(g, m, subsets[attempt % len(subsets)], deg, rng.randrange(2**32))
                code, out, err = run.call_cli(cli, gen, "")
                if code != 0:
                    raise RuntimeError(f"{' '.join(gen)} exited {code}: {err.strip()}")
                op = run.Op(" ".join(gen[1:]), run.SpectralCertify.STEPS, out)
                [rec] = run.measure(cli, checker, [(0, op)], speed, deadline_s=CAP_S)
                print(f"{op.key:60s} {rec.outcome:9s} {rec.ref_s:7.3f} ref s  {rec.verdict}", flush=True)
                if rec.outcome != "ok":
                    stratum = f"{g} m{m} k{k} d{deg}: {rec.outcome}"
                    skipped[stratum] = skipped.get(stratum, 0) + 1
                    continue
                entries.append(gen)
                kept += 1
                if kept == COPIES[m]:
                    break
    fields = ",\n".join("  " + json.dumps(e) for e in entries)
    CATALOGUE.write_text(f'{{"cap_ref_s": {CAP_S}, "max_tries": {MAX_TRIES},\n'
                         f' "skipped": {json.dumps(skipped, indent=1)},\n "fields": [\n{fields}\n]}}\n')
    print(f"{len(entries)} fields written to {CATALOGUE.name}; skipped: {skipped}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
