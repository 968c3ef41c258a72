#!/usr/bin/env python3
"""parahiggs benchmark: closed-loop CLI workloads with output checks and tracing.

    python3 perfbench/run.py --workload field-audit --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root.  Every op calls `parahiggs.cli.main` in-process
with the argv a user would type, piping one command's stdout into the next
command's stdin as `parahiggs gen ... | parahiggs analyze -` would, so the
CLI's argparse and JSON/CSV layer is inside the measured path.  One client,
one thread, one process: the next op starts when the last one ends.

Inputs come only from `--seed`.  A workload's ops come in rounds: a round is a
stratified set (every group and m, with balanced marked-point counts and
degree bounds) whose order lets the m values take turns.  The fields of round
r are the same for every seed and the seed sets their order, so every run
measures the same work; dimension-sweep draws its boxes from the seed.
Every op of every workload ends in a verdict: spectral-certify analyzes the
fixed fields of spectral_fields.json (see make_catalogue.py), because some
fields' witness search (ROADMAP item 3), the README example's among them,
gives no verdict within minutes.  That example is still run once per
spectral-certify run, outside the measured ops, under a short deadline, and
its outcome is printed.

An untraced run measures whole rounds until `--seconds` reference seconds
(below) of op time have passed, so every run measures its rounds' full mix
whatever the machine's speed, and reports the end-to-end metrics.  Output
checks and digests run outside the timed region.  With `--trace 1` the run
times the same rounds untraced, then the ops that finished again with
wrappers around the public functions of every parahiggs module (tracer.py),
and reports the per-layer metrics and the tracing overhead.

Times are in reference seconds.  A CPU shared with other tenants can change
speed by 2x within a minute, and a plain wall-clock time moves with it.  So
between ops, about every PROBE_EVERY_S of op time, the benchmark times a fixed
pure-Python kernel that uses no parahiggs code (`SpeedProbe`).  An op's
reference seconds are its wall seconds divided by the machine's slowdown
(kernel time over PROBE_REF_S) sampled just before and just after it: the time
the op would take at the kernel's reference speed.  Per-op deadlines are in
reference seconds too.  The report also prints the plain wall-clock figures.
A set-up's reference time also rests on the samples taken between its `gen`
calls.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
Each run also writes `.bench_out/<workload>-seed<seed>-trace<t>.json` with
every op's outcome, time and input sizes (and, traced, a gzipped span dump).
"""

from __future__ import annotations

import argparse
import collections
import gc
import hashlib
import importlib
import io
import itertools
import json
import math
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from tracer import Stat, Tracer, q_bits

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
CATALOGUE = Path(__file__).resolve().parent / "spectral_fields.json"  # built by make_catalogue.py

SETUP_REPEATS = 3  # set up at least this often, and for at least SETUP_MIN_S
SETUP_MIN_S = 1.0
HARD_CAP_S = 110.0  # wall seconds of op time after which a run stops, even mid-round
LIFTED_DEADLINE_S = 60.0  # traced ops that finished in the untraced replay
README_PROBE_S = 0.5  # reference seconds the README example gets, once per spectral-certify run
# Speed probe: PROBE_REF_S is the kernel's median time at reference speed
# (Intel Xeon 2-vCPU VM, CPython 3.11, when that machine ran at its fastest).
PROBE_REF_S = 0.00090
PROBE_REPS = 5
PROBE_EVERY_S = 0.25
POINTS = ("0", "1", "-1")
GROUPS = ("sp", "so-even", "so-odd")
SWEEP_HEADER = "group,m,g,n,dimH,dimM,prym,dimN,verdict"
README_FIELD = ["gen", "--group", "sp", "-m", "2", "--marked", "0,1", "--deg-bound", "2", "--seed", "42"]
# Failed ops: no verdict in time, a refusal (unexpected exit code), a wrong
# verdict or output, or a crash.  Only the last two make a run incorrect.
FAILED_OUTCOMES = ("deadline", "exit", "check", "error")
INCORRECT_OUTCOMES = ("check", "error")


# -- running the CLI in-process -----------------------------------------------


class DeadlineExceeded(BaseException):
    """Raised from SIGALRM.  A BaseException, so cli.main's handlers let it through."""


class Deadline:
    """Per-op wall-clock limit from an interval timer (ITIMER_REAL / SIGALRM)."""

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._fire)
        return self

    def __exit__(self, *exc):
        self.disarm()
        signal.signal(signal.SIGALRM, self._saved)

    @staticmethod
    def _fire(signum, frame):
        raise DeadlineExceeded()

    @staticmethod
    def arm(seconds: float) -> None:
        signal.setitimer(signal.ITIMER_REAL, seconds)

    @staticmethod
    def disarm() -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _probe_kernel() -> int:
    """Fixed work in the program's style: Fraction products, big-int gcds, a str-keyed dict."""
    a = [Fraction(7 * i + 3, i + 2) for i in range(16)]
    b = [Fraction(5 - 3 * i, 2 * i + 3) for i in range(16)]
    prod = [Fraction(0)] * 31
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    acc, table = 0, {}
    for k in range(400):
        acc = math.gcd(acc + k * k * 2654435761, 10**30 + 57)
        table[str(k)] = acc
    return len(table) + prod[15].numerator % 97


class SpeedProbe:
    """The machine's slowdown against reference speed, sampled between ops.

    A sample is the median of PROBE_REPS timings of `_probe_kernel` over
    PROBE_REF_S: 1.0 at reference speed, 2.0 at half speed.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.since_s = 0.0  # wall seconds of timed work since the last sample
        self.probe_s = 0.0  # wall seconds spent sampling

    def sample(self) -> int:
        """Take a sample; returns its index."""
        times = []
        for _ in range(PROBE_REPS):
            start = time.perf_counter()
            _probe_kernel()
            times.append(time.perf_counter() - start)
        self.samples.append(statistics.median(times) / PROBE_REF_S)
        self.probe_s += sum(times)
        self.since_s = 0.0
        return len(self.samples) - 1

    def after(self, wall_s: float) -> None:
        """Count `wall_s` seconds of timed work; sample if PROBE_EVERY_S has passed since the last sample."""
        self.since_s += wall_s
        if self.since_s >= PROBE_EVERY_S:
            self.sample()

    def slowdown(self, before: int) -> float:
        """Mean slowdown of sample `before` and the sample after it."""
        return statistics.fmean(self.samples[before:before + 2])


def call_cli(cli, argv: list[str], stdin: str) -> tuple[int, str, str]:
    """One `parahiggs <argv>` invocation: stdin text in, (exit code, stdout, stderr) out."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@dataclass
class Op:
    """A pipeline `argvs[0] | argvs[1] | ...`; a step runs only if the one before exited 0."""

    key: str
    argvs: list[list[str]]
    stdin: str = ""
    meta: dict = field(default_factory=dict)

    def input_bytes(self) -> bytes:
        return json.dumps([self.argvs, self.stdin]).encode()


def run_chain(cli, op: Op, results: list) -> None:
    stdin = op.stdin
    for argv in op.argvs:
        code, out, err = call_cli(cli, argv, stdin)
        results.append((code, out, err))
        if code != 0:
            return
        stdin = out


@dataclass
class OpRecord:
    key: str
    round: int
    seconds: float  # wall
    outcome: str  # ok | non-generic | deadline | exit | check | error
    detail: str = ""
    verdict: str = ""
    sizes: dict = field(default_factory=dict)
    digest: str = ""  # of the exit codes and stdout; empty for a deadline-cut op
    ref_s: float = 0.0  # seconds at reference speed

    def completed(self) -> bool:
        return self.outcome not in FAILED_OUTCOMES


def run_op(cli, workload, op: Op, round_no: int, deadline_s: float, tracer=None, op_id: int = 0) -> OpRecord:
    """Time one op under a deadline in wall seconds, then check its outputs outside the timed region."""
    results: list = []
    outcome = detail = ""
    if tracer is not None:
        tracer.begin_op(op_id)
    start = time.perf_counter()
    try:
        Deadline.arm(deadline_s)
        try:
            run_chain(cli, op, results)
        finally:
            Deadline.disarm()
    except DeadlineExceeded:
        outcome, detail = "deadline", f"no verdict within {deadline_s:.3g} wall s"
    except Exception as exc:  # a crash is a failed op; the run goes on
        outcome, detail = "error", repr(exc)
    seconds = time.perf_counter() - start
    rec = OpRecord(op.key, round_no, seconds, outcome, detail)
    if tracer is not None:
        calls, values, covered = tracer.end_op()
        rec.sizes["trace"] = {
            "covered_s": covered,
            "calls": {k: calls[k] for k in ("bipoly.discriminant_x", "curves.twisted_curve") if calls[k]},
            "disc_deg": values.get(("bipoly.discriminant_x", "out_deg_max")),
            "disc_bits": values.get(("bipoly.discriminant_x", "out_bits_max")),
        }
    if outcome != "deadline":
        digest = hashlib.sha256()
        for code, out, _ in results:
            digest.update(f"{code}\n".encode() + out.encode())
        rec.digest = digest.hexdigest()
    if not outcome:
        try:
            rec.outcome, rec.detail, rec.verdict = workload.check(op, results)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            rec.outcome, rec.detail = "check", f"unreadable output: {exc!r}"
    rec.sizes.update(workload.sizes(op, results))
    return rec


# -- input sizes ---------------------------------------------------------------


def _pmul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _pdiv_exact(a: list, b: list) -> list:
    a, q = list(a), [Fraction(0)] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = a[k + len(b) - 1] / b[-1]
        for j, y in enumerate(b):
            a[k + j] -= q[k] * y
    if any(a):
        raise ValueError("denominator does not divide the marked-point polynomial")
    return q


def field_sizes(doc: dict) -> dict:
    """Group, m, rank, marked-point count, and the max t-degree and coefficient
    bits of the cleared matrix d(t) * Phi(t), d = prod (t - a_k)."""
    d = [Fraction(1)]
    for a in doc["marked_points"]:
        d = _pmul(d, [-Fraction(a), Fraction(1)])
    tdeg = bits = 0
    for row in doc["matrix"]:
        for entry in row:
            num = [Fraction(c) for c in entry["num"]]
            if not any(num):
                continue
            cleared = _pmul(num, _pdiv_exact(d, [Fraction(c) for c in entry["den"]]))
            tdeg = max(tdeg, len(cleared) - 1)
            bits = max(bits, max(q_bits(c) for c in cleared))
    return {
        "group": doc["group"],
        "m": doc["m"],
        "rank": len(doc["matrix"]),
        "marked": len(doc["marked_points"]),
        "tdeg_max": tdeg,
        "bits_max": bits,
    }


# -- workloads -------------------------------------------------------------------


def _gen_argv(group: str, m: int, points: list[str], deg: int, seed: int) -> list[str]:
    return ["gen", "--group", group, "-m", str(m), "--marked", ",".join(points), "--deg-bound", str(deg), "--seed", str(seed)]


def _point_sets(rng: random.Random, k: int, n: int) -> list[list[str]]:
    """n marked-point sets of size k taking every k-subset of POINTS in turn,
    in shuffled order: the point set moves an op's cost as much as the
    generator seed does, so a stratum's fields are balanced over point sets."""
    subsets = [list(c) for c in itertools.combinations(POINTS, k)]
    rng.shuffle(subsets)
    return [subsets[i % len(subsets)] for i in range(n)]


def interleave(rng: random.Random, lists: list[list]) -> list:
    """Shuffle each list, then merge them in proportion to their lengths, so
    every prefix of the result holds each list's share of items."""
    keyed = []
    for j, items in enumerate(lists):
        items = list(items)
        rng.shuffle(items)
        keyed += [((i + 0.5) / len(items), j, item) for i, item in enumerate(items)]
    return [item for _, _, item in sorted(keyed, key=lambda x: x[:2])]


def _json_out(results, step: int) -> dict:
    return json.loads(results[step][1])


def _exit_outcome(results, steps: int) -> tuple[str, str, str] | None:
    """None when every step ran and exited 0.  Exit 1 with output is a FAIL
    verdict (a wrong answer on a generated field); any other exit is a refusal."""
    code, out, err = results[-1]
    if code == 0 and len(results) == steps:
        return None
    if code == 1 and out:
        return "check", f"step {len(results)} exited 1: a check failed", ""
    return "exit", f"step {len(results)} exited {code}: {err.strip()}", ""


class _FreshRounds:
    """Workloads whose rounds are made as they are reached, from (seed, round number)."""

    def __init__(self, cli, seed: int, speed: SpeedProbe):
        self.seed = seed
        self.first_round = self._make_round(0)

    def round(self, r: int) -> list[Op]:
        return self.first_round if r == 0 else self._make_round(r)


class FieldAudit(_FreshRounds):
    """`gen | analyze` with the algebraic checks.  Round r's fields are the
    same for every seed, so that every run measures the same fields; the seed
    sets their order.  (Fresh fields per seed moved the median and the tail
    by about 10% from seed to seed.)"""

    name = "field-audit"
    deadline_s = 60.0

    def _make_round(self, r: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{r}")
        # per group and m, three fields whose marked-point counts 1..3 and
        # degree bounds 0..2 each come once (a Latin square); three times
        # that for m=2, so the median falls inside the m=2 ops and not on the
        # m=2/m=3 boundary.  The m values take turns, since m sets most of an
        # op's cost.
        by_m = []
        for m, copies in ((1, 1), (2, 3), (3, 1), (4, 1)):
            ops = []
            for g in GROUPS:
                checks = "membership,charpoly,parity,strong-parabolic" + (",pfaffian" if g == "so-even" else "")
                for _ in range(copies):
                    for k, deg in zip(range(1, 4), rng.sample(range(3), 3)):
                        points = sorted(rng.sample(POINTS, k), key=POINTS.index)
                        gen = _gen_argv(g, m, points, deg, rng.randrange(2**32))
                        analyze = ["analyze", "-", "--checks", checks, "--format", "json"]
                        ops.append(Op(f"r{r}:{g}:m{m}:k{k}:d{deg}:{len(ops)}", [gen, analyze],
                                      meta={"group": g, "m": m, "checks": checks}))
            by_m.append(ops)
        return interleave(random.Random(f"{self.name}:{self.seed}:{r}"), by_m)

    def warmup_op(self) -> Op:
        return min(self.first_round, key=lambda op: op.meta["m"])

    def check(self, op, results):
        bad = _exit_outcome(results, 2)
        if bad:
            return bad
        fld, report = _json_out(results, 0), _json_out(results, 1)
        if (fld["group"], fld["m"]) != (op.meta["group"], op.meta["m"]):
            return "check", "gen wrote another group or m", ""
        if sorted(report["checks"]) != sorted(op.meta["checks"].split(",")):
            return "check", "analyze ran other checks than asked", ""
        if report["all_pass"] is not True:
            return "check", "a structural law failed on a generated field", ""
        return "ok", "", "PASS"

    def sizes(self, op, results):
        if results and results[0][0] == 0:
            return field_sizes(json.loads(results[0][1]))
        return {}


class _GeneratedFields(_FreshRounds):
    """Workloads whose fields come from `gen`: round 0 during set-up, later
    rounds just before they start, outside the timed region.  As in
    field-audit, round r's fields are the same for every seed and the seed
    sets their order.  The machine's speed is sampled between `gen` calls, so
    a set-up's reference time rests on more than the samples at its two ends."""

    def __init__(self, cli, seed: int, speed: SpeedProbe):
        self.cli = cli
        self.speed = speed
        super().__init__(cli, seed, speed)

    def _make_round(self, r: int) -> list[Op]:
        by_m: dict[int, list[Op]] = {}
        for key, gen in self.gen_argvs(random.Random(f"{self.name}:{r}")):
            start = time.perf_counter()
            code, out, err = call_cli(self.cli, gen, "")
            self.speed.after(time.perf_counter() - start)
            if code != 0:
                raise RuntimeError(f"input generation: {' '.join(gen)} exited {code}: {err.strip()}")
            doc = json.loads(out)
            op = Op(f"r{r}:{key}", self.STEPS, out, meta={"m": doc["m"], "sizes": field_sizes(doc)})
            by_m.setdefault(doc["m"], []).append(op)
        return interleave(random.Random(f"{self.name}:{self.seed}:{r}"), [by_m[m] for m in sorted(by_m)])

    def warmup_op(self) -> Op:
        return min(self.first_round, key=lambda op: (op.meta["m"], op.meta["sizes"]["marked"]))

    def sizes(self, op, results):
        return dict(op.meta["sizes"])


class OddReduction(_GeneratedFields):
    """`reduce-odd | analyze --checks membership,parity` on pre-generated so-odd fields."""

    name = "odd-reduction"
    deadline_s = 60.0

    def gen_argvs(self, rng):
        # m <= 2 only: one m=3 op takes 0.5-6 s and one m=4 op 1-20 s or more,
        # too few per run for a steady median and tail.  m=2 fields twice per
        # stratum keep the median and tail inside the m=2 ops.
        for m, copies in ((1, 1), (2, 2)):
            for k in range(1, 4):
                for deg in range(3):
                    for c, points in enumerate(_point_sets(rng, k, copies)):
                        yield f"so-odd:m{m}:k{k}:d{deg}:{c}", _gen_argv("so-odd", m, points, deg, rng.randrange(2**32))

    STEPS = [["reduce-odd", "-"], ["analyze", "-", "--checks", "membership,parity", "--format", "json"]]

    def check(self, op, results):
        code, _, err = results[0]
        if code == 1 and len(results) == 1 and "non-generic" in err:
            return "non-generic", err.strip(), "non-generic"
        bad = _exit_outcome(results, 2)
        if bad:
            return bad
        reduced, report = _json_out(results, 0), _json_out(results, 1)
        if reduced["reduction_report"]["char_identity"] != "PASS":
            return "check", "x * char(reduced) != char(field)", ""
        if (reduced["group"], reduced["m"]) != ("sp", op.meta["m"]):
            return "check", "reduced field is not sp with the same m", ""
        if report["all_pass"] is not True:
            return "check", "reduced field fails membership or parity", ""
        return "ok", "", "PASS"


class SpectralCertify(_GeneratedFields):
    """`analyze` with every default check, spectral curve included, on the
    catalogue's fields, made in set-up; each round takes them in a new order."""

    name = "spectral-certify"
    # Every catalogue field got its verdict within make_catalogue.CAP_S (1
    # reference s) when the catalogue was built; the deadline only stops an op
    # that a change to the program has made hang.
    deadline_s = 10.0
    CONCLUSIVE = ("smooth", "singular")

    def gen_argvs(self, rng):
        # four m=1 fields per stratum keep the median on the certificate path;
        # two m=2 fields per stratum put the tail among many witness searches
        # of near times, not on the gap between two of a few
        for gen in json.loads(CATALOGUE.read_text())["fields"]:
            yield " ".join(gen[1:]), gen

    def _make_round(self, r: int) -> list[Op]:
        if r == 0:
            return super()._make_round(0)
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        by_m: dict[int, list[Op]] = {}
        for op in self.first_round:
            key = f"r{r}:" + op.key.split(":", 1)[1]
            by_m.setdefault(op.meta["m"], []).append(Op(key, op.argvs, op.stdin, op.meta))
        return interleave(rng, [by_m[m] for m in sorted(by_m)])

    def readme_probe(self, cli, speed: SpeedProbe) -> OpRecord:
        """`analyze` on the README example's field under a README_PROBE_S deadline."""
        field_json = call_cli(cli, README_FIELD, "")[1]
        op = Op("readme", self.STEPS, field_json, meta={"sizes": field_sizes(json.loads(field_json))})
        [rec] = measure(cli, self, [(-1, op)], speed, deadline_s=README_PROBE_S)
        return rec

    STEPS = [["analyze", "-", "--format", "json"]]

    def check(self, op, results):
        bad = _exit_outcome(results, 1)
        if bad:
            return bad
        report = _json_out(results, 0)
        status = report["checks"]["spectral"]["smoothness"]["status"]
        if status not in ("smooth", "singular", "inconclusive"):
            return "check", f"unknown smoothness status {status!r}", ""
        if report["all_pass"] is not True:
            return "check", "a structural law failed on a generated field", status
        return "ok", "", status


class DimensionSweep(_FreshRounds):
    """`sweep --format csv` over all groups on a 2112-row box placed by the seed."""

    name = "dimension-sweep"
    deadline_s = 60.0
    SIDES = (8, 11, 8)  # m, g, n box side lengths: 3 * 8 * 11 * 8 = 2112 rows

    @staticmethod
    def _op(key: str, origin: tuple, sides: tuple, deg_m: int) -> Op:
        box = {flag: (lo, lo + side - 1) for flag, lo, side in zip("mgn", origin, sides)}
        argv = ["sweep", "--format", "csv", "--deg-m", str(deg_m)]
        for flag, (lo, hi) in box.items():
            argv += [f"-{flag}", f"{lo}:{hi}"]
        return Op(key, [argv], meta={"box": box})

    def _make_round(self, r: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        strata = [(m0, deg_m) for m0 in (1, 2, 3) for deg_m in (0, 2, 4)]
        rng.shuffle(strata)
        ops = []
        for m0, deg_m in strata:
            g0, n0 = rng.randint(2, 4), rng.randint(1, 3)
            ops.append(self._op(f"r{r}:m{m0}:g{g0}:n{n0}:M{deg_m}", (m0, g0, n0), self.SIDES, deg_m))
        return ops

    def warmup_op(self) -> Op:
        return self._op("warmup", (1, 2, 1), (1, 1, 1), 0)

    def check(self, op, results):
        bad = _exit_outcome(results, 1)
        if bad:
            return bad
        lines = results[0][1].splitlines()
        if lines[0] != SWEEP_HEADER:
            return "check", "unexpected CSV header", ""
        box = op.meta["box"]
        want = [
            (g, m, gg, n)
            for g in sorted(GROUPS)
            for m in range(box["m"][0], box["m"][1] + 1)
            for gg in range(box["g"][0], box["g"][1] + 1)
            for n in range(box["n"][0], box["n"][1] + 1)
        ]
        rows = [line.split(",") for line in lines[1:]]
        if [(r[0], int(r[1]), int(r[2]), int(r[3])) for r in rows] != want:
            return "check", f"{len(rows)} rows, expected the {len(want)} box tuples in order", ""
        if any(r[-1] != "PASS" for r in rows):
            return "check", "a dimension identity failed", ""
        return "ok", "", "PASS"

    def sizes(self, op, results):
        box = op.meta["box"]
        return {"rows": len(GROUPS) * math.prod(hi - lo + 1 for lo, hi in box.values()), "box": box}


WORKLOADS = {w.name: w for w in (FieldAudit, OddReduction, SpectralCertify, DimensionSweep)}


# -- metrics -----------------------------------------------------------------------


TAIL_LADDER = list(range(500, 1000, 10)) + list(range(991, 1000))  # tenths of a percent


def nearest_rank_index(p: float, n: int) -> int:
    """Nearest-rank position (1-based) of percentile p among n samples, exactly."""
    tenths = round(p * 10)
    return max(1, -(-tenths * n // 1000))


def tail_percentile(n: int) -> float | None:
    """Highest percentile (whole percents, then tenths above 99) of n samples
    that leaves at least 10 samples above its nearest-rank value."""
    best = None
    for tenths in TAIL_LADDER:
        if n - nearest_rank_index(tenths / 10, n) >= 10:
            best = tenths / 10
    return best


def nearest_rank(sorted_values: list[float], p: float) -> float:
    return sorted_values[nearest_rank_index(p, len(sorted_values)) - 1]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def end_to_end(records: list[OpRecord], setup_s: float, workload, speed: SpeedProbe) -> tuple[dict, dict]:
    """The BENCHMARK.json end-to-end metrics (times in reference seconds), plus
    the extra lines the report prints."""
    times = sorted(r.ref_s for r in records)
    n = len(times)
    pct = tail_percentile(n)
    tail_p = pct if pct is not None else 50.0
    completed = sum(r.completed() for r in records)
    wall = sorted(r.seconds for r in records)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / sum(times), "1/s"),
        "op_p50_s": (nearest_rank(times, 50.0), "s"),
        "op_tail_s": (nearest_rank(times, tail_p), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    extra = {
        "ops_failed_ratio": ((n - completed) / n, "ratio"),
        "op_tail_percentile": (tail_p, "%"),
        "op_tail_samples_beyond": (n - nearest_rank_index(tail_p, n), "count"),
        "wall_ops_per_s": (n / sum(wall), "1/s"),
        "wall_op_p50_s": (nearest_rank(wall, 50.0), "s"),
        "wall_op_tail_s": (nearest_rank(wall, tail_p), "s"),
        "slowdown_median": (statistics.median(speed.samples), "ratio"),
    }
    if isinstance(workload, SpectralCertify):
        conclusive = sum(r.verdict in SpectralCertify.CONCLUSIVE for r in records)
        extra["verdict_conclusive_ratio"] = (conclusive / n, "ratio")
    return metrics, extra


# (function, stats) in report order; a stat is a Stat field, a probe value or a derived ratio.
PER_LAYER = [
    ("groups.cayley_group_element", ("calls", "self_s", "useful_ratio")),
    ("linalg.mat_inverse", ("calls", "self_s")),
    ("linalg.mat_mul", ("calls", "self_s")),
    ("poly.RationalFunction.make", ("calls", "self_s")),
    ("poly.RationalFunction.add", ("calls", "self_s")),
    ("poly.RationalFunction.mul", ("calls", "self_s")),
    ("poly.UniPoly.mul", ("calls", "self_s")),
    ("higgs.random_strongly_parabolic_higgs", ("calls", "self_s")),
    ("linalg.char_poly", ("calls", "self_s", "in_rank", "in_tdeg_max")),
    ("linalg.pfaffian", ("calls", "self_s")),
    ("groups.check_lie_membership", ("calls", "self_s")),
    ("higgs.strong_parabolic_check", ("calls", "self_s")),
    ("higgs.pfaffian_square_check", ("calls", "self_s")),
    ("linalg.kernel_basis", ("calls", "self_s", "in_deg_max", "in_bits_max")),
    ("higgs.so_odd_reduce", ("calls", "self_s", "in_deg_max", "in_bits_max", "useful_ratio")),
    ("poly.RationalFunction.div", ("calls", "self_s", "in_deg_max", "in_bits_max")),
    ("poly.poly_gcd", ("calls", "self_s", "in_deg_max", "in_bits_max")),
    ("poly.rational_roots", ("calls", "self_s", "in_bits_max")),
    ("poly.is_squarefree", ("calls", "self_s")),
    ("poly.squarefree_part", ("calls", "self_s")),
    ("bipoly.discriminant_x", ("calls", "self_s", "out_deg_max", "out_bits_max", "calls_per_curve")),
    ("bipoly.is_squarefree_xy", ("calls", "self_s")),
    ("curves.smoothness_check", ("calls", "self_s", "disc_certified_ratio")),
    ("curves.so_even_singularity_pattern", ("calls", "self_s")),
    ("curves.ramification_degree_affine", ("calls", "self_s")),
    ("dimensions.identity_suite", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
]
STAT_UNITS = {"calls": "count", "self_s": "s", "in_rank": "count", "in_tdeg_max": "count", "in_deg_max": "count",
              "out_deg_max": "count", "in_bits_max": "bits", "out_bits_max": "bits", "calls_per_curve": "count"}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tracer: Tracer, records: list[OpRecord], overhead: float) -> dict:
    # a function the program no longer has reads as never called
    stats = collections.defaultdict(Stat, tracer.stats)
    completed = [r for r in records if r.completed()]  # analyses that finished
    derived = {
        ("groups.cayley_group_element", "useful_ratio"): _ratio(
            stats["groups.random_group_element"].returns, stats["groups.cayley_group_element"].calls),
        ("higgs.so_odd_reduce", "useful_ratio"): _ratio(
            stats["higgs.so_odd_reduce"].returns, stats["higgs.so_odd_reduce"].calls),
        ("curves.smoothness_check", "disc_certified_ratio"): _ratio(
            stats["curves.smoothness_check"].values.get("disc_certified", 0), stats["curves.smoothness_check"].returns),
        ("bipoly.discriminant_x", "calls_per_curve"): _ratio(
            sum(r.sizes["trace"]["calls"].get("bipoly.discriminant_x", 0) for r in completed),
            sum(r.sizes["trace"]["calls"].get("curves.twisted_curve", 0) for r in completed)),
    }
    out = {}
    for fn, names in PER_LAYER:
        st = stats[fn]
        for stat in names:
            if stat == "calls":
                value = st.calls
            elif stat == "self_s":
                value = st.self_s
            elif (fn, stat) in derived:
                value = derived[(fn, stat)]
            else:
                value = st.values.get(stat, 0)
            out[f"{fn}.{stat}"] = (value, STAT_UNITS.get(stat, "ratio"))
    covered = sum(r.sizes["trace"]["covered_s"] for r in records)
    out["trace.coverage_ratio"] = (_ratio(covered, sum(r.seconds for r in records)), "ratio")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


# -- one workload run ------------------------------------------------------------------


def load_cli():
    """Import parahiggs.cli afresh from this checkout's src/ (a set-up cost users pay)."""
    for name in [n for n in sys.modules if n == "parahiggs" or n.startswith("parahiggs.")]:
        del sys.modules[name]
    cli = importlib.import_module("parahiggs.cli")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"parahiggs came from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workload_cls, seed: int, speed: SpeedProbe):
    """Import plus input generation, repeated SETUP_REPEATS times or until
    SETUP_MIN_S wall seconds have passed, whichever is later; returns the last
    set-up and the median time in reference seconds."""
    times: list[float] = []
    spent = 0.0
    while len(times) < SETUP_REPEATS or spent < SETUP_MIN_S:
        gc.collect()  # free the last set-up's modules, so peak RSS does not grow with the repeats
        before = speed.sample()
        probe_s = speed.probe_s
        start = time.perf_counter()
        cli = load_cli()
        workload = workload_cls(cli, seed, speed)
        wall = time.perf_counter() - start - (speed.probe_s - probe_s)
        speed.sample()
        spent += wall
        times.append(wall / statistics.fmean(speed.samples[before:]))
    return cli, workload, statistics.median(times)


def measure(cli, workload, ops, speed: SpeedProbe, deadline_s: float | None = None, tracer=None,
            cap_s: float = HARD_CAP_S) -> list[OpRecord]:
    """Closed loop over `ops` ((round, op) pairs) until they run out or until
    `cap_s` wall seconds of op time have passed.  Each op's deadline is
    `deadline_s` (default: the workload's) in reference seconds.  Needs a
    speed sample taken before."""
    deadline_s = workload.deadline_s if deadline_s is None else deadline_s
    records: list[OpRecord] = []
    before: list[int] = []  # index of the speed sample taken before each op
    total_wall = 0.0
    for r, op in ops:
        k = len(speed.samples) - 1
        rec = run_op(cli, workload, op, r, deadline_s * speed.samples[k], tracer, len(records))
        records.append(rec)
        before.append(k)
        total_wall += rec.seconds
        if total_wall >= cap_s:
            break
        speed.after(rec.seconds)
    speed.sample()
    for rec, k in zip(records, before):
        # a cut op ran as long as the deadline that the sample before it set
        rec.ref_s = rec.seconds / (speed.samples[k] if rec.outcome == "deadline" else speed.slowdown(k))
    return records


def measure_rounds(cli, workload, speed: SpeedProbe, budget_s: float) -> tuple[list, list[OpRecord]]:
    """Whole rounds, one after another, until `budget_s` reference seconds of
    op time have passed (or HARD_CAP_S wall seconds), so that every run
    measures its rounds' full mix: returns the (round, op) pairs and records."""
    ops: list = []
    records: list[OpRecord] = []
    for r in itertools.count():
        ops += [(r, op) for op in workload.round(r)]
        records += measure(cli, workload, ops[len(records):], speed,
                           cap_s=HARD_CAP_S - sum(rec.seconds for rec in records))
        if sum(rec.ref_s for rec in records) >= budget_s or sum(rec.seconds for rec in records) >= HARD_CAP_S:
            return ops[:len(records)], records


def traced_round(cli, workload, speed: SpeedProbe, seconds: float):
    """Whole rounds untraced for `seconds` reference seconds, then the ops that
    finished again, traced: returns (traced records, tracer, overhead).

    Traced ops run with the deadline lifted, so the per-layer figures cover the
    work the untraced run finished.  The overhead is traced over untraced
    reference seconds of the ops that finished in both.
    """
    ops, untraced = measure_rounds(cli, workload, speed, seconds)
    replay = {rec.key: rec for rec in untraced if rec.completed()}
    tracer = Tracer()
    tracer.install("parahiggs")
    try:
        records = measure(cli, workload, [(r, op) for r, op in ops if op.key in replay], speed,
                          deadline_s=LIFTED_DEADLINE_S, tracer=tracer,
                          cap_s=HARD_CAP_S - sum(rec.seconds for rec in untraced))
    finally:
        tracer.uninstall()
    both = [rec for rec in records if rec.completed()]
    overhead = _ratio(sum(rec.ref_s for rec in both), sum(replay[rec.key].ref_s for rec in both))
    return records, tracer, overhead


def digests(workload, records: list[OpRecord]) -> tuple[str, str, int]:
    """SHA-256 of the first round's inputs, and of the outputs of its ops that
    were not cut at the deadline, both keyed by op key and so independent of
    the order the seed gave them (with the count of digested outputs)."""
    inputs, outputs = hashlib.sha256(), hashlib.sha256()
    first = sorted(workload.round(0), key=lambda op: op.key)
    for op in first:
        inputs.update(op.key.encode() + op.input_bytes())
    keys = {op.key for op in first}
    done = sorted((rec.key, rec.digest) for rec in records if rec.key in keys and rec.digest)
    for key, digest in done:
        outputs.update(f"{key} {digest}\n".encode())
    return inputs.hexdigest(), outputs.hexdigest(), len(done)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    speed = SpeedProbe()
    cli, workload, setup_s = set_up(WORKLOADS[name], seed, speed)
    readme = None
    with Deadline():
        measure(cli, workload, [(-1, workload.warmup_op())], speed)
        if trace:
            records, tracer, overhead = traced_round(cli, workload, speed, seconds)
        else:
            records = measure_rounds(cli, workload, speed, seconds)[1]
            if isinstance(workload, SpectralCertify):
                readme = workload.readme_probe(cli, speed)
    failed = sum(not r.completed() for r in records)
    correct = not any(r.outcome in INCORRECT_OUTCOMES for r in records)
    inputs_sha, outputs_sha, digested = digests(workload, records)
    e2e, extra = end_to_end(records, setup_s, workload, speed)
    metrics = per_layer(tracer, records, overhead) if trace else e2e
    outcomes = {k: sum(r.outcome == k for r in records) for k in ("ok", "non-generic") + FAILED_OUTCOMES}
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": max(r.round for r in records) + 1,
        "deadline_s": workload.deadline_s,
        "outcomes": outcomes,
        "inputs_sha256": inputs_sha,
        "outputs_sha256": outputs_sha,
        "outputs_digested_ops": digested,
        "readme_example": readme and {"outcome": readme.outcome, "ref_s": readme.ref_s, "detail": readme.detail,
                                      "verdict": readme.verdict, "deadline_s": README_PROBE_S},
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in {**e2e, **extra}.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "slowdown_samples": speed.samples,
        "ops": [
            {"key": r.key, "round": r.round, "seconds": r.seconds, "ref_s": r.ref_s, "outcome": r.outcome,
             "detail": r.detail, "verdict": r.verdict, "sizes": r.sizes}
            for r in records
        ],
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1) + "\n")
    if trace:
        tracer.write_spans(stem.with_suffix(".spans.json.gz"))
    return result


def print_report(res: dict) -> None:
    print(f"workload {res['workload']}  seed {res['seed']}  trace {res['trace']}  "
          f"rounds {res['rounds']}  attempted {res['attempted']}  failed {res['failed']}  "
          f"correct {res['correct']}  deadline {res['deadline_s']:g} reference s")
    print("  outcomes " + "  ".join(f"{k} {v}" for k, v in res["outcomes"].items()))
    # a traced run's end-to-end figures include the wrappers' cost, so it shows only its own
    shown = res["metrics"] if res["trace"] else res["end_to_end"]
    for key, m in shown.items():
        print(f"  {key:<48} {m['value']:>14.6g} {m['unit']}")
    print(f"  inputs_sha256  {res['inputs_sha256']}")
    print(f"  outputs_sha256 {res['outputs_sha256']}  ({res['outputs_digested_ops']} finished ops of the first round)")
    if res["readme_example"]:
        rm = res["readme_example"]
        print(f"  README example, not a measured op: {rm['outcome']} after {rm['ref_s']:.3g} reference s "
              f"(deadline {rm['deadline_s']:g}) {rm['verdict']}")
    for rec in res["ops"]:
        if rec["outcome"] not in ("ok", "non-generic"):
            print(f"  failed op {rec['key']}: {rec['outcome']}: {rec['detail']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "parahiggs" / "cli.py").is_file():
        print(f"error: no parahiggs sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(res)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process so peak RSS and imports stay separate."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            status = proc.returncode or 1
            continue
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    if status == 0:
        print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
