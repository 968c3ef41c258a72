"""Self-tests for the benchmark harness: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from tracer import Tracer

sys.path.insert(0, str(run.SRC))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (27, 62.0), (82, 87.0), (100, 90.0), (108, 90.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    p = run.tail_percentile(n)
    assert p == expected
    if p is not None:
        assert n - run.nearest_rank_index(p, n) >= 10
        # the next step up the ladder would leave fewer than ten
        higher = [t / 10 for t in run.TAIL_LADDER if t / 10 > p]
        assert all(n - run.nearest_rank_index(q, n) < 10 for q in higher)


def test_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert run.nearest_rank(values, 90.0) == 90.0
    assert run.nearest_rank(values, 50.0) == 50.0


def test_self_time_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.advance(2.0)

    def outer():
        clock.advance(1.0)
        inner_w()
        clock.advance(3.0)
        inner_w()

    inner_w = tracer.wrap("m.inner", inner)
    outer_w = tracer.wrap("m.outer", outer)
    tracer.begin_op(0)
    outer_w()
    calls, _, covered = tracer.end_op()
    assert tracer.stats["m.outer"].self_s == pytest.approx(4.0)
    assert tracer.stats["m.inner"].self_s == pytest.approx(4.0)
    assert (tracer.stats["m.outer"].calls, tracer.stats["m.inner"].calls) == (1, 2)
    assert calls == {"m.outer": 1, "m.inner": 2}
    assert covered == pytest.approx(8.0)
    # children are stored before their parent, and point at it
    outer_id = tracer.span_id[2]
    assert list(tracer.span_parent) == [outer_id, outer_id, -1]


def test_self_time_recursive_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def fact(n):
        clock.advance(1.0)
        result = 1 if n == 0 else n * fact_w(n - 1)
        clock.advance(0.5)
        return result

    fact_w = tracer.wrap("m.fact", fact)
    tracer.begin_op(0)
    assert fact_w(3) == 6
    tracer.end_op()
    stat = tracer.stats["m.fact"]
    assert (stat.calls, stat.returns) == (4, 4)
    # four frames of 1.5 s own work each; the outermost span lasts 6 s
    assert stat.self_s == pytest.approx(6.0)
    assert tracer.span_end[-1] - tracer.span_start[-1] == pytest.approx(6.0)


def test_cli_spans_are_not_coverage():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    layer_w = tracer.wrap("poly.work", lambda: clock.advance(3.0))

    def main():
        clock.advance(1.0)
        layer_w()

    main_w = tracer.wrap("cli.main", main)
    tracer.begin_op(0)
    main_w()
    _, _, covered = tracer.end_op()
    assert covered == pytest.approx(3.0)
    assert tracer.stats["cli.main"].self_s == pytest.approx(1.0)


class SpinCli:
    """Stands in for parahiggs.cli: never returns, and catches Exception like cli.main."""

    @staticmethod
    def main(argv):
        try:
            while True:
                pass
        except Exception:
            return 2


class NoChecks:
    def check(self, op, results):
        raise AssertionError("a deadline-cut op must not reach the output check")

    def sizes(self, op, results):
        return {}


def test_deadline_fires_on_spin_op():
    op = run.Op("spin", [["spin"]])
    with run.Deadline():
        start = time.perf_counter()
        rec = run.run_op(SpinCli, NoChecks(), op, 0, deadline_s=0.2)
        elapsed = time.perf_counter() - start
    assert rec.outcome == "deadline"
    assert rec.outcome in run.FAILED_OUTCOMES
    assert 0.2 <= rec.seconds < 2.0 and elapsed < 2.0


class ScriptedSpeed(run.SpeedProbe):
    """A speed probe whose samples are given, not measured."""

    def __init__(self, slowdowns):
        super().__init__()
        self.script = iter(slowdowns)

    def sample(self) -> int:
        self.samples.append(next(self.script))
        self.since_s = 0.0
        return len(self.samples) - 1


def test_deadline_is_in_reference_seconds():
    # at half speed (slowdown 2) a 0.1 reference-second deadline lasts 0.2 wall seconds
    speed = ScriptedSpeed([2.0, 2.0])
    speed.sample()
    with run.Deadline():
        [rec] = run.measure(SpinCli, NoChecks(), [(0, run.Op("spin", [["spin"]]))], speed, deadline_s=0.1)
    assert rec.outcome == "deadline"
    assert 0.2 <= rec.seconds < 1.0
    assert rec.ref_s == pytest.approx(rec.seconds / 2.0)


class InstantCli:
    @staticmethod
    def main(argv):
        print(argv[0])
        return 0


class AcceptAll(NoChecks):
    def check(self, op, results):
        return "ok", "", ""


def test_reference_seconds_use_the_samples_around_each_op():
    speed = ScriptedSpeed([1.0, 3.0, 2.0])
    speed.sample()
    ops = [(0, run.Op(f"op{i}", [[f"op{i}"]])) for i in range(2)]
    first, second = run.measure(InstantCli, AcceptAll(), ops, speed, deadline_s=10.0)
    # one sample before the first op, none due before the second, one after both
    assert speed.samples == [1.0, 3.0]
    assert first.ref_s == pytest.approx(first.seconds / 2.0)
    assert second.ref_s == pytest.approx(second.seconds / 2.0)


class SleepCli:
    @staticmethod
    def main(argv):
        time.sleep(0.05)
        return 0


class SleepRounds(AcceptAll):
    deadline_s = 10.0

    def round(self, r):
        return [run.Op(f"r{r}:{i}", [["sleep"]]) for i in range(3)]


def test_runs_measure_whole_rounds_within_a_reference_second_budget():
    # at quarter speed a 0.05 wall s op is 0.0125 reference s, a round 0.0375
    speed = ScriptedSpeed([4.0] * 40)
    speed.sample()
    ops, records = run.measure_rounds(SleepCli, SleepRounds(), speed, budget_s=0.03)
    assert [rec.key for rec in records] == ["r0:0", "r0:1", "r0:2"]
    assert [op.key for _, op in ops] == [rec.key for rec in records]
    assert all(rec.ref_s == pytest.approx(rec.seconds / 4.0) for rec in records)
    # a budget that ends inside the second round runs that round to its end
    _, records = run.measure_rounds(SleepCli, SleepRounds(), speed, budget_s=0.05)
    assert len(records) == 6


def test_wall_clock_cap_stops_a_run():
    speed = ScriptedSpeed([1.0] * 20)
    speed.sample()
    ops = [(0, run.Op(f"op{i}", [["sleep"]])) for i in range(10)]
    assert len(run.measure(SleepCli, AcceptAll(), ops, speed, deadline_s=10.0, cap_s=0.12)) == 3


def test_catalogue_fields_are_gen_argvs_of_every_m1_stratum():
    import make_catalogue

    strata = {}
    for gen in json.loads(run.CATALOGUE.read_text())["fields"]:
        args = dict(zip(gen[1::2], gen[2::2]))
        key = (args["--group"], int(args["-m"]), len(args["--marked"].split(",")), int(args["--deg-bound"]))
        strata[key] = strata.get(key, 0) + 1
        assert gen == run._gen_argv(key[0], key[1], args["--marked"].split(","), key[3], int(args["--seed"]))
    # an m=2 stratum may stay short, when no field of MAX_TRIES got a verdict in time
    assert all(n <= make_catalogue.COPIES[key[1]] for key, n in strata.items())
    assert all(strata.get((g, 1, k, d)) == make_catalogue.COPIES[1]
               for g in run.GROUPS for k in range(1, 4) for d in range(3))


class DigestWorkload:
    def __init__(self, ops):
        self.ops = ops

    def round(self, r):
        return self.ops


def test_output_digest_skips_deadline_cut_ops_and_ignores_order():
    ops = [run.Op(f"k{i}", [["x"]]) for i in range(3)]
    done = [run.OpRecord("k0", 0, 0.1, "ok", digest="a"), run.OpRecord("k2", 0, 0.1, "exit", digest="c")]
    cut = run.OpRecord("k1", 0, 1.0, "deadline")
    _, out1, n1 = run.digests(DigestWorkload(ops), done + [cut])
    _, out2, n2 = run.digests(DigestWorkload(ops), list(reversed(done)))
    assert (out1, n1) == (out2, n2)
    assert n1 == 2


def _wrappers_in(package_modules) -> list[str]:
    found = []
    for mod in package_modules:
        for attr, value in vars(mod).items():
            if hasattr(value, "__perfbench_original__"):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, dict):
                found += [f"{mod.__name__}.{attr}[{k!r}]" for k, v in value.items() if hasattr(v, "__perfbench_original__")]
            if isinstance(value, type):
                for name, member in vars(value).items():
                    fn = getattr(member, "__func__", member)
                    if hasattr(fn, "__perfbench_original__"):
                        found.append(f"{mod.__name__}.{attr}.{name}")
    return found


def test_traced_run_removes_every_wrapper():
    cli = run.load_cli()
    modules = [m for n, m in sys.modules.items() if n.startswith("parahiggs")]
    handlers_before = dict(cli._HANDLERS)
    main_before = cli.main
    workload = run.DimensionSweep(cli, 0, run.SpeedProbe())
    tracer = Tracer()
    tracer.install("parahiggs")
    try:
        assert cli.main is not main_before
        assert hasattr(cli._HANDLERS["gen"], "__perfbench_original__")
        assert _wrappers_in(modules)
        with run.Deadline():
            rec = run.run_op(cli, workload, workload.warmup_op(), 0, 30.0, tracer, 0)
    finally:
        tracer.uninstall()
    assert rec.outcome == "ok"
    assert tracer.stats["cli.main"].calls == 1
    assert tracer.stats["dimensions.identity_suite"].calls == 3
    assert _wrappers_in(modules) == []
    assert cli.main is main_before
    assert cli._HANDLERS == handlers_before


def test_rebinds_imported_names_where_they_are_called():
    cli = run.load_cli()
    curves = sys.modules["parahiggs.curves"]
    poly = sys.modules["parahiggs.poly"]
    tracer = Tracer()
    tracer.install("parahiggs")
    try:
        assert curves.rational_roots is poly.rational_roots
        assert hasattr(curves.rational_roots, "__perfbench_original__")
        assert poly.UniPoly.__rmul__ is poly.UniPoly.__mul__
    finally:
        tracer.uninstall()
    assert not hasattr(curves.rational_roots, "__perfbench_original__")
    assert cli is sys.modules["parahiggs.cli"]


def test_field_sizes_of_cleared_matrix():
    doc = {
        "group": "sp",
        "m": 1,
        "marked_points": ["0", "1"],
        # (t^2 + t/2 + 3) / t cleared by d = t(t - 1) is t^3 - t^2/2 + 5t/2 - 3
        "matrix": [[{"num": ["3", "1/2", "1"], "den": ["0", "1"]}, {"num": [], "den": ["1"]}],
                   [{"num": ["7"], "den": ["1"]}, {"num": ["-3", "-1/2", "-1"], "den": ["0", "1"]}]],
    }
    sizes = run.field_sizes(doc)
    assert sizes == {"group": "sp", "m": 1, "rank": 2, "marked": 2, "tdeg_max": 3, "bits_max": 3}


def test_exits_nonzero_without_program_sources(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "dimension-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
