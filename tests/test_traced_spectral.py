"""One traced spectral-certify op and one traced odd-reduction op through
the benchmark's tracer.

The tracer's probes read the arguments and results of `poly.poly_gcd`,
`poly.rational_roots` and `bipoly.discriminant_x`, and the `HiggsField.matrix`
of the field `higgs.so_odd_reduce` takes, so a change to one of their
signatures breaks a traced run although every untraced test passes.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def traced_largest_op(workload_class):
    """(op, record, tracer) of the largest-m op of round 0, run traced."""
    cli = importlib.import_module("parahiggs.cli")
    workload = workload_class(cli, 0, run.SpeedProbe())
    op = max(workload.first_round, key=lambda op: (op.meta["m"], op.meta["sizes"]["marked"]))
    tracer = Tracer()
    tracer.install("parahiggs")
    try:
        with run.Deadline():
            rec = run.run_op(cli, workload, op, 0, 30.0, tracer, 0)
    finally:
        tracer.uninstall()
    return op, rec, tracer


def test_traced_spectral_op_is_ok():
    _, rec, tracer = traced_largest_op(run.SpectralCertify)
    assert (rec.outcome, rec.detail) == ("ok", "")
    assert tracer.stats["curves.twisted_curve"].calls == 1
    assert tracer.stats["curves.smoothness_check"].calls == 1
    assert tracer.stats["bipoly.discriminant_x"].values["out_deg_max"] >= 0
    assert tracer.stats["poly.poly_gcd"].values["in_deg_max"] >= 1
    assert tracer.stats["poly.rational_roots"].calls >= 1


def test_traced_odd_reduction_op_is_ok():
    op, rec, tracer = traced_largest_op(run.OddReduction)
    assert (rec.outcome, rec.detail) == ("ok", "")
    stat = tracer.stats["higgs.so_odd_reduce"]
    assert stat.calls == 1
    assert stat.values["in_rank"] == 2 * op.meta["m"] + 1
