"""One traced spectral-certify op through the benchmark's tracer.

The tracer's probes read the arguments and results of `poly.poly_gcd`,
`poly.rational_roots` and `bipoly.discriminant_x`, so a change to one of
their signatures breaks a traced run although every untraced test passes.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_traced_spectral_op_is_ok():
    cli = importlib.import_module("parahiggs.cli")
    workload = run.SpectralCertify(cli, 0, run.SpeedProbe())
    op = max(workload.first_round, key=lambda op: (op.meta["m"], op.meta["sizes"]["marked"]))
    tracer = Tracer()
    tracer.install("parahiggs")
    try:
        with run.Deadline():
            rec = run.run_op(cli, workload, op, 0, 30.0, tracer, 0)
    finally:
        tracer.uninstall()
    assert (rec.outcome, rec.detail) == ("ok", "")
    assert tracer.stats["curves.twisted_curve"].calls == 1
    assert tracer.stats["curves.smoothness_check"].calls == 1
    assert tracer.stats["bipoly.discriminant_x"].values["out_deg_max"] >= 0
    assert tracer.stats["poly.poly_gcd"].values["in_deg_max"] >= 1
    assert tracer.stats["poly.rational_roots"].calls >= 1
