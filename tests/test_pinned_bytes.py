"""Pinned output bytes for seeded `gen`, `analyze` and `reduce-odd` runs.

`TestGen.test_deterministic_bytes` only compares two runs of the same code.
The SHA-256 values here were recorded with the generator's earlier Q(t)
linear algebra, so they also catch a change that moves the seeded streams,
the normal form of a field entry or the JSON layout.

Grid: every group, m in 1..3 and marked-point count in 1..3, with the degree
bound (m + count) mod 3 (a Latin square over 0..2), plus the semisimple
control of every group.

The spectral digests cover `analyze` with every default check, the spectral
curve and the so-even singularity pattern included, on m = 1 fields with
1..3 marked points and degree bounds 0..2; they were recorded on the code
that still computed the so-odd kernel by Gauss-Jordan over Q(t) and the
Pfaffian of B*Phi from a Q(t) product.

The m = 2 spectral digests cover fields whose discriminant is not squarefree,
so the rational witness search runs and reports singular points; they were
recorded on the code that still tested reducedness by a bivariate gcd and
searched every rational root of the discriminant for witnesses.

The two stalled sp fields (m = 2, marked points 0 and 1/2, seed 3, degree
bounds 0 and 1) have 45-bit end coefficients in the squarefree part of
gcd(disc, disc'); their digests were recorded on the code that found rational
roots by trial division of those coefficients, where each `analyze` took 10 to
14 s on one core.

The sweep digests cover the exit code, output bytes and stderr of `sweep` and
`dims`, and the exit code and stdout of the two dimension scripts; they were
recorded on the code that still evaluated line-bundle degrees over `Fraction`.

The m = 3 and 4 digests cover `analyze` with the default checks on one
field per group (marked points 0 and 1, degree bound 1, seed 0); they were
recorded on the code that still certified every curve by the full
x-discriminant and took a primitive PRS gcd, where the m = 4 fields took 11 s
(so-even), 29 s (so-odd) and 64 s (sp) each on one core.

The reduced-field digest covers `analyze` with the algebraic checks on the
`reduce-odd` outputs of the so-odd grid: sp fields over a non-split Gram form
over Q(t), with poles off the marked points and a common denominator that is
not prod (t - a_k).  The non-constant Gram digest covers the `pfaffian` check
on an so(2) field whose Gram form B = [[0, t+1], [t+1, 0]] degenerates at
t = -1, so det B is not a constant.  Both were recorded on the code that still
read every check off characteristic coefficients over Q(t).

The hand-written digests cover `analyze --format json` (default checks), and
`reduce-odd` on the so-odd one, on fields whose JSON entries are not in the
normal form `gen` writes: a trailing zero in a denominator, common factors of
numerator and denominator, scaled and non-monic denominators, decimal and
unreduced fraction coefficients and a zero entry over a constant, plus the
exit code and stderr of a zero denominator.  They were recorded on the code
that still normalised every parsed entry as a reduced rational function
before clearing the matrix.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from parahiggs.cli import main
from parahiggs.groups import GroupSpec
from parahiggs.higgs import semisimple_residue_control

MARKED = ("0", "1/2", "-2")
ALGEBRAIC_CHECKS = ("membership", "charpoly", "parity", "strong-parabolic")

PINNED = {
    ("gen", "sp"):
        "364883ff24d5c4407d01acd04b7cb47d6889e4e02a7df732641fbdc23d9d7aa1",
    ("gen", "so-even"):
        "11873f3e705a3d24f7b819c965623691b3ee13463c61d223e22fee472464b239",
    ("gen", "so-odd"):
        "48811792c16c04d45e68d1449381e8f38a411f017fad48e62c9a194b640742aa",
    ("analyze", "sp"):
        "6c73fda91d6c7fef80728fd0dfb377ba91378ca921a032d89f9f4635cfc4fe64",
    ("analyze", "so-even"):
        "a06d03b53cc47cd54eb70b2adbb30ba22e06ff1fed931795143aa2105c2b6375",
    ("analyze", "so-odd"):
        "62e3f63962e5b69c91e7572e1c8dd5b73f82d0f86df2a750cb1025979dc7bbf2",
    ("reduce-odd", "so-odd"):
        "70f91c4ab5491a0d2bdc58b22a095b0dd62a2f03ff3eccf07b9928b3ee1638fb",
}

SPECTRAL_PINNED = {
    "sp": "cd88bc775c188c24a82c62a75c5bc08b4ee21ae36df907714680fdc9bef0167f",
    "so-even": "38608baf75c2204db4b6df28f46661d18f097b59e11c6e08ca26b666dab52b74",
    "so-odd": "f4b1d5fd233b6bef7ba19add130792f3c9cc101b96ba1037b48d2c78f9fa58fe",
}

# (marked-point count, degree bound, seed) of the m = 2 fields per group
M2_FIELDS = {
    "sp": ((1, 0, 0), (1, 0, 1), (2, 0, 1)),
    "so-even": ((1, 0, 1), (2, 0, 0), (2, 1, 0)),
    "so-odd": ((1, 0, 1), (1, 0, 3), (2, 0, 1)),
}

M2_SPECTRAL_PINNED = {
    "sp": "88a676e43564de64fe0d2977f212c40b9316292fb2d14a72dd6e89407292a9e8",
    "so-even": "0b287e72b43e445bed8e3281790b916dbfc7b4814eeab3690033368e64780dcd",
    "so-odd": "c9a91b93c4c5da1c20bc166fc6228ae87b3b9dd34ea5fd8e6b77b0c48c4bde37",
}

# degree bound -> digest of `analyze --format json` of the stalled sp field
STALLED_PINNED = {
    0: "1f9d1bafd863d8a3d271730c04581f260c59c449079a2b04b36f1409ceaebbc2",
    1: "6e33a8258c3d85009b303ca61e6cfe3f5bfc3fee6c44c057c27626afb15b5afd",
}
STALLED_BOUND_S = 5.0

# (group, m) -> digest of the bytes `analyze --format json` writes for the
# field `gen --group G -m M --marked 0,1 --deg-bound 1 --seed 0`
LARGE_M_PINNED = {
    ("sp", 3): "590004affaf444693c1d8ac2348b490e458e40e5860005b83de17047b93f3152",
    ("sp", 4): "06a76cbceb5845c64770bc1d1b7e1d4141a90179ef1e8acd3250b26cc56de62c",
    ("so-odd", 3): "bd01caaab9a2f5a1f0e6ee900bc5839d3837af0c49c43b8ea497225b5753cbe4",
    ("so-odd", 4): "8ae7594325e3d3bd5d1543bfde6e80e9ca176b8e0c570baef9f253321329f00b",
    ("so-even", 3): "56d100db2482144f4ee690a09cbf1d67d18f4ba492a4fc3a816bcebfde6d1abc",
    ("so-even", 4): "d8c6fc47a4702f6be231cf215a07f58e6916f261c32833d0bec45d45da341428",
}
LARGE_M_BOUND_S = 10.0


REDUCED_PINNED = "11b80c30a70cf2a7d77935e6394fa594b5b6ee4843706e7b7414c39cfd8c761d"

# an so(2) field in the algebra of B = [[0, t+1], [t+1, 0]]
NONCONSTANT_GRAM_FIELD = {
    "group": "so-even",
    "m": 1,
    "marked_points": ["0"],
    "gram": [[{"num": [], "den": ["1"]}, {"num": ["1", "1"], "den": ["1"]}],
             [{"num": ["1", "1"], "den": ["1"]}, {"num": [], "den": ["1"]}]],
    "matrix": [[{"num": ["0", "1"], "den": ["1"]}, {"num": [], "den": ["1"]}],
               [{"num": [], "den": ["1"]}, {"num": ["0", "-1"], "den": ["1"]}]],
}
NONCONSTANT_GRAM_PINNED = "fd3904ee4e3a0b886de543c3b671c24353a9a1c8d4f19c15874987946bf8b465"


def grid():
    for m in range(1, 4):
        for count in range(1, 4):
            yield m, ",".join(MARKED[:count]), (m + count) % 3, 10 * m + count


def _run(argv, out) -> bytes:
    code = main([*argv, "-o", str(out)])
    body = out.read_bytes() if out.exists() else b""
    out.unlink(missing_ok=True)
    return f"exit {code}\n".encode() + body


def digests(kind: str, workdir) -> dict[str, str]:
    """SHA-256 of the concatenated outputs of each command over the grid."""
    checks = ALGEBRAIC_CHECKS + (("pfaffian",) if kind == "so-even" else ())
    streams = {"gen": hashlib.sha256(), "analyze": hashlib.sha256()}
    if kind == "so-odd":
        streams["reduce-odd"] = hashlib.sha256()
    fields = []
    for m, marked, deg, seed in grid():
        path = workdir / f"{kind}-{m}-{seed}.json"
        argv = ["gen", "--group", kind, "-m", str(m), "--marked", marked,
                "--deg-bound", str(deg), "--seed", str(seed)]
        if main([*argv, "-o", str(path)]) != 0:
            raise AssertionError(f"gen failed: {argv}")
        streams["gen"].update(path.read_bytes())
        fields.append(path)
    control = semisimple_residue_control(GroupSpec(kind, 2), (0, 1), 1, 5)
    path = workdir / f"{kind}-control.json"
    path.write_text(json.dumps(control.to_dict(), indent=2, sort_keys=True) + "\n")
    streams["gen"].update(path.read_bytes())
    fields.append(path)
    out = workdir / "out.json"
    for path in fields:
        streams["analyze"].update(
            _run(["analyze", str(path), "--format", "json", "--checks", ",".join(checks)], out)
        )
        if kind == "so-odd":
            streams["reduce-odd"].update(_run(["reduce-odd", str(path)], out))
    return {name: h.hexdigest() for name, h in streams.items()}


@pytest.mark.parametrize("kind", ["sp", "so-even", "so-odd"])
def test_pinned_output_bytes(kind, tmp_path, capsys):
    got = digests(kind, tmp_path)
    capsys.readouterr()
    want = {name: digest for (name, k), digest in PINNED.items() if k == kind}
    assert got == want


def test_pinned_reduced_analyze_bytes(tmp_path, capsys):
    stream = hashlib.sha256()
    field, reduced, out = tmp_path / "field.json", tmp_path / "reduced.json", tmp_path / "out.json"
    for m, marked, deg, seed in grid():
        argv = ["gen", "--group", "so-odd", "-m", str(m), "--marked", marked,
                "--deg-bound", str(deg), "--seed", str(seed)]
        if main([*argv, "-o", str(field)]) != 0:
            raise AssertionError(f"gen failed: {argv}")
        stream.update(f"reduce exit {main(['reduce-odd', str(field), '-o', str(reduced)])}\n".encode())
        stream.update(_run(["analyze", str(reduced), "--format", "json",
                            "--checks", ",".join(ALGEBRAIC_CHECKS)], out))
    capsys.readouterr()
    assert stream.hexdigest() == REDUCED_PINNED


def test_pinned_nonconstant_gram_pfaffian_bytes(tmp_path, capsys):
    path = tmp_path / "field.json"
    path.write_text(json.dumps(NONCONSTANT_GRAM_FIELD))
    got = _run(["analyze", str(path), "--format", "json", "--checks", "pfaffian"], tmp_path / "out.json")
    capsys.readouterr()
    assert hashlib.sha256(got).hexdigest() == NONCONSTANT_GRAM_PINNED


def spectral_digest(kind: str, m: int, fields, workdir) -> str:
    """SHA-256 of `analyze --format json` (default checks) over the given
    (marked-point count, degree bound, seed) fields."""
    stream = hashlib.sha256()
    path, out = workdir / "field.json", workdir / "out.json"
    for count, deg, seed in fields:
        argv = ["gen", "--group", kind, "-m", str(m), "--marked", ",".join(MARKED[:count]),
                "--deg-bound", str(deg), "--seed", str(seed)]
        if main([*argv, "-o", str(path)]) != 0:
            raise AssertionError(f"gen failed: {argv}")
        stream.update(_run(["analyze", str(path), "--format", "json"], out))
    return stream.hexdigest()


@pytest.mark.parametrize("kind", ["sp", "so-even", "so-odd"])
def test_pinned_spectral_bytes(kind, tmp_path, capsys):
    m1_grid = [(count, deg, 10 + count) for count in range(1, 4) for deg in range(3)]
    got = spectral_digest(kind, 1, m1_grid, tmp_path)
    capsys.readouterr()
    assert got == SPECTRAL_PINNED[kind]


@pytest.mark.parametrize("kind", ["sp", "so-even", "so-odd"])
def test_pinned_m2_spectral_bytes(kind, tmp_path, capsys):
    got = spectral_digest(kind, 2, M2_FIELDS[kind], tmp_path)
    capsys.readouterr()
    assert got == M2_SPECTRAL_PINNED[kind]


def stalled_analyze(deg: int, workdir) -> tuple[bytes, float]:
    """(exit code and bytes, wall seconds) of `analyze --format json` on the
    stalled sp field with degree bound `deg`."""
    path = workdir / "field.json"
    argv = ["gen", "--group", "sp", "-m", "2", "--marked", "0,1/2",
            "--deg-bound", str(deg), "--seed", "3", "-o", str(path)]
    if main(argv) != 0:
        raise AssertionError(f"gen failed: {argv}")
    start = time.perf_counter()
    got = _run(["analyze", str(path), "--format", "json"], workdir / "out.json")
    return got, time.perf_counter() - start


@pytest.mark.parametrize("deg", sorted(STALLED_PINNED))
def test_pinned_stalled_m2_bytes(deg, tmp_path, capsys):
    got, _ = stalled_analyze(deg, tmp_path)
    capsys.readouterr()
    assert hashlib.sha256(got).hexdigest() == STALLED_PINNED[deg]


@pytest.mark.parametrize("deg", sorted(STALLED_PINNED))
def test_stalled_m2_analyze_is_bounded(deg, tmp_path, capsys):
    _, seconds = stalled_analyze(deg, tmp_path)
    capsys.readouterr()
    assert seconds < STALLED_BOUND_S


@pytest.mark.parametrize("kind,m", sorted(LARGE_M_PINNED))
def test_large_m_analyze_is_bounded_and_pinned(kind, m, tmp_path, capsys):
    field, out = tmp_path / "field.json", tmp_path / "out.json"
    start = time.perf_counter()
    assert main(["gen", "--group", kind, "-m", str(m), "--marked", "0,1", "--deg-bound", "1",
                 "--seed", "0", "-o", str(field)]) == 0
    code = main(["analyze", str(field), "--format", "json", "-o", str(out)])
    seconds = time.perf_counter() - start
    capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LARGE_M_PINNED[kind, m]
    assert seconds < LARGE_M_BOUND_S


BOX = ["-m", "2:9", "-g", "3:13", "-n", "2:9"]  # 8 x 11 x 8 per group

# case -> argv of `main`, or the file name of a script in scripts/ run with its defaults
SWEEP_CASES = {
    "sweep-csv": ["sweep", "--format", "csv"],
    "sweep-json": ["sweep", "--format", "json"],
    "sweep-md": ["sweep", "--format", "md"],
    "box-deg0": ["sweep", *BOX, "--deg-m", "0"],
    "box-deg2": ["sweep", *BOX, "--deg-m", "2", "--format", "json"],
    "box-deg4": ["sweep", *BOX, "--deg-m", "4", "--format", "json"],
    "sp-so-even-deg1": ["sweep", "--groups", "sp,so-even", "--deg-m", "1"],
    "so-odd-odd-deg": ["sweep", "--groups", "so-odd", "--deg-m", "1"],
    "dims-sp": ["dims", "--group", "sp", "-m", "1:5", "-g", "2:7", "-n", "1:5", "--deg-m", "3"],
    "dims-so-even": ["dims", "--group", "so-even", "-m", "1:5", "-g", "2:7", "-n", "1:5",
                     "--format", "json"],
    "dims-so-odd": ["dims", "--group", "so-odd", "-m", "1:5", "-g", "2:7", "-n", "1:5",
                    "--deg-m", "-2", "--format", "md"],
    "pfaffian-space-report": "pfaffian_space_report.py",
    "run-dimension-sweep": "run_dimension_sweep.py",
}

SWEEP_PINNED = {
    "box-deg0":
        "b7c55894fc158468c0e4f6544c334c65e6f094e085079ce171eacdb5387b707e",
    "box-deg2":
        "ac59e0159af933dbbe8f23811113ec9d09c9046349fefbda48baf5094fca877c",
    "box-deg4":
        "ac59e0159af933dbbe8f23811113ec9d09c9046349fefbda48baf5094fca877c",
    "dims-so-even":
        "3d277be005a437cf8db6809c9e704d3415e928942177cd97f25ef0bcbc5a5bbe",
    "dims-so-odd":
        "14edc21cf01c9f95dec7f3fbb4c326671f5d114e8ebad3b06500dedf67678e1f",
    "dims-sp":
        "f7776a2456500ae580145c0cc0995c91eb819112467513c47322e8cbe77f59fc",
    "pfaffian-space-report":
        "eb8b83c4b8dfce2f339d55a8610d74555648c0bbc7cca181ea1ca791f478d2e3",
    "run-dimension-sweep":
        "77d644b6b7bd93b53c8f4247579d2c7b2a2183bb02f5f7d40f5a4388a1ba2d60",
    "so-odd-odd-deg":
        "ae70eb688c64233f7fdbd56e6c698d10add38ac900c5be610aab1b7eacc2a3f0",
    "sp-so-even-deg1":
        "683c381c0233bc36ea607048136004b403d68e6c090924c3c1843cf2c0b718ba",
    "sweep-csv":
        "f22e7864b3da53c593babf2f8f7fee3f0d23a9b84c29b635128929345add7f59",
    "sweep-json":
        "cc36459f2d46fa3dc2045d62629ab8ba5dff83ed4fe8d244ff5e1b1ed7b079eb",
    "sweep-md":
        "77d644b6b7bd93b53c8f4247579d2c7b2a2183bb02f5f7d40f5a4388a1ba2d60",
}


def sweep_case_bytes(case: str, workdir, capsys) -> bytes:
    argv = SWEEP_CASES[case]
    if isinstance(argv, str):
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / argv)],
            capture_output=True, timeout=300, cwd=root, env={**os.environ, "PYTHONHASHSEED": "0"},
        )
        return f"exit {proc.returncode}\n".encode() + proc.stdout
    got = _run(argv, workdir / "out.txt")
    return got + capsys.readouterr().err.encode()


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_pinned_sweep_bytes(case, tmp_path, capsys):
    got = sweep_case_bytes(case, tmp_path, capsys)
    assert hashlib.sha256(got).hexdigest() == SWEEP_PINNED[case]


Z5 = {"num": [], "den": ["5"]}

# fields written by hand in forms `gen` never writes; each name says what it holds
HAND_WRITTEN_FIELDS = {
    # Phi = [[3/4, -1/(8t)], [0, -3/4]]
    "sp-unreduced": {
        "group": "sp", "m": 1, "marked_points": ["0", "1/2"],
        "matrix": [[{"num": ["0", "1.5"], "den": ["0", "2", "0"]},
                    {"num": ["-3/6", "1"], "den": ["0", "4", "-8"]}],
                   [Z5, {"num": ["0", "-1.5"], "den": ["0", "2"]}]],
    },
    # Phi = diag(t - 1, 1 - t)
    "so-even-scaled": {
        "group": "so-even", "m": 1, "marked_points": ["0", "1"],
        "matrix": [[{"num": ["-2", "0", "2"], "den": ["2", "2"]}, Z5],
                   [{"num": [], "den": ["0", "1"]}, {"num": ["-3/6", "3/6"], "den": ["-0.5"]}]],
    },
    # B = [[0, 1/2], [1/2, 0]] and Phi = diag(1/(3t), -1/(3t))
    "so-even-gram": {
        "group": "so-even", "m": 1, "marked_points": ["0"],
        "gram": [[Z5, {"num": ["0", "2"], "den": ["0", "4"]}],
                 [{"num": ["-3/6"], "den": ["-1"]}, {"num": [], "den": ["1", "1"]}]],
        "matrix": [[{"num": ["2", "2"], "den": ["0", "6", "6"]}, Z5],
                   [Z5, {"num": ["-1.5"], "den": ["0", "4.5"]}]],
    },
    # Phi = [[2t, 0, 1/(2t)], [0, -2t, 1/2], [-1/2, -1/(2t), 0]]
    "so-odd-unreduced": {
        "group": "so-odd", "m": 1, "marked_points": ["0"],
        "matrix": [[{"num": ["0", "0", "4"], "den": ["0", "2", "0"]}, Z5,
                    {"num": ["1"], "den": ["0", "2"]}],
                   [Z5, {"num": ["0", "-6"], "den": ["3"]},
                    {"num": ["-3/6", "1"], "den": ["-1", "2"]}],
                   [{"num": ["-1"], "den": ["2"]}, {"num": ["-1.5"], "den": ["0", "3"]}, Z5]],
    },
}

HAND_WRITTEN_PINNED = {
    "sp-unreduced":
        "08f97b761776c41939758f277318e0f8a5a253d5f7c0b54a60fa7532c0516d8b",
    "so-even-scaled":
        "d10f191aff1dbc5e23ad73c6591dd2ed05031bb6c376709d83d7bea69d71f068",
    "so-even-gram":
        "589a6a27e64be8a163ded10746fa0ed333ad13caaeac2660bce8cc87898b4047",
    "so-odd-unreduced":
        "aa1ea40f4faadb4cc02e9b8a4a1a94e6ea55a56e9df3212bfca7493f3ac6313f",
    "so-odd-unreduced reduce-odd":
        "62763fe3bb9d279ff5671b9328e430088fdfbb30d604010f9eb96a4d45d252c5",
}

# an sp(2) field with a zero denominator, written with and without a trailing zero
ZERO_DENOMINATOR_PINNED = {
    '["0", "0"]': "910fc68554b83015b1080a28f72f0bcd5519b7ec7e4e979f234edf39a3b3326f",
    "[]": "910fc68554b83015b1080a28f72f0bcd5519b7ec7e4e979f234edf39a3b3326f",
}


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN_PINNED))
def test_pinned_hand_written_bytes(name, tmp_path, capsys):
    field, _, command = name.partition(" ")
    path = tmp_path / "field.json"
    path.write_text(json.dumps(HAND_WRITTEN_FIELDS[field]))
    argv = [command, str(path)] if command else ["analyze", str(path), "--format", "json"]
    got = _run(argv, tmp_path / "out.json")
    capsys.readouterr()
    assert hashlib.sha256(got).hexdigest() == HAND_WRITTEN_PINNED[name]


@pytest.mark.parametrize("den", sorted(ZERO_DENOMINATOR_PINNED))
def test_pinned_zero_denominator_bytes(den, tmp_path, capsys):
    doc = {"group": "sp", "m": 1, "marked_points": ["0"],
           "matrix": [[Z5, {"num": ["1"], "den": json.loads(den)}], [Z5, Z5]]}
    path = tmp_path / "field.json"
    path.write_text(json.dumps(doc))
    got = _run(["analyze", str(path), "--format", "json"], tmp_path / "out.json")
    got += capsys.readouterr().err.encode()
    assert hashlib.sha256(got).hexdigest() == ZERO_DENOMINATOR_PINNED[den]
