import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kmgroups import cli, verifier
from kmgroups.cartan import e_gcm, gcm_to_json
from kmgroups.cli import (
    EXIT_INVALID,
    EXIT_IO,
    EXIT_OK,
    EXIT_ORACLE_MISMATCH,
    EXIT_RELATION_FAILED,
    EXIT_WINDOW_EMPTY,
    main,
)
from kmgroups.groupgen import GeneratorSymbol
from kmgroups.verifier import OracleMismatch, SignNone

A2 = {"matrix": [[2, -1], [-1, 2]]}
B2 = {"matrix": [[2, -2], [-1, 2]]}
NOT_GCM = {"matrix": [[2, 1], [1, 2]]}
NOT_SYMMETRIZABLE = {"matrix": [[2, -1, -1], [-2, 2, -1], [-1, -1, 2]]}


@pytest.fixture()
def a2_file(tmp_path):
    p = tmp_path / "a2.json"
    p.write_text(json.dumps(A2))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_classify_ok(capsys, a2_file):
    code, out = run(capsys, ["classify", "--gcm", a2_file])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload == {"type": "finite", "simply_laced": True, "hyperbolic": False}


def test_classify_missing_file(capsys, tmp_path):
    code, _ = run(capsys, ["classify", "--gcm", str(tmp_path / "absent.json")])
    assert code == EXIT_IO


def test_classify_invalid_gcm(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(NOT_GCM))
    code, _ = run(capsys, ["classify", "--gcm", str(p)])
    assert code == EXIT_INVALID


def test_classify_non_symmetrizable(capsys, tmp_path):
    # A valid GCM axiom-wise, but a_01 a_12 a_20 != a_10 a_21 a_02.
    p = tmp_path / "cyclic.json"
    p.write_text(json.dumps(NOT_SYMMETRIZABLE))
    code = main(["classify", "--gcm", str(p)])
    captured = capsys.readouterr()
    assert code == EXIT_INVALID
    assert captured.out == ""
    assert captured.err == "error: NotGCM: matrix is not symmetrizable\n"


def test_classify_bad_json(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _ = run(capsys, ["classify", "--gcm", str(p)])
    assert code == EXIT_INVALID


NEEDS = {"classify": [], "verify": ["--lambda", "1,1", "--depth", "1"],
         "word": ["--lambda", "1,1", "--depth", "1", "--word", "S1"]}


@pytest.mark.parametrize("command", list(NEEDS))
def test_non_utf8_gcm_is_invalid_input(capsys, tmp_path, command):
    # a UTF-16 byte order mark and text: not UTF-8, so not a JSON file
    p = tmp_path / "bad.json"
    p.write_bytes(b"\xff\xfe\x00" + json.dumps(A2).encode("utf-16-le"))
    code = main([command, "--gcm", str(p)] + NEEDS[command])
    captured = capsys.readouterr()
    assert code == EXIT_INVALID
    assert captured.out == ""
    assert captured.err.startswith(f"error: bad JSON in {p}: ")
    assert captured.err.count("\n") == 1


MALFORMED = {"number": 5, "matrix-number": {"matrix": 5},
             "matrix-flat": {"matrix": [1, 2]}, "matrix-null": {"matrix": None},
             "string": "abc"}


@pytest.mark.parametrize("command", ["classify", "verify"])
@pytest.mark.parametrize("shape", list(MALFORMED))
def test_malformed_gcm_is_invalid_input(capsys, tmp_path, shape, command):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(MALFORMED[shape]))
    argv = [command, "--gcm", str(p)]
    if command == "verify":
        argv += ["--lambda", "1,1", "--depth", "1"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_INVALID
    assert captured.out == ""
    assert captured.err.startswith("error: NotGCM: ")


def test_roots_command(capsys, a2_file):
    code, out = run(capsys, ["roots", "--gcm", a2_file, "--height", "5"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["count"] == 6
    assert payload["positive_roots"] == [[0, 1], [1, 0], [1, 1]]


def test_roots_rejects_not_simply_laced(capsys, tmp_path):
    p = tmp_path / "b2.json"
    p.write_text(json.dumps(B2))
    code, _ = run(capsys, ["roots", "--gcm", str(p), "--height", "3"])
    assert code == EXIT_INVALID


def test_roots_bad_height(capsys, a2_file):
    code, _ = run(capsys, ["roots", "--gcm", a2_file, "--height", "0"])
    assert code == EXIT_INVALID


def test_module_command(capsys, a2_file):
    code, out = run(
        capsys,
        ["module", "--gcm", a2_file, "--lambda", "1,1", "--depth", "4"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["lambda"] == [1, 1]
    assert sum(w["rank"] for w in payload["weights"]) == 8


def _bad_lambda(capsys, a2_file, lam):
    """(exit code, stderr) of `module` on A2 with the given lambda text."""
    code = main(["module", "--gcm", a2_file, "--lambda", lam, "--depth", "3"])
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


def test_module_non_dominant_lambda(capsys, a2_file):
    assert _bad_lambda(capsys, a2_file, "1,-1") == (
        EXIT_INVALID, "error: NonDominantWeight: negative coordinate in (1, -1)\n"
    )


def test_module_lambda_not_integers(capsys, a2_file):
    assert _bad_lambda(capsys, a2_file, "x,1") == (
        EXIT_INVALID, "error: bad lambda 'x,1'\n"
    )


def test_module_wrong_lambda_length(capsys, a2_file):
    assert _bad_lambda(capsys, a2_file, "1") == (
        EXIT_INVALID, "error: ValueError: lambda has 1 coordinates, rank 2\n"
    )


def test_module_max_basis_overflow(capsys, a2_file):
    code, _ = run(
        capsys,
        [
            "module", "--gcm", a2_file, "--lambda", "1,1",
            "--depth", "4", "--max-basis", "3",
        ],
    )
    assert code == EXIT_INVALID


@pytest.mark.parametrize(
    "command,extra",
    [
        ("module", []),
        ("verify", []),
        ("kernel", []),
        ("word", ["--word", "S1"]),
        ("commutator-signs", []),
    ],
)
def test_negative_depth_is_invalid_input(capsys, a2_file, command, extra):
    code = main(
        [command, "--gcm", a2_file, "--lambda", "1,1", "--depth", "-1", *extra]
    )
    captured = capsys.readouterr()
    assert code == EXIT_INVALID
    assert captured.out == ""
    assert captured.err == "error: ValueError: depth must be >= 0\n"


def test_verify_ok(capsys, a2_file):
    code, out = run(
        capsys,
        ["verify", "--gcm", a2_file, "--lambda", "1,1", "--depth", "6"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert all(r["status"] == "verified" for r in payload["relations"])
    assert payload["kernel"]["subgroup_order"] == 1


def test_verify_window_empty_exit(capsys, a2_file):
    code, _ = run(
        capsys,
        ["verify", "--gcm", a2_file, "--lambda", "1,1", "--depth", "1"],
    )
    assert code == EXIT_WINDOW_EMPTY


def test_verify_min_window(capsys, a2_file):
    argv = ["verify", "--gcm", a2_file, "--lambda", "1,1", "--depth", "4"]
    code, out = run(capsys, argv + ["--min-window", "5"])
    assert code == EXIT_WINDOW_EMPTY
    relations = json.loads(out)["relations"]
    assert relations and all(r["status"] == "window_empty" for r in relations)
    # the default window is 0, so passing it changes no byte
    assert run(capsys, argv + ["--min-window", "0"]) == run(capsys, argv)


@pytest.mark.parametrize(
    "command,patched", [("verify", verifier), ("kernel", cli)], ids=["verify", "kernel"]
)
def test_oracle_mismatch_exit(capsys, a2_file, tmp_path, monkeypatch, command, patched):
    def mismatch(module):
        raise OracleMismatch("h_S matrix for S=[0] differs from the identity")

    monkeypatch.setattr(patched, "kernel_probe", mismatch)
    argv = [command, "--gcm", a2_file, "--lambda", "1,1", "--depth", "4"]
    code, out = run(capsys, argv)
    assert code == EXIT_ORACLE_MISMATCH
    assert json.loads(out) == {
        "error": "OracleMismatch: h_S matrix for S=[0] differs from the identity"
    }
    # the error report itself cannot be written: an I/O error
    code = main(argv + ["--out", str(tmp_path / "no_dir" / "x.json")])
    assert code == EXIT_IO
    assert capsys.readouterr().err.startswith("error: cannot write ")


@pytest.mark.parametrize("depth", [10**9, 10**20])
def test_depth_beyond_the_module_stops_early(capsys, a2_file, depth):
    # The A2 module of lambda = (1, 1) is the 8-dimensional adjoint module,
    # whose deepest weight has depth 4; a larger depth must stop there, and
    # one past int64 must not overflow.
    common = ["--gcm", a2_file, "--lambda", "1,1", "--depth"]
    _, small = run(capsys, ["module", *common, "4"])
    code, big = run(capsys, ["module", *common, str(depth)])
    assert code == EXIT_OK
    small, big = json.loads(small), json.loads(big)
    assert (small.pop("depth"), big.pop("depth")) == (4, depth)
    assert big == small
    code, out = run(capsys, ["verify", *common, str(depth)])
    assert code == EXIT_OK
    assert all(r["status"] == "verified" for r in json.loads(out)["relations"])
    code, out = run(capsys, ["word", *common, str(depth), "--word", "S1 Y2(1)"])
    assert code == EXIT_OK
    assert json.loads(out)["window"] == depth


def test_verify_failure_exit(capsys, a2_file, monkeypatch):
    import kmgroups.cli as cli
    import kmgroups.verifier as verifier

    real = verifier.relation_words

    def sabotage(rid, nodes, sign=1):
        lhs, rhs = real(rid, nodes, sign=sign)
        if rid == "R2":
            return lhs + [GeneratorSymbol("X+", nodes[0], 1)], rhs
        return lhs, rhs

    monkeypatch.setattr(verifier, "relation_words", sabotage)
    code, out = run(
        capsys,
        ["verify", "--gcm", a2_file, "--lambda", "1,1", "--depth", "4"],
    )
    assert code == EXIT_RELATION_FAILED
    payload = json.loads(out)
    statuses = {r["id"]: r["status"] for r in payload["relations"]}
    assert statuses["R2"] == "failed"
    assert statuses["R1"] == "verified"


def test_kernel_command(capsys, a2_file):
    code, out = run(
        capsys,
        ["kernel", "--gcm", a2_file, "--lambda", "1,1", "--depth", "4"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["kernel"]["subgroup_order"] == 1


def test_commutator_signs_command(capsys, a2_file):
    code, out = run(
        capsys,
        ["commutator-signs", "--gcm", a2_file, "--lambda", "1,1", "--depth", "4"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert [s["pair"] for s in payload["signs"]] == [[1, 2], [2, 1]]
    assert all(s["sign"] in (1, -1) for s in payload["signs"])


def test_commutator_signs_ambiguous_pair_reports_null(capsys, tmp_path):
    # E10, lambda = omega_1, depth 2: away from node 1 the truncation is too
    # small to tell the two signs apart, so both R11 variants verify there.
    p = tmp_path / "e10.json"
    p.write_text(json.dumps(gcm_to_json(e_gcm(10))))
    code, out = run(
        capsys,
        [
            "commutator-signs", "--gcm", str(p),
            "--lambda", "1,0,0,0,0,0,0,0,0,0", "--depth", "2",
        ],
    )
    assert code == EXIT_OK
    signs = {tuple(s["pair"]): s["sign"] for s in json.loads(out)["signs"]}
    assert len(signs) == 18
    assert signs[(1, 2)] in (1, -1) and signs[(2, 1)] in (1, -1)
    assert signs[(2, 3)] is None and signs[(3, 2)] is None


def test_commutator_signs_no_sign_is_a_failure(capsys, a2_file, monkeypatch):
    def no_sign(module, i, j):
        raise SignNone(f"neither sign verifies for pair ({i}, {j})")

    monkeypatch.setattr(cli, "resolve_commutator_sign", no_sign)
    code, out = run(
        capsys,
        ["commutator-signs", "--gcm", a2_file, "--lambda", "1,1", "--depth", "4"],
    )
    assert code == EXIT_RELATION_FAILED
    assert json.loads(out)["error"].startswith("SignNone:")


def test_commutator_signs_window_empty_reports_error(capsys, a2_file):
    # at depth 0 the truncation is the highest weight line alone, and no
    # column of the R11 words is exact
    code, out = run(
        capsys,
        ["commutator-signs", "--gcm", a2_file, "--lambda", "1,1", "--depth", "0"],
    )
    assert code == EXIT_WINDOW_EMPTY
    assert json.loads(out)["error"].startswith("WindowEmpty:")


def test_pipeline_does_not_import_scipy(a2_file):
    # scipy.sparse alone adds about 20 MB of resident memory, and sympy's
    # import about 33 MB and 0.4 s; the pipeline needs numpy only.  A fresh
    # interpreter sees every import of the run.
    src = Path(cli.__file__).resolve().parents[1]
    script = (
        "import contextlib, io, json, sys\n"
        "from kmgroups import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main([cmd, '--gcm', "
        f"{a2_file!r}, '--lambda', '1,1', '--depth', '4'])\n"
        "             for cmd in ('verify', 'module')]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('scipy', 'sympy'))]))\n"
    )
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
    )
    assert json.loads(done.stdout) == [[EXIT_OK, EXIT_OK], []]


def test_word_command(capsys, a2_file):
    code, out = run(
        capsys,
        [
            "word", "--gcm", a2_file, "--lambda", "1,1",
            "--depth", "3", "--word", "X1(1) Y2(-1) S1",
        ],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["word"] == "X1(1) Y2(-1) S1"
    assert payload["window"] >= 0
    assert payload["columns"]


def test_word_bad_syntax(capsys, a2_file):
    code, _ = run(
        capsys,
        [
            "word", "--gcm", a2_file, "--lambda", "1,1",
            "--depth", "3", "--word", "Q1(1)",
        ],
    )
    assert code == EXIT_INVALID


def test_out_file_and_determinism(tmp_path, a2_file, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        code = main(
            [
                "verify", "--gcm", a2_file, "--lambda", "1,1",
                "--depth", "4", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_out_file_unwritable(capsys, a2_file, tmp_path):
    code, _ = run(
        capsys,
        [
            "classify", "--gcm", a2_file,
            "--out", str(tmp_path / "no_dir" / "x.json"),
        ],
    )
    assert code == EXIT_IO


# Each subcommand's options in declaration order, as (option strings, required).
IO_OPTIONS = [(("-h", "--help"), False), (("--gcm",), True), (("--out",), False)]
MODULE_OPTIONS = IO_OPTIONS + [
    (("--lambda",), True), (("--depth",), True), (("--max-basis",), False),
]
OPTIONS = {
    "classify": IO_OPTIONS,
    "roots": IO_OPTIONS + [(("--height",), True)],
    "module": MODULE_OPTIONS,
    "verify": MODULE_OPTIONS + [(("--min-window",), False)],
    "kernel": MODULE_OPTIONS,
    "commutator-signs": MODULE_OPTIONS,
    "word": MODULE_OPTIONS + [(("--word",), True)],
}


def test_subcommand_options_are_pinned():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        name: [(tuple(a.option_strings), a.required) for a in p._actions]
        for name, p in sub.choices.items()
    }
    assert got == OPTIONS


def test_module_builds_through_the_module_level_build_module(
    capsys, a2_file, monkeypatch
):
    # perfbench times every build by replacing cli.build_module, so the
    # commands must look it up when they call it
    built = []
    real = cli.build_module

    def spy(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "build_module", spy)
    code, out = run(
        capsys, ["module", "--gcm", a2_file, "--lambda", "1,1", "--depth", "4"]
    )
    assert code == EXIT_OK
    assert len(built) == 1
    assert json.loads(out) == cli.module_to_json(built[0])
