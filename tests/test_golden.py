"""Byte-for-byte golden outputs of the CLI.

Every file under tests/golden/ is the exact stdout of `kmgroups <command>`
for the case named in GOLDEN.  The rank-4 depth-5 outputs (`module`,
187 kB, and `verify`, 11 kB) and the E10 lambda=1^10 depth-3 `module`
(345 kB) are stored as the SHA-256 of those bytes, and so are the deeper
`verify` runs: rank-4 lambda=(1,1,1,1) at depth 6 and E10 lambda=1^10 at
depth 3, where 18 of the 354 relation instances end window_empty (exit 4).
The E10 depth-4 `module` is at lambda=omega_1, where 995 of the 1001 depth
vectors have weight space 0.  The E10 lambda=1^10 depth-3 `kernel` runs the
kernel probe over all 1,024 subsets of the nodes.
The `word` cases in WORD_GOLDEN carry a scalar of 10^12, so their images
reach 10^24 and pin the exact arbitrary-precision arithmetic; the depth-5
one also takes chi_+ and chi_- at the non-unit scalars 3, -7 and -10^12.
A refactor or speed-up of any layer must leave all of them identical: the
integers they hold are the Z-form bases, operator blocks, relation reports
and kernel verdicts.
"""

import hashlib
import json
from pathlib import Path

import pytest

from kmgroups.cartan import e_gcm, gcm_to_json, path_gcm, triangle_with_pendant_gcm
from kmgroups.cli import EXIT_OK, EXIT_RELATION_FAILED, EXIT_WINDOW_EMPTY, main

GOLDEN_DIR = Path(__file__).parent / "golden"

DIAGRAMS = {
    "a2": path_gcm(2),
    "a3": path_gcm(3),
    "rank4": triangle_with_pendant_gcm(),
    "e10": e_gcm(10),
}

# (command, diagram, lambda, depth, stored form)
GOLDEN = [
    ("module", "a2", "1,1", 4, "json"),
    ("module", "a3", "1,1,1", 5, "json"),
    ("module", "rank4", "1,1,1,1", 4, "json"),
    ("verify", "a2", "1,1", 4, "json"),
    ("kernel", "a2", "1,1", 4, "json"),
    ("verify", "rank4", "1,1,1,1", 4, "json"),
    ("kernel", "rank4", "1,1,1,1", 4, "json"),
    ("module", "rank4", "1,1,1,1", 5, "sha256"),
    ("verify", "a3", "1,1,1", 5, "json"),
    ("kernel", "a3", "1,1,1", 5, "json"),
    ("verify", "rank4", "1,1,1,1", 5, "sha256"),
    ("kernel", "rank4", "1,1,1,1", 5, "json"),
    ("commutator-signs", "rank4", "1,1,1,1", 4, "json"),
    ("module", "e10", ",".join("1" * 10), 3, "sha256"),
    ("module", "e10", ",".join("1" + "0" * 9), 4, "json"),
    ("verify", "rank4", "1,1,1,1", 6, "sha256"),
    ("verify", "e10", ",".join("1" * 10), 3, "sha256"),
    ("kernel", "e10", ",".join("1" * 10), 3, "json"),
]

# exit code of the GOLDEN cases that do not exit EXIT_OK
EXIT_CODE = {("verify", "e10", 3): EXIT_WINDOW_EMPTY}


@pytest.mark.parametrize(
    "command,diagram,lam,depth,form",
    GOLDEN,
    ids=[f"{c}-{g}-d{d}" for c, g, _, d, _ in GOLDEN],
)
def test_cli_output_matches_golden(capsys, tmp_path, command, diagram, lam, depth, form):
    gcm_path = tmp_path / f"{diagram}.json"
    gcm_path.write_text(json.dumps(gcm_to_json(DIAGRAMS[diagram])))
    code = main(
        [command, "--gcm", str(gcm_path), "--lambda", lam, "--depth", str(depth)]
    )
    assert code == EXIT_CODE.get((command, diagram, depth), EXIT_OK)
    out = capsys.readouterr().out.encode()
    golden = GOLDEN_DIR / f"{command}_{diagram}_d{depth}.{form}"
    if form == "sha256":
        assert hashlib.sha256(out).hexdigest() == golden.read_text().strip()
    else:
        assert out == golden.read_bytes()


# (diagram, lambda, depth, word): `kmgroups word` output, stored as JSON
WORD_GOLDEN = [
    ("a2", "1,1", 4, "X1(1000000000000)"),
    ("rank4", "1,1,1,1", 4, "X1(1000000000000) Y2(-1000000000000) S3"),
    ("rank4", "1,1,1,1", 5, "Y4(-1000000000000) X2(3) S1^-1 X3(-7)"),
]


@pytest.mark.parametrize(
    "diagram,lam,depth,word",
    WORD_GOLDEN,
    ids=[f"word-{g}-d{d}" for g, _, d, _ in WORD_GOLDEN],
)
def test_word_output_matches_golden(capsys, tmp_path, diagram, lam, depth, word):
    gcm_path = tmp_path / f"{diagram}.json"
    gcm_path.write_text(json.dumps(gcm_to_json(DIAGRAMS[diagram])))
    code = main(
        ["word", "--gcm", str(gcm_path), "--lambda", lam, "--depth", str(depth),
         "--word", word]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out.encode()
    assert out == (GOLDEN_DIR / f"word_{diagram}_d{depth}.json").read_bytes()


# (diagram, lambda, depth, relation, left word): `kmgroups verify` output,
# stored as JSON, with the left word of every instance of the relation
# replaced, so that those instances fail (exit 3) and report a witness.  The
# A2 left word is R2's extended by X{i}(1).  The rank-4 one is R11's
# commutator at the scalar 2, so that neither sign verifies and the two
# signs' witnesses differ: the +1 outcome is the one reported.
SABOTAGED = [
    ("a2", "1,1", 4, "R2", "S{i}^2 X{i}(1) S{i}^-2 X{i}(-1) X{i}(1)"),
    ("rank4", "1,1,1,1", 5, "R11", "X{i}(2) X{j}(1) X{i}(-2) X{j}(-1)"),
]


@pytest.mark.parametrize(
    "diagram,lam,depth,rid,left",
    SABOTAGED,
    ids=[f"witness-{g}-d{d}-{r}" for g, _, d, r, _ in SABOTAGED],
)
def test_witness_output_matches_golden(
    capsys, tmp_path, monkeypatch, diagram, lam, depth, rid, left
):
    import kmgroups.verifier as verifier

    real = verifier.relation_words

    def sabotage(r, nodes, sign=1):
        lhs, rhs = real(r, nodes, sign)
        if r == rid:
            text = left.format(i=nodes[0] + 1, j=nodes[-1] + 1)
            lhs = verifier.parse_word(text, max(nodes) + 1)
        return lhs, rhs

    monkeypatch.setattr(verifier, "relation_words", sabotage)
    gcm_path = tmp_path / f"{diagram}.json"
    gcm_path.write_text(json.dumps(gcm_to_json(DIAGRAMS[diagram])))
    code = main(
        ["verify", "--gcm", str(gcm_path), "--lambda", lam, "--depth", str(depth)]
    )
    assert code == EXIT_RELATION_FAILED
    out = capsys.readouterr().out.encode()
    failed = [r for r in json.loads(out)["relations"] if r["status"] != "verified"]
    assert failed and all(r["id"] == rid and "witness" in r for r in failed)
    assert all("sign" not in r for r in failed)
    golden = GOLDEN_DIR / f"witness_{diagram}_d{depth}_{rid}.json"
    assert out == golden.read_bytes()
