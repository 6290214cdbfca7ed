"""Command-line front end.

Commands: classify, roots, module, verify, kernel, commutator-signs, word.
All output is deterministic JSON (fixed key order, sorted collections).
Relation nodes, commutator-sign pairs and word letters number the nodes
from 1; the kernel subsets (members, generators, not_separated) are lists
of 0-based nodes.

Exit codes:
  0  success
  1  I/O error (unreadable input, unwritable output)
  2  invalid input (bad GCM, non-dominant lambda, bad word syntax)
  3  at least one relation instance failed
  4  at least one relation instance had an empty validity window
  5  kernel oracle mismatch (internal inconsistency)
"""

from __future__ import annotations

import argparse
import json
import sys

from . import roots as rootsmod
from .cartan import (
    NotGCM,
    NotSimplyLaced,
    classify,
    gcm_from_json,
    gcm_to_json,
    is_hyperbolic,
)
from .groupgen import (
    NonUnitScalar,
    WindowEmpty,
    WordSyntaxError,
    evaluate_word,
    parse_word,
)
from .verifier import (
    OracleMismatch,
    SignNone,
    column_json,
    kernel_probe,
    report_head,
    resolve_commutator_sign,
    verify_all,
)
from .weightmod import DepthOverflow, DominantWeight, build_module, module_to_json

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_RELATION_FAILED = 3
EXIT_WINDOW_EMPTY = 4
EXIT_ORACLE_MISMATCH = 5
EXIT_ON_ERROR = {  # what a command lets through, reported as {"error": ...}
    SignNone: EXIT_RELATION_FAILED,  # raised by commutator-signs
    WindowEmpty: EXIT_WINDOW_EMPTY,  # raised by commutator-signs
    OracleMismatch: EXIT_ORACLE_MISMATCH,  # raised by the kernel probe
}


def _load_gcm(path: str, require_simply_laced: bool = False):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot read {path}: {exc}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise _CliError(EXIT_INVALID, f"bad JSON in {path}: {exc}")
    try:
        return gcm_from_json(data, require_simply_laced=require_simply_laced)
    except (NotGCM, NotSimplyLaced) as exc:
        raise _CliError(EXIT_INVALID, f"{type(exc).__name__}: {exc}")


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _CliError(EXIT_IO, f"cannot write {out_path}: {exc}")
    else:
        sys.stdout.write(text)


def _build(args):
    gcm = _load_gcm(args.gcm, require_simply_laced=True)
    try:
        coords = [int(c) for c in args.lam.split(",")]
    except ValueError:
        raise _CliError(EXIT_INVALID, f"bad lambda {args.lam!r}")
    try:  # dominance, length, depth and the basis cap
        lam = DominantWeight(coords)
        return build_module(gcm, lam, args.depth, max_basis=args.max_basis)
    except (DepthOverflow, ValueError) as exc:
        raise _CliError(EXIT_INVALID, f"{type(exc).__name__}: {exc}")


def cmd_classify(args) -> tuple[dict, int]:
    gcm = _load_gcm(args.gcm)
    try:
        kind = classify(gcm)  # NotGCM if no symmetrizer exists
        hyperbolic = gcm.is_connected() and is_hyperbolic(gcm)
    except NotGCM as exc:
        raise _CliError(EXIT_INVALID, f"NotGCM: {exc}")
    payload = {
        "type": kind,
        "simply_laced": gcm.simply_laced,
        "hyperbolic": hyperbolic,
    }
    return payload, EXIT_OK


def cmd_roots(args) -> tuple[dict, int]:
    gcm = _load_gcm(args.gcm, require_simply_laced=True)
    if args.height < 1:
        raise _CliError(EXIT_INVALID, "height bound must be >= 1")
    rset = rootsmod.enumerate_real_roots(gcm, args.height)
    positives = rset.positive()
    payload = {
        "diagram": gcm_to_json(gcm),
        "height_bound": args.height,
        "count": len(rset),
        "positive_roots": [list(r.coeffs) for r in positives],
    }
    return payload, EXIT_OK


def cmd_module(args) -> tuple[dict, int]:
    return module_to_json(_build(args)), EXIT_OK


def cmd_verify(args) -> tuple[dict, int]:
    report = verify_all(_build(args), min_window=args.min_window)
    code = EXIT_OK
    if any(r.status == "failed" for r in report.results):
        code = EXIT_RELATION_FAILED
    elif report.any_window_empty:
        code = EXIT_WINDOW_EMPTY
    return report.to_json(), code


def cmd_kernel(args) -> tuple[dict, int]:
    module = _build(args)
    payload = report_head(module)
    payload["kernel"] = kernel_probe(module)
    return payload, EXIT_OK


def cmd_commutator_signs(args) -> tuple[dict, int]:
    module = _build(args)
    gcm, signs = module.gcm, []
    for i, j in [(i, j) for i in range(gcm.rank) for j in gcm.neighbors(i)]:
        eps = resolve_commutator_sign(module, i, j)
        signs.append({"pair": [i + 1, j + 1], "sign": eps})
    payload = report_head(module)
    payload["signs"] = signs
    return payload, EXIT_OK


def cmd_word(args) -> tuple[dict, int]:
    module = _build(args)
    try:
        symbols = parse_word(args.word, module.gcm.rank)
    except (WordSyntaxError, NonUnitScalar) as exc:
        raise _CliError(EXIT_INVALID, f"{type(exc).__name__}: {exc}")
    mat = evaluate_word(module, symbols)
    window = mat.valid_depth()
    columns = []
    for j in mat.flags.nonzero()[0].tolist():  # the exact columns
        k = module.keys[module.slice_of[j]]
        c = j - module.offset[k]
        source = {"depth_vector": list(k), "index": c}
        columns.append({"source": source, "image": column_json(mat.column(k, c))})
    payload = report_head(module)
    payload.update(word=args.word, window=window, columns=columns)
    return payload, EXIT_WINDOW_EMPTY if window < 0 else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kmgroups",
        description="Exact computations in simply-laced hyperbolic "
        "Kac-Moody groups over Z",
    )
    # the options every command shares (io), and those of the commands
    # that build a module (build)
    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--gcm", required=True, help="path to GCM JSON file")
    io.add_argument("--out", default=None, help="output JSON path (default stdout)")
    build = argparse.ArgumentParser(add_help=False, parents=[io])
    build.add_argument(
        "--lambda",
        dest="lam",
        required=True,
        help='dominant weight coordinates, e.g. "1,1,1,1"',
    )
    build.add_argument("--depth", type=int, required=True)
    build.add_argument(
        "--max-basis",
        type=int,
        default=None,
        help="cap on total basis vectors (DepthOverflow beyond)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, func, parent, text in [
        ("classify", cmd_classify, io, "diagram type / simply-laced / hyperbolic"),
        ("roots", cmd_roots, io, "enumerate real roots up to a height bound"),
        ("module", cmd_module, build, "build a depth-truncated Z-form"),
        ("verify", cmd_verify, build, "verify the relations R1-R12"),
        ("kernel", cmd_kernel, build, "probe the kernel intersection with H(Z)"),
        ("commutator-signs", cmd_commutator_signs, build,
         "resolve structure-constant signs per adjacent pair"),
        ("word", cmd_word, build, "evaluate a generator word on the module"),
    ]:
        commands[name] = sub.add_parser(name, parents=[parent], help=text)
        commands[name].set_defaults(func=func)
    commands["roots"].add_argument("--height", type=int, required=True)
    commands["verify"].add_argument(
        "--min-window",
        type=int,
        default=0,
        help="minimum joint validity window required per instance",
    )
    commands["word"].add_argument(
        "--word", required=True, help='e.g. "X1(1) S2 S1^-1 Y3(-2)"'
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            payload, code = args.func(args)
        except tuple(EXIT_ON_ERROR) as exc:
            payload = {"error": f"{type(exc).__name__}: {exc}"}
            code = EXIT_ON_ERROR[type(exc)]
        _emit(payload, args.out)
        return code
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
