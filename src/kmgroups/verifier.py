"""Mechanical verification of the defining relations of G(Z).

The twelve relation families (numbered R1-R12) are instantiated over the
nodes / node pairs of the diagram and checked as matrix identities in the
truncated representation: _compare checks two evaluated matrices on every
mutually exact column within their joint validity window, and a failure's
witness is the first column on which they differ.  R11 carries an unresolved
structure-constant sign, found by comparing its commutator side, evaluated
once, with both candidates; it is None when both verify.

The kernel probe decides which elements h_S = prod_{i in S} h_i(-1) of the
finite diagonal subgroup act trivially, by a GF(2) parity criterion
cross-checked against the matrices themselves and against a diagonal
oracle that reads one parity table of the populated weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cartan import GeneralizedCartanMatrix, gcm_to_json
from .groupgen import (
    GeneratorSymbol,
    WindowEmpty,
    evaluate_word,
    h_element,
    shared_identity,
)
from .weightmod import DominantWeight, TruncatedModule


class SignNone(RuntimeError):
    """Neither structure-constant sign verifies; indicates a bug."""


class OracleMismatch(RuntimeError):
    """Kernel parity criterion disagrees with the matrix oracle."""


RELATION_IDS = [f"R{n}" for n in range(1, 13)]


def _X(i, t=1):
    return GeneratorSymbol("X+", i, t)


def _S(i, e=1):
    return GeneratorSymbol("S", i, e)


def _inv(word):
    return [sym.inverse() for sym in reversed(word)]


def _comm(a, b):
    return list(a) + list(b) + _inv(a) + _inv(b)


def relation_words(rid: str, nodes, sign: int = 1):
    """(lhs, rhs) words of a relation instance.

    nodes is (i,) or (i, j); sign only affects R11.
    """
    if rid in ("R1", "R2", "R3"):
        (i,) = nodes
    else:
        i, j = nodes
    if rid == "R1":
        return [_S(i)] * 4, []
    if rid == "R2":
        return _comm([_S(i), _S(i)], [_X(i)]), []
    if rid == "R3":
        return [_S(i)], [_X(i), _S(i), _X(i), _S(i, -1), _X(i)]
    if rid == "R4":
        return [_S(i), _S(j)], [_S(j), _S(i)]
    if rid == "R5":
        return _comm([_S(i)], [_X(j)]), []
    if rid == "R6":
        return _comm([_X(i)], [_X(j)]), []
    if rid == "R7":
        return [_S(i), _S(j), _S(i)], [_S(j), _S(i), _S(j)]
    if rid == "R8":
        return [_S(i), _S(i), _S(j), _S(i, -1), _S(i, -1)], [_S(j, -1)]
    if rid == "R9":
        return [_X(i), _S(j), _S(i)], [_S(j), _S(i), _X(j)]
    if rid == "R10":
        return [_S(i), _S(i), _X(j), _S(i, -1), _S(i, -1)], [_X(j, -1)]
    if rid == "R11":
        return _comm([_X(i)], [_X(j)]), [_S(i), _X(j, sign), _S(i, -1)]
    if rid == "R12":
        return _comm([_X(i)], [_S(i), _X(j), _S(i, -1)]), []
    raise ValueError(f"unknown relation id {rid!r}")


def relation_instances(gcm: GeneralizedCartanMatrix):
    """Yield (rid, nodes) for every relation instance, R1 to R12 in order.

    R1-R3 run over the nodes i, R4-R6 over the ordered non-adjacent pairs
    (i, j) and R7-R12 over the ordered adjacent pairs.
    """
    n = gcm.rank
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    nodes = (
        [[(i,) for i in range(n)]] * 3
        + [[p for p in pairs if not gcm.adjacent(*p)]] * 3
        + [[p for p in pairs if gcm.adjacent(*p)]] * 6
    )
    for rid, instances in zip(RELATION_IDS, nodes):
        for inst in instances:
            yield rid, inst


@dataclass
class RelationResult:
    id: str
    nodes: tuple[int, ...]
    status: str  # "verified" | "failed" | "window_empty"
    window: int | None = None
    columns: int | None = None
    sign: int | None = None
    witness: dict | None = None

    def to_json(self) -> dict:
        out = {
            "id": self.id,
            "nodes": [n + 1 for n in self.nodes],
            "status": self.status,
        }
        if self.window is not None:
            out["window"] = self.window
        if self.columns is not None:
            out["columns"] = self.columns
        if self.sign is not None:
            out["sign"] = self.sign
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _compare(lhs, rhs, min_window):
    """(equal, window, compared, witness) of the matrix lhs against rhs; the
    witness is the first mutually exact column on which they differ, in
    weight_keys() order."""
    equal, window, compared = lhs.equal_on_window(rhs, min_window=min_window)
    witness = None
    if not equal:
        k, c = next(
            (k, c)
            for k, flags in lhs.exact.items()
            for c, ok in enumerate(flags)
            if ok and rhs.exact[k][c] and lhs.column(k, c) != rhs.column(k, c)
        )
        witness = {
            "column": {"depth_vector": list(k), "index": c},
            "lhs_image": column_json(lhs.column(k, c)),
            "rhs_image": column_json(rhs.column(k, c)),
        }
    return equal, window, compared, witness


def column_json(col):
    """A column {target: entries}, as JSON sorted by target depth vector."""
    return [
        {"depth_vector": list(k), "entries": list(v)}
        for k, v in sorted(col.items())
    ]


def _compare_signs(module: TruncatedModule, rid: str, nodes, min_window: int):
    """({sign: _compare outcome}, the signs that verify) of a relation
    instance, for the signs 1 and -1 of R11 and for 1 alone otherwise; the
    left word does not depend on the sign and is evaluated once.  Raises
    WindowEmpty if a joint window is below min_window."""
    lhs = evaluate_word(module, relation_words(rid, nodes)[0])
    outcomes = {}
    for sign in (1, -1) if rid == "R11" else (1,):
        rhs = evaluate_word(module, relation_words(rid, nodes, sign)[1])
        outcomes[sign] = _compare(lhs, rhs, min_window)
    return outcomes, [sign for sign, out in outcomes.items() if out[0]]


def verify_relation(
    module: TruncatedModule, rid: str, nodes, min_window: int = 0
) -> RelationResult:
    nodes = tuple(nodes)
    try:
        outcomes, good = _compare_signs(module, rid, nodes, min_window)
    except WindowEmpty:
        return RelationResult(rid, nodes, "window_empty")
    # The verified sign's comparison, or the +1 one if none verifies.
    equal, window, compared, witness = outcomes[good[0] if good else 1]
    sign = good[0] if rid == "R11" and len(good) == 1 else None
    status = "verified" if equal else "failed"
    return RelationResult(rid, nodes, status, window, compared, sign, witness)


def resolve_commutator_sign(module: TruncatedModule, i: int, j: int) -> int | None:
    """The unique sign in [X_i, X_j] = S_i X_j(sign) S_i^-1 for adjacent i, j,
    or None when both signs verify (the truncation cannot tell them apart)."""
    if not module.gcm.adjacent(i, j):
        raise ValueError(f"nodes {i}, {j} are not adjacent")
    _, good = _compare_signs(module, "R11", (i, j), min_window=0)
    if not good:
        raise SignNone(f"neither sign verifies for pair ({i}, {j})")
    return good[0] if len(good) == 1 else None


# ---------------------------------------------------------------------------
# Kernel probe


def kernel_membership(gcm: GeneralizedCartanMatrix, lam, subset) -> bool:
    """Does h_S = prod_{i in S} h_i(-1) act trivially on V^lambda, lambda a
    DominantWeight?

    Parity criterion: sum_{i in S} <lambda, alpha_i^vee> even, and
    sum_{i in S} a_ij even for every j (the pairing of every weight of
    lambda + root lattice with sum_{i in S} alpha_i^vee is then even).
    """
    subset = sorted(set(subset))
    if any(not 0 <= i < gcm.rank for i in subset):
        raise ValueError("subset contains an invalid node")
    if sum(lam.coords[i] for i in subset) % 2:
        return False
    return all(
        sum(gcm.a(i, j) for i in subset) % 2 == 0 for j in range(gcm.rank)
    )


def _parity_table(module: TruncatedModule) -> np.ndarray:
    """<mu, alpha_i^vee> mod 2 as an integer table, one row per populated
    weight mu = lambda - sum_j k_j alpha_j (weight_keys() order), one
    column per node i."""
    keys = np.array(module.weight_keys(), dtype=np.int64)
    pairing = np.array(module.lam.coords) - keys @ np.array(module.gcm.entries).T
    return pairing % 2


def _oracle_trivial_on_truncation(parity: np.ndarray, subset) -> bool:
    """Diagonal oracle: every populated weight mu pairs evenly with the
    subset's coroot sum (h_S acts by that global sign on the slice); parity
    is the module's _parity_table."""
    return not (parity[:, subset].sum(axis=1) % 2).any()


def _matrix_trivial(module: TruncatedModule, subset, ident) -> bool | None:
    """Full matrix check h_S == ident; None when the window is empty."""
    mat = ident
    for n, i in enumerate(subset):
        h = h_element(module, i, -1)
        mat = h if n == 0 else mat @ h
    try:
        equal, _, _ = mat.equal_on_window(ident, min_window=0)
    except WindowEmpty:
        return None
    return equal


def kernel_probe(module: TruncatedModule) -> dict:
    """Describe K^lambda cap H(Z) under the truncation oracle.

    Enumerates all 2^rank subsets, applies the parity criterion, and
    cross-checks: a criterion-positive subset must look trivial both to the
    diagonal oracle and to the assembled matrix (OracleMismatch otherwise).
    Criterion-negative subsets that the truncation cannot separate are
    listed under "not_separated" rather than treated as members.
    """
    gcm, lam = module.gcm, module.lam
    n = gcm.rank
    members = []
    not_separated = []
    ident = shared_identity(module)
    parity = _parity_table(module)
    for mask in range(1 << n):
        subset = [i for i in range(n) if mask >> i & 1]
        crit = kernel_membership(gcm, lam, subset)
        oracle = _oracle_trivial_on_truncation(parity, subset)
        if crit:
            if not oracle:
                raise OracleMismatch(
                    f"criterion-trivial h_S for S={subset} acts nontrivially"
                )
            matrix_ok = _matrix_trivial(module, subset, ident)
            if matrix_ok is False:
                raise OracleMismatch(
                    f"h_S matrix for S={subset} differs from the identity"
                )
            members.append(subset)
        elif oracle:
            not_separated.append(subset)
    # Members form a GF(2)-subspace; report a minimal generating set.
    generators = _gf2_generators(members, n)
    return {
        "subgroup_order": len(members),
        "members": members,
        "generators": generators,
        "not_separated": not_separated,
    }


def _gf2_generators(members, n):
    basis = []
    span = {0}
    for subset in sorted(members, key=len):
        mask = sum(1 << i for i in subset)
        if mask and mask not in span:
            basis.append(subset)
            span |= {v ^ mask for v in span}
    return basis


# ---------------------------------------------------------------------------
# Full verification run


def report_head(source) -> dict:
    """The {"diagram", "lambda", "depth"} head of a report on a module or
    report source, which has .gcm, .lam and .depth."""
    return {
        "diagram": gcm_to_json(source.gcm),
        "lambda": list(source.lam.coords),
        "depth": source.depth,
    }


@dataclass
class VerificationReport:
    gcm: GeneralizedCartanMatrix
    lam: DominantWeight
    depth: int
    results: list[RelationResult] = field(default_factory=list)
    kernel: dict | None = None

    @property
    def all_verified(self) -> bool:
        return all(r.status == "verified" for r in self.results)

    @property
    def any_window_empty(self) -> bool:
        return any(r.status == "window_empty" for r in self.results)

    def r11_signs(self) -> dict[tuple[int, int], int | None]:
        return {
            r.nodes: r.sign for r in self.results if r.id == "R11"
        }

    def to_json(self) -> dict:
        out = report_head(self)
        out["relations"] = [r.to_json() for r in self.results]
        if self.kernel is not None:
            out["kernel"] = self.kernel
        return out


def verify_all(module: TruncatedModule, min_window: int = 0) -> VerificationReport:
    """Verify every instance of R1-R12 on the module, in order."""
    results = [
        verify_relation(module, rid, nodes, min_window)
        for rid, nodes in relation_instances(module.gcm)
    ]
    report = VerificationReport(module.gcm, module.lam, module.depth, results)
    report.kernel = kernel_probe(module)
    return report
