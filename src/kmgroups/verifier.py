"""Mechanical verification of the defining relations of G(Z).

The twelve relation families (numbered R1-R12) are stored as the text of
`kmgroups word` words (RELATIONS), instantiated over the nodes / node
pairs of the diagram and checked as matrix identities in the truncated
representation: equal_on_window checks two evaluated matrices on every
mutually exact column within their joint validity window, and the witness
of a reported failure is the first such column on which they differ
(first_difference, the test that decided).  R11 carries an unresolved
structure-constant sign, found by comparing its commutator side, evaluated
once, with both candidates; it is None when both verify.

The kernel probe decides which elements h_S = prod_{i in S} h_i(-1) of the
finite diagonal subgroup act trivially, by a GF(2) parity criterion
cross-checked against the matrices themselves and against a diagonal
oracle.  Criterion and oracle are one test (_even) on two integer tables:
[lambda; A^T] for the criterion and the module's coroot pairings for the
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .cartan import GeneralizedCartanMatrix, gcm_to_json
from .groupgen import (
    WindowEmpty,
    evaluate_word,
    h_element,
    parse_word,
    shared_identity,
)
from .weightmod import DominantWeight, TruncatedModule


class SignNone(RuntimeError):
    """Neither structure-constant sign verifies; indicates a bug."""


class OracleMismatch(RuntimeError):
    """Kernel parity criterion disagrees with the matrix oracle."""


# (lhs, rhs) of each relation family as `kmgroups word` text, with 1-based
# nodes {i} and {j} and R11's structure-constant sign {sign}
RELATIONS = {
    "R1": ("S{i}^4", ""),
    "R2": ("S{i}^2 X{i}(1) S{i}^-2 X{i}(-1)", ""),
    "R3": ("S{i}", "X{i}(1) S{i} X{i}(1) S{i}^-1 X{i}(1)"),
    "R4": ("S{i} S{j}", "S{j} S{i}"),
    "R5": ("S{i} X{j}(1) S{i}^-1 X{j}(-1)", ""),
    "R6": ("X{i}(1) X{j}(1) X{i}(-1) X{j}(-1)", ""),
    "R7": ("S{i} S{j} S{i}", "S{j} S{i} S{j}"),
    "R8": ("S{i}^2 S{j} S{i}^-2", "S{j}^-1"),
    "R9": ("X{i}(1) S{j} S{i}", "S{j} S{i} X{j}(1)"),
    "R10": ("S{i}^2 X{j}(1) S{i}^-2", "X{j}(-1)"),
    "R11": ("X{i}(1) X{j}(1) X{i}(-1) X{j}(-1)", "S{i} X{j}({sign}) S{i}^-1"),
    "R12": ("X{i}(1) S{i} X{j}(1) S{i}^-1 X{i}(-1) S{i} X{j}(-1) S{i}^-1", ""),
}
RELATION_IDS = list(RELATIONS)


def relation_words(rid: str, nodes, sign: int = 1):
    """(lhs, rhs) words of a relation instance.

    nodes is (i,) for R1-R3 and (i, j) otherwise; sign only affects R11.
    """
    if rid not in RELATIONS:
        raise ValueError(f"unknown relation id {rid!r}")
    texts = RELATIONS[rid]
    if len(nodes) != (2 if "{j}" in "".join(texts) else 1):
        raise ValueError(f"wrong number of nodes {tuple(nodes)} for {rid}")
    labels = {"i": nodes[0] + 1, "j": nodes[-1] + 1, "sign": sign}
    return tuple(parse_word(t.format(**labels), max(nodes) + 1) for t in texts)


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
        """The fields in declaration order, without the None ones, and the
        nodes 1-based."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["nodes"] = [n + 1 for n in self.nodes]
        return {k: v for k, v in out.items() if v is not None}


def column_json(col):
    """A column {target: entries}, as JSON sorted by target depth vector."""
    return [
        {"depth_vector": list(k), "entries": list(v)}
        for k, v in sorted(col.items())
    ]


def _compare_signs(module: TruncatedModule, rid: str, nodes, min_window: int):
    """(left matrix, {sign: (right matrix, equal_on_window outcome)}, signs
    that verify) of a relation instance, for the signs 1 and -1 of R11 and 1
    alone otherwise; the left word does not depend on the sign and is
    evaluated once.  Raises WindowEmpty if a joint window is below min_window."""
    signs = (1, -1) if rid == "R11" else (1,)
    words = {sign: relation_words(rid, nodes, sign) for sign in signs}
    lhs = evaluate_word(module, words[1][0])
    outcomes = {}
    for sign, (_, rhs) in words.items():
        mat = evaluate_word(module, rhs)
        outcomes[sign] = mat, lhs.equal_on_window(mat, min_window=min_window)
    return lhs, outcomes, [s for s, (_, out) in outcomes.items() if out[0]]


def verify_relation(
    module: TruncatedModule, rid: str, nodes, min_window: int = 0
) -> RelationResult:
    nodes = tuple(nodes)
    try:
        lhs, outcomes, good = _compare_signs(module, rid, nodes, min_window)
    except WindowEmpty:
        return RelationResult(rid, nodes, "window_empty")
    # The verified sign's comparison, or the +1 one if none verifies.
    rhs, (equal, window, compared) = outcomes[good[0] if good else 1]
    sign = good[0] if rid == "R11" and len(good) == 1 else None
    if equal:
        return RelationResult(rid, nodes, "verified", window, compared, sign)
    # The witness: the first mutually exact column, in basis order, on
    # which the two sides differ, with its two images.
    j = lhs.first_difference(rhs)
    k = module.keys[module.slice_of[j]]
    c = j - module.offset[k]
    witness = {
        "column": {"depth_vector": list(k), "index": c},
        "lhs_image": column_json(lhs.column(k, c)),
        "rhs_image": column_json(rhs.column(k, c)),
    }
    return RelationResult(rid, nodes, "failed", window, compared, sign, witness)


def resolve_commutator_sign(module: TruncatedModule, i: int, j: int) -> int | None:
    """The unique sign in [X_i, X_j] = S_i X_j(sign) S_i^-1 for adjacent i, j,
    or None when both signs verify (the truncation cannot tell them apart)."""
    if not module.gcm.adjacent(i, j):
        raise ValueError(f"nodes {i}, {j} are not adjacent")
    *_, good = _compare_signs(module, "R11", (i, j), min_window=0)
    if not good:
        raise SignNone(f"neither sign verifies for pair ({i}, {j})")
    return good[0] if len(good) == 1 else None


# ---------------------------------------------------------------------------
# Kernel probe


def _even(table: np.ndarray, subset) -> bool:
    """Does every row of the integer table sum to an even number over subset?"""
    return not (table[:, subset].sum(axis=1) % 2).any()


def _criterion_table(gcm: GeneralizedCartanMatrix, lam) -> np.ndarray:
    """[lambda; A^T]: a row for lambda and a row a_.j per node j."""
    return np.vstack([lam.coords, np.array(gcm.entries, dtype=np.int64).T])


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
    return _even(_criterion_table(gcm, lam), subset)


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
    members, not_separated = [], []
    ident = shared_identity(module)
    criterion = _criterion_table(gcm, lam)
    for mask in range(1 << n):
        subset = [i for i in range(n) if mask >> i & 1]
        crit = _even(criterion, subset)
        # diagonal oracle: h_S acts on each slice by (-1)^(its pairing sum)
        oracle = _even(module.pairing, subset)
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
    return {
        "subgroup_order": len(members),
        "members": members,
        "generators": _gf2_generators(members),
        "not_separated": not_separated,
    }


def _gf2_generators(members):
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
