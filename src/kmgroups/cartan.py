"""Generalized Cartan matrices, Dynkin diagrams, and type classification.

Nodes are 0-based throughout the library; the CLI presents 1-based labels.
Classification (finite / affine / indefinite) is decided by exact integer
principal-minor computations, never by floating point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .linalg import bareiss_det, is_positive_definite_symmetric


class NotGCM(ValueError):
    """Input matrix violates the generalized Cartan matrix axioms."""


class NotSimplyLaced(ValueError):
    """GCM is valid but has an off-diagonal entry outside {0, -1}."""


class DisconnectedInput(ValueError):
    """Operation requires a connected Dynkin diagram."""


FINITE = "finite"
AFFINE = "affine"
INDEFINITE = "indefinite"


@dataclass(frozen=True)
class GeneralizedCartanMatrix:
    """Integer matrix with 2 on the diagonal, non-positive off-diagonal
    entries and a symmetric zero pattern."""

    entries: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.entries)

    def a(self, i: int, j: int) -> int:
        return self.entries[i][j]

    @property
    def simply_laced(self) -> bool:
        n = self.rank
        return all(
            self.entries[i][j] in (0, -1)
            for i in range(n)
            for j in range(n)
            if i != j
        )

    def neighbors(self, i: int) -> list[int]:
        return [j for j in range(self.rank) if j != i and self.entries[i][j] != 0]

    def edges(self) -> list[tuple[int, int]]:
        """Unordered node pairs {i, j} with a bond (a_ij != 0), i < j."""
        return [
            (i, j)
            for i in range(self.rank)
            for j in range(i + 1, self.rank)
            if self.entries[i][j] != 0
        ]

    def adjacent(self, i: int, j: int) -> bool:
        return i != j and self.entries[i][j] != 0

    def is_connected(self, nodes=None) -> bool:
        return len(self.components(nodes)) == 1

    def components(self, nodes=None) -> list[list[int]]:
        """Connected components of the subdiagram on nodes (default: all)."""
        remaining = set(range(self.rank) if nodes is None else nodes)
        comps = []
        while remaining:
            start = min(remaining)
            seen = {start}
            frontier = [start]
            while frontier:
                i = frontier.pop()
                for j in self.neighbors(i):
                    if j in remaining and j not in seen:
                        seen.add(j)
                        frontier.append(j)
            comps.append(sorted(seen))
            remaining -= seen
        return comps

    def submatrix(self, nodes) -> "GeneralizedCartanMatrix":
        nodes = sorted(nodes)
        return GeneralizedCartanMatrix(
            tuple(tuple(self.entries[i][j] for j in nodes) for i in nodes)
        )


def validate_gcm(matrix, require_simply_laced: bool = False) -> GeneralizedCartanMatrix:
    """Validate a square integer matrix as a GCM.

    Raises NotGCM on axiom violations, NotSimplyLaced when simply-laced mode
    is requested and an off-diagonal entry is below -1.
    """
    if not isinstance(matrix, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) for row in matrix
    ):
        raise NotGCM(f"matrix must be a list of rows, got {matrix!r}")
    rows = [list(row) for row in matrix]
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise NotGCM("matrix must be square and non-empty")
    for i in range(n):
        for j in range(n):
            v = rows[i][j]
            if not isinstance(v, int) or isinstance(v, bool):
                raise NotGCM(f"entry ({i},{j}) is not an integer: {v!r}")
    for i in range(n):
        if rows[i][i] != 2:
            raise NotGCM(f"diagonal entry a[{i}][{i}] = {rows[i][i]} != 2")
        for j in range(n):
            if i == j:
                continue
            if rows[i][j] > 0:
                raise NotGCM(f"positive off-diagonal entry a[{i}][{j}] = {rows[i][j]}")
            if (rows[i][j] == 0) != (rows[j][i] == 0):
                raise NotGCM(f"asymmetric zero pattern at ({i},{j})")
    gcm = GeneralizedCartanMatrix(tuple(tuple(row) for row in rows))
    if require_simply_laced and not gcm.simply_laced:
        raise NotSimplyLaced("off-diagonal entry below -1")
    return gcm


def _symmetrized(gcm: GeneralizedCartanMatrix) -> list[list[int]]:
    """Integer symmetrization d_i * a_ij of a symmetrizable GCM.

    For a symmetric matrix this is the matrix itself.  Raises NotGCM if no
    consistent positive symmetrizer exists.
    """
    n = gcm.rank
    a = gcm.entries
    if all(a[i][j] == a[j][i] for i in range(n) for j in range(n)):
        return [list(row) for row in a]
    d: list[Fraction | None] = [None] * n
    for comp in gcm.components():
        d[comp[0]] = Fraction(1)
        frontier = [comp[0]]
        while frontier:
            i = frontier.pop()
            for j in gcm.neighbors(i):
                want = d[i] * a[i][j] / a[j][i]
                if d[j] is None:
                    d[j] = want
                    frontier.append(j)
                elif d[j] != want:
                    raise NotGCM("matrix is not symmetrizable")
    denom = math.lcm(*(v.denominator for v in d))
    scale = [int(v * denom) for v in d]
    return [[scale[i] * a[i][j] for j in range(n)] for i in range(n)]


def _classify_connected(sym_rows) -> str:
    n = len(sym_rows)
    if is_positive_definite_symmetric(sym_rows):
        return FINITE
    if bareiss_det(sym_rows) == 0:
        # Affine iff positive semidefinite with 1-dim radical; by Cauchy
        # interlacing it suffices that every vertex-deleted block is
        # positive definite.
        for drop in range(n):
            keep = [i for i in range(n) if i != drop]
            sub = [[sym_rows[i][j] for j in keep] for i in keep]
            if not is_positive_definite_symmetric(sub):
                return INDEFINITE
        return AFFINE
    return INDEFINITE


def classify(gcm: GeneralizedCartanMatrix) -> str:
    """Type label: finite, affine, or indefinite.

    Disconnected diagrams are classified per component and the most severe
    label (finite < affine < indefinite) is returned.
    """
    sym = _symmetrized(gcm)
    severity = {FINITE: 0, AFFINE: 1, INDEFINITE: 2}
    worst = FINITE
    for comp in gcm.components():
        sub = [[sym[i][j] for j in comp] for i in comp]
        label = _classify_connected(sub)
        if severity[label] > severity[worst]:
            worst = label
    return worst


def is_hyperbolic(gcm: GeneralizedCartanMatrix) -> bool:
    """True iff the diagram is indefinite and every proper connected
    subdiagram is of finite or affine type.

    It suffices to classify the n vertex-deleted subdiagrams: every proper
    connected subdiagram lies in a component of one of them, classify takes
    the worst component, and a connected subdiagram of a finite or affine
    diagram is finite or affine.  Requires a connected diagram; raises
    DisconnectedInput otherwise.
    """
    if not gcm.is_connected():
        raise DisconnectedInput("hyperbolicity is defined for connected diagrams")
    if classify(gcm) != INDEFINITE:
        return False
    n = gcm.rank
    return all(
        classify(gcm.submatrix([u for u in range(n) if u != v])) != INDEFINITE
        for v in range(n)
    )


def bilinear_form(gcm: GeneralizedCartanMatrix, x, y) -> int:
    """Invariant symmetric form (x | y) = x^T B y on the root lattice.

    B is the symmetrization of the GCM; in the simply-laced normalization
    B = A and (alpha_i | alpha_j) = a_ij.
    """
    n = gcm.rank
    if len(x) != n or len(y) != n:
        raise ValueError(f"vectors must have length {n}")
    sym = _symmetrized(gcm)
    return sum(int(x[i]) * sym[i][j] * int(y[j]) for i in range(n) for j in range(n))


# ---------------------------------------------------------------------------
# Diagram constructors used across the test and acceptance suites.


def gcm_from_edges(rank: int, edges) -> GeneralizedCartanMatrix:
    """Simply-laced GCM from an undirected edge list."""
    rows = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        if i == j or not (0 <= i < rank and 0 <= j < rank):
            raise ValueError(f"bad edge ({i},{j})")
        rows[i][j] = rows[j][i] = -1
    return validate_gcm(rows, require_simply_laced=True)


def path_gcm(n: int) -> GeneralizedCartanMatrix:
    """A_n: a path on n nodes."""
    return gcm_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_gcm(n: int) -> GeneralizedCartanMatrix:
    """Cycle on n >= 3 nodes (affine A_{n-1})."""
    return gcm_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def e_gcm(n: int) -> GeneralizedCartanMatrix:
    """E-series shape: a path on n-1 nodes with node n-1 attached to node 2.

    n = 6..8 gives E6..E8, n = 9 the affine E8, n = 10 the rank-10
    hyperbolic over-extension.
    """
    if n < 4:
        raise ValueError("E-series shape needs rank >= 4")
    edges = [(i, i + 1) for i in range(n - 2)] + [(2, n - 1)]
    return gcm_from_edges(n, edges)


def triangle_with_pendant_gcm() -> GeneralizedCartanMatrix:
    """Rank-4 hyperbolic: 3-cycle on nodes 0,1,2 with node 3 hanging off 2."""
    return gcm_from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])


# ---------------------------------------------------------------------------
# JSON interface: {"matrix": [[...], ...]}


def gcm_to_json(gcm: GeneralizedCartanMatrix) -> dict:
    return {"matrix": [list(row) for row in gcm.entries]}


def gcm_from_json(data, require_simply_laced: bool = False) -> GeneralizedCartanMatrix:
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise NotGCM(f"bad JSON text: {exc}")
    if not isinstance(data, dict) or "matrix" not in data:
        raise NotGCM('expected an object with a "matrix" key')
    return validate_gcm(data["matrix"], require_simply_laced=require_simply_laced)
