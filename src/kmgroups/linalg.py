"""Exact integer / rational linear algebra helpers.

Everything here works over Python ints and fractions.Fraction; no floating
point anywhere.  Matrices are numpy arrays with dtype=object (so entries are
arbitrary-precision ints) or plain nested lists for the small routines.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def obj_array(rows) -> np.ndarray:
    """Nested list -> 2-d numpy object array (exact int entries)."""
    arr = np.empty((len(rows), len(rows[0]) if rows else 0), dtype=object)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            arr[i, j] = v
    return arr


def zeros_obj(nrows: int, ncols: int) -> np.ndarray:
    arr = np.empty((nrows, ncols), dtype=object)
    arr.fill(0)
    return arr


def eye_obj(n: int) -> np.ndarray:
    arr = zeros_obj(n, n)
    for i in range(n):
        arr[i, i] = 1
    return arr


def bareiss_det(mat) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    a = [list(map(int, row)) for row in mat]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def leading_principal_minors(mat) -> list[int]:
    """Determinants of the k x k upper-left blocks, k = 1..n."""
    n = len(mat)
    return [bareiss_det([row[: k + 1] for row in mat[: k + 1]]) for k in range(n)]


def is_positive_definite_symmetric(mat) -> bool:
    """Sylvester's criterion; mat must be symmetric."""
    return all(m > 0 for m in leading_principal_minors(mat))


def row_rank_and_pivots(mat) -> tuple[int, list[int]]:
    """Rank over Q and pivot column indices of an integer (or Fraction) matrix."""
    a = [[Fraction(v) for v in row] for row in mat]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [v * inv for v in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [vi - f * vr for vi, vr in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, pivots


def hnf_rows(mat, pivot_limit: int | None = None) -> list[list[int]]:
    """Row-style Hermite normal form of the lattice spanned by integer rows.

    Returns a basis in echelon form: pivots positive, strictly increasing
    pivot columns, entries above each pivot reduced into [0, pivot).

    With pivot_limit, only columns < pivot_limit are eligible as pivots and
    rows vanishing on those columns are dropped; the remaining columns are
    carried along unchanged.

    The heavy lifting is delegated to sympy's HNF (the naive gcd-elimination
    version below suffers catastrophic coefficient swell on wide slices).
    """
    from sympy.polys.domains import ZZ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import hermite_normal_form as _dm_hnf

    rows = [[int(v) for v in row] for row in mat if any(row)]
    if not rows:
        return []
    ncols = len(rows[0])
    limit = ncols if pivot_limit is None else pivot_limit
    # sympy's convention anchors pivots at the bottom-right; permute columns
    # to [carried cols, psi cols reversed] so that its rightmost-first pivot
    # scan prefers psi column 0, then 1, ...
    perm = list(range(limit, ncols)) + list(range(limit - 1, -1, -1))
    inv = [0] * ncols
    for pos, c in enumerate(perm):
        inv[c] = pos
    # The entries are Python ints already: ZZ.dtype converts them without
    # the domain dispatch of ZZ(v), which costs ~5x as much per entry.
    data = [[ZZ.dtype(row[c]) for c in perm] for row in rows]
    A = DomainMatrix(data, (len(rows), ncols), ZZ)
    H = _dm_hnf(A.transpose()).transpose()
    out = []
    lift_cols = ncols - limit
    for hrow in H.to_list():
        hrow = [int(v) for v in hrow]
        last = max((p for p, v in enumerate(hrow) if v), default=-1)
        if last < lift_cols:
            continue  # zero on every pivot-eligible column
        out.append(([hrow[inv[c]] for c in range(ncols)], ncols - 1 - last))
    out.sort(key=lambda t: t[1])
    basis = [row for row, _ in out]
    pivots = [p for _, p in out]
    # Normalize: entries above each pivot reduced into [0, pivot).  Sweep
    # pivots left to right so reductions never reintroduce large entries in
    # an already-processed column.
    for idx in range(len(basis)):
        p = pivots[idx]
        val = basis[idx][p]
        for up in range(idx):
            q = basis[up][p] // val  # floor keeps residue in [0, val)
            if q:
                basis[up] = [
                    u - q * v for u, v in zip(basis[up], basis[idx])
                ]
    return basis


def hnf_rows_gcd(mat, pivot_limit: int | None = None) -> list[list[int]]:
    """Naive gcd-elimination HNF; small-input reference implementation."""
    rows = []
    for row in mat:
        if any(row):
            arr = np.empty(len(row), dtype=object)
            arr[:] = [int(v) for v in row]
            rows.append(arr)
    if not rows:
        return []
    ncols = len(rows[0])
    limit = ncols if pivot_limit is None else pivot_limit
    # by_pivot[j] = current basis row with pivot column j.
    by_pivot: dict[int, np.ndarray] = {}

    def pivot_col(row):
        nz = np.nonzero(row[:limit])[0]
        return int(nz[0]) if len(nz) else None

    for vec in rows:
        while True:
            j = pivot_col(vec)
            if j is None:
                break
            hit = by_pivot.get(j)
            if hit is None:
                by_pivot[j] = -vec if vec[j] < 0 else vec
                break
            # Reduce vec against hit with a gcd step.
            a, b = int(hit[j]), int(vec[j])
            if b % a == 0:
                vec = vec - (b // a) * hit
            else:
                # Replace hit by the gcd combination, continue with remainder.
                g = math.gcd(a, b)
                x, y = _ext_gcd(a, b)
                by_pivot[j] = x * hit + y * vec
                vec = (a // g) * vec - (b // g) * hit

    basis = [by_pivot[j] for j in sorted(by_pivot)]
    # Reduce above-pivot entries into [0, pivot), sweeping left to right.
    for idx in range(len(basis)):
        row = basis[idx]
        j = pivot_col(row)
        p = int(row[j])
        for up in range(idx):
            q = int(basis[up][j]) // p  # floor keeps residue in [0, p)
            if q:
                basis[up] = basis[up] - q * row
    return [[int(v) for v in row] for row in basis]


def _ext_gcd(a: int, b: int) -> tuple[int, int]:
    """x, y with x*a + y*b = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_x, old_y = -old_x, -old_y
    return old_x, old_y


def solve_left_rational(mat, rhs) -> tuple[int, list[list[int]]]:
    """Solve x @ mat == rhs over Q for square nonsingular integer mat.

    rhs is a list of integer rows.  Returns (den, num) with x = num / den,
    den > 0 the least common denominator.  Fraction-free Gauss-Jordan
    (Bareiss) on [mat^T | rhs^T]: every intermediate entry is a minor, so
    all divisions are exact and no Fraction is ever built.  Raises
    ZeroDivisionError on singular mat.
    """
    n = len(mat)
    k_rhs = len(rhs)
    a = [
        [int(mat[j][i]) for j in range(n)] + [int(rhs[t][i]) for t in range(k_rhs)]
        for i in range(n)
    ]
    width = n + k_rhs
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        a[k], a[piv] = a[piv], a[k]
        akk, rowk = a[k][k], a[k]
        for i in range(n):
            if i == k:
                continue
            row, aik = a[i], a[i][k]
            for j in range(k + 1, width):
                row[j] = (akk * row[j] - aik * rowk[j]) // prev
            row[k] = 0
            if i < k:
                row[i] = akk  # earlier pivots track the current minor
        prev = akk
    # Now a = [d*I | d * x^T] with d = +-det(mat).
    d = a[0][0] if n else 1
    num = [[a[i][n + t] for i in range(n)] for t in range(k_rhs)]
    g = math.gcd(d, *(v for row in num for v in row))
    if d < 0:
        g = -g
    return d // g, [[v // g for v in row] for row in num]


def solve_left_upper_triangular(h: np.ndarray, rhs, denominator: int = 1):
    """Solve x @ h == rhs / denominator for x, h integer upper triangular.

    Returns a list of Fractions (callers assert integrality where the math
    promises it).  Raises ZeroDivisionError on singular h.
    """
    r = h.shape[0]
    x = [Fraction(0)] * r
    for a in range(r):
        acc = Fraction(int(rhs[a]), denominator)
        for b in range(a):
            if h[b, a]:
                acc -= x[b] * int(h[b, a])
        x[a] = acc / int(h[a, a])
    return x


def solve_symmetric_rational(g_rows, rhs):
    """Solve y @ G == rhs over Q (G square nonsingular, symmetric).

    g_rows: list of int rows; rhs: sequence of Fractions/ints.
    """
    n = len(g_rows)
    a = [[Fraction(v) for v in row] + [Fraction(0)] for row in g_rows]
    # Solve G^T y^T = rhs^T; G symmetric so use G directly.
    for i in range(n):
        a[i][n] = Fraction(rhs[i])
    # Gaussian elimination with partial (first nonzero) pivoting.
    perm = list(range(n))
    col = [list(a[i]) for i in range(n)]
    for c in range(n):
        piv = next(i for i in range(c, n) if col[i][c] != 0)
        col[c], col[piv] = col[piv], col[c]
        inv = 1 / col[c][c]
        col[c] = [v * inv for v in col[c]]
        for i in range(n):
            if i != c and col[i][c] != 0:
                f = col[i][c]
                col[i] = [vi - f * vc for vi, vc in zip(col[i], col[c])]
    return [col[i][n] for i in range(n)]
