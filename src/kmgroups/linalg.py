"""Exact integer linear algebra helpers.

Everything here works over Python ints; no floating point anywhere.
Matrices are numpy arrays with dtype=object (so entries are
arbitrary-precision ints) or plain nested lists for the small routines.
"""

from __future__ import annotations

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


def hnf_rows(mat) -> list[list[int]]:
    """Row-style Hermite normal form of the lattice spanned by integer rows.

    Returns a basis in echelon form: pivots positive, strictly increasing
    pivot columns, entries above each pivot reduced into [0, pivot).

    The elimination is delegated to sympy's HNF, since plain gcd
    elimination suffers catastrophic coefficient swell on wide slices.
    sympy already reduces the entries beside each pivot with floor
    division, so its rows, sorted by pivot, need no further reduction.
    """
    from sympy.polys.domains import ZZ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import hermite_normal_form as _dm_hnf

    rows = [[int(v) for v in row] for row in mat if any(row)]
    if not rows:
        return []
    ncols = len(rows[0])
    # sympy's convention anchors pivots at the bottom-right; reverse the
    # columns so that its rightmost-first pivot scan prefers column 0, 1, ...
    # The entries are Python ints already: ZZ.dtype converts them without
    # the domain dispatch of ZZ(v), which costs ~5x as much per entry.
    data = [[ZZ.dtype(v) for v in reversed(row)] for row in rows]
    A = DomainMatrix(data, (len(rows), ncols), ZZ)
    H = _dm_hnf(A.transpose()).transpose()
    return sorted(
        ([int(v) for v in reversed(hrow)] for hrow in H.to_list() if any(hrow)),
        key=_pivot,
    )


def _pivot(row) -> int:
    return next(j for j, v in enumerate(row) if v)
