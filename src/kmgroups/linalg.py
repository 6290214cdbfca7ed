"""Exact integer linear algebra helpers.

Everything here works over Python ints; no floating point anywhere.
Matrices are given as sequences of integer rows.
"""

from __future__ import annotations


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

    Columns are settled left to right.  At column c the unsettled rows
    nonzero there are reduced by the one of smallest |entry| at c, with
    floor division, until a single one is left: each pass lowers the
    smallest |entry|, so the loop ends, and the small pivots keep the
    entries from swelling as Bezout steps do.  Unsettled rows vanish
    before c, so only columns >= c change.  The survivor, made positive,
    reduces the settled rows' entries at c into [0, pivot) and is settled.
    """
    rest = [[int(v) for v in row] for row in mat if any(row)]
    basis: list[list[int]] = []
    for c in range(len(rest[0]) if rest else 0):
        live = [row for row in rest if row[c]]
        if not live:
            continue
        rest = [row for row in rest if not row[c]]
        while len(live) > 1:
            live.sort(key=lambda row: abs(row[c]))
            piv = live[0]
            a, tail = piv[c], piv[c:]
            kept = [piv]
            for row in live[1:]:
                q = row[c] // a
                row[c:] = [x - q * y for x, y in zip(row[c:], tail)]
                if row[c]:
                    kept.append(row)
                elif any(row):
                    rest.append(row)
            live = kept
        piv = live[0]
        if piv[c] < 0:
            piv[c:] = [-x for x in piv[c:]]
        b, tail = piv[c], piv[c:]
        for row in basis:
            q = row[c] // b
            if q:
                row[c:] = [x - q * y for x, y in zip(row[c:], tail)]
        basis.append(piv)
        if not rest:
            break
    return basis
