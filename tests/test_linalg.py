import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import hermite_normal_form

from kmgroups.linalg import (
    bareiss_det,
    hnf_rows,
    is_positive_definite_symmetric,
    leading_principal_minors,
)

rng = random.Random(20240817)


def random_int_matrix(n, m, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


def test_bareiss_det_against_sympy():
    for n in range(1, 6):
        for _ in range(20):
            mat = random_int_matrix(n, n)
            assert bareiss_det(mat) == sympy.Matrix(mat).det()


def test_bareiss_det_empty_and_singular():
    assert bareiss_det([]) == 1
    assert bareiss_det([[1, 2], [2, 4]]) == 0


def test_leading_principal_minors():
    mat = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    assert leading_principal_minors(mat) == [2, 3, 4]
    assert is_positive_definite_symmetric(mat)
    assert not is_positive_definite_symmetric([[2, -2], [-2, 2]])


def hnf_rows_sympy(mat) -> list[list[int]]:
    """sympy's HNF (Cohen, Alg. 2.4.5) in row form: the reference for hnf_rows."""
    rows = [[int(v) for v in row] for row in mat if any(row)]
    if not rows:
        return []
    # sympy anchors pivots at the bottom-right; reversing the columns makes
    # its rightmost-first pivot scan prefer column 0, 1, ...
    data = [[ZZ(v) for v in reversed(row)] for row in rows]
    A = DomainMatrix(data, (len(rows), len(rows[0])), ZZ)
    H = hermite_normal_form(A.transpose()).transpose()
    return sorted(
        ([int(v) for v in reversed(hrow)] for hrow in H.to_list() if any(hrow)),
        key=lambda row: next(j for j, v in enumerate(row) if v),
    )


def hnf_rows_gcd(mat) -> list[list[int]]:
    """Naive gcd-elimination HNF: the small-input reference for hnf_rows."""
    rows = []
    for row in mat:
        if any(row):
            arr = np.empty(len(row), dtype=object)
            arr[:] = [int(v) for v in row]
            rows.append(arr)
    if not rows:
        return []
    # by_pivot[j] = current basis row with pivot column j.
    by_pivot: dict[int, np.ndarray] = {}

    def pivot_col(row):
        nz = np.nonzero(row)[0]
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


def _in_lattice(vec, basis):
    """Exact membership of an integer vector in the row lattice of basis."""
    if not basis:
        return not any(vec)
    rem = list(vec)
    for row in basis:
        j = next(i for i, v in enumerate(row) if v)
        if rem[j] % row[j]:
            return False
        q = rem[j] // row[j]
        rem = [a - q * b for a, b in zip(rem, row)]
    return not any(rem)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-20, 20), min_size=4, max_size=4),
        min_size=1,
        max_size=6,
    )
)
def test_hnf_properties(mat):
    basis = hnf_rows(mat)
    # echelon shape with positive pivots, strictly increasing pivot columns
    pivots = []
    for row in basis:
        j = next(i for i, v in enumerate(row) if v)
        assert row[j] > 0
        pivots.append(j)
    assert pivots == sorted(set(pivots))
    # entries above each pivot reduced into [0, pivot)
    for a, row in enumerate(basis):
        for b in range(a):
            assert 0 <= basis[b][pivots[a]] < row[pivots[a]]
    # every input row is in the lattice of the basis
    for row in mat:
        assert _in_lattice(row, basis)
    # the HNF of a lattice is unique, so it matches both references exactly
    assert basis == hnf_rows_sympy(mat)
    assert basis == hnf_rows_gcd(mat)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=5, max_size=5),
        min_size=1,
        max_size=6,
    ),
    st.integers(1, 5),
)
def test_hnf_pivot_limit_matches_reference(mat, limit):
    # The basis rows pivoting in the leading `limit` columns, cut to those
    # columns, are the HNF of the projection onto them; rows pivoting later
    # vanish there.  Checked against the reference on the projected rows.
    basis = hnf_rows(mat)
    head = [row[:limit] for row in basis if any(row[:limit])]
    assert head == hnf_rows_gcd([row[:limit] for row in mat])
    assert head == hnf_rows([row[:limit] for row in mat])


def test_hnf_no_coefficient_swell():
    # regression: the naive gcd elimination swells badly on wide redundant
    # systems shaped like the Gram rows of a weight slice
    rng2 = random.Random(7)
    nrows, rank = 40, 10
    c = np.array(
        [[rng2.randint(-4, 4) for _ in range(rank)] for _ in range(nrows)],
        dtype=object,
    )
    gram = c @ c.T
    rows = [[int(v) for v in gram[i]] for i in range(nrows)]
    basis = hnf_rows(rows)
    assert len(basis) == rank
    assert all(abs(v) < 10**20 for row in basis for v in row)
