import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from kmgroups.linalg import (
    bareiss_det,
    eye_obj,
    hnf_rows,
    hnf_rows_gcd,
    is_positive_definite_symmetric,
    leading_principal_minors,
    obj_array,
    row_rank_and_pivots,
    solve_left_rational,
    solve_left_upper_triangular,
    solve_symmetric_rational,
    zeros_obj,
)

rng = random.Random(20240817)


def random_int_matrix(n, m, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


def test_obj_array_roundtrip():
    a = obj_array([[1, 2], [3, 4]])
    assert a.dtype == object
    assert a[1, 0] == 3
    assert zeros_obj(2, 3).shape == (2, 3)
    assert all(eye_obj(3)[i, i] == 1 for i in range(3))


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


def test_row_rank_and_pivots():
    r, piv = row_rank_and_pivots([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    assert r == 2
    assert piv == [0, 2]


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
    # every input row is in the lattice of the basis and vice versa
    for row in mat:
        assert _in_lattice(row, basis)
    for row in basis:
        assert _in_lattice(row, hnf_rows_gcd(mat))


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
    a = hnf_rows(mat, pivot_limit=limit)
    b = hnf_rows_gcd(mat, pivot_limit=limit)
    # pivot parts are canonical hence identical; carried columns may be
    # different (equally valid) lift representatives
    assert [r[:limit] for r in a] == [r[:limit] for r in b]


def test_hnf_pivot_limit_drops_radical_rows():
    # second row vanishes on the pivot-eligible column
    basis = hnf_rows([[2, 1, 0], [0, 5, 7]], pivot_limit=1)
    assert len(basis) == 1
    assert basis[0][0] == 2


def test_hnf_no_coefficient_swell():
    # regression: the naive gcd elimination swells badly on wide redundant
    # systems shaped like (gram | identity-lift) augmentations
    rng2 = random.Random(7)
    nrows, rank = 40, 10
    c = np.array(
        [[rng2.randint(-4, 4) for _ in range(rank)] for _ in range(nrows)],
        dtype=object,
    )
    gram = c @ c.T
    rows = []
    for i in range(nrows):
        vec = [int(v) for v in gram[i]] + [0] * nrows
        vec[nrows + i] = 4
        rows.append(vec)
    basis = hnf_rows(rows, pivot_limit=nrows)
    assert len(basis) == rank
    assert all(abs(v) < 10**20 for row in basis for v in row)


def test_solve_left_rational_against_fractions():
    rng2 = random.Random(11)
    solved = 0
    for _ in range(200):
        n, k = rng2.randint(1, 6), rng2.randint(1, 3)
        mat = [[rng2.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if bareiss_det(mat) == 0:
            continue
        rhs = [[rng2.randint(-9, 9) for _ in range(n)] for _ in range(k)]
        den, num = solve_left_rational(mat, rhs)
        assert den > 0 and math.gcd(den, *(v for row in num for v in row)) == 1
        for t in range(k):
            for j in range(n):
                lhs = sum(Fraction(num[t][i], den) * mat[i][j] for i in range(n))
                assert lhs == rhs[t][j]
        solved += 1
    assert solved > 100
    with pytest.raises(ZeroDivisionError):
        solve_left_rational([[1, 2], [2, 4]], [[1, 1]])


def test_solve_left_upper_triangular():
    h = obj_array([[2, 1], [0, 3]])
    # x @ h = (4, 8) / 2
    x = solve_left_upper_triangular(h, [4, 8], 2)
    assert [x[0] * 2 + 0, x[0] * 1 + x[1] * 3] == [Fraction(2), Fraction(4)]


def test_solve_symmetric_rational():
    g = [[2, 1], [1, 2]]
    y = solve_symmetric_rational(g, [1, 0])
    assert [2 * y[0] + y[1], y[0] + 2 * y[1]] == [1, 0]
