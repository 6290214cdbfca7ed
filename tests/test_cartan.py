import itertools
import json

import pytest
import sympy

from kmgroups.cartan import (
    AFFINE,
    FINITE,
    INDEFINITE,
    DisconnectedInput,
    GeneralizedCartanMatrix,
    NotGCM,
    NotSimplyLaced,
    bilinear_form,
    classify,
    cycle_gcm,
    e_gcm,
    gcm_from_edges,
    gcm_from_json,
    gcm_to_json,
    is_hyperbolic,
    path_gcm,
    triangle_with_pendant_gcm,
    validate_gcm,
)


# -- validation -------------------------------------------------------------


def test_validate_rejects_bad_diagonal():
    with pytest.raises(NotGCM):
        validate_gcm([[1, -1], [-1, 2]])


def test_validate_rejects_positive_offdiagonal():
    with pytest.raises(NotGCM):
        validate_gcm([[2, 1], [1, 2]])


def test_validate_rejects_asymmetric_zero_pattern():
    with pytest.raises(NotGCM):
        validate_gcm([[2, 0], [-1, 2]])


def test_validate_rejects_non_integer():
    with pytest.raises(NotGCM):
        validate_gcm([[2, -1.0], [-1, 2]])


def test_validate_rejects_nonsquare_and_empty():
    with pytest.raises(NotGCM):
        validate_gcm([[2, -1]])
    with pytest.raises(NotGCM):
        validate_gcm([])


def test_simply_laced_flag():
    assert path_gcm(3).simply_laced
    b2 = validate_gcm([[2, -2], [-1, 2]])
    assert not b2.simply_laced
    with pytest.raises(NotSimplyLaced):
        validate_gcm([[2, -2], [-1, 2]], require_simply_laced=True)


def test_graph_helpers():
    g = triangle_with_pendant_gcm()
    assert g.edges() == [(0, 1), (0, 2), (1, 2), (2, 3)]
    assert g.neighbors(2) == [0, 1, 3]
    assert g.adjacent(0, 1) and not g.adjacent(0, 3)
    assert g.is_connected()
    assert not g.is_connected([0, 3])
    assert g.is_connected([0, 2, 3]) and not g.is_connected([])
    two = gcm_from_edges(4, [(0, 1), (2, 3)])
    assert two.components() == [[0, 1], [2, 3]]


def test_gcm_json_roundtrip():
    g = triangle_with_pendant_gcm()
    assert gcm_from_json(gcm_to_json(g)) == g
    assert gcm_from_json(json.dumps(gcm_to_json(g))) == g
    with pytest.raises(NotGCM):
        gcm_from_json({"rows": []})


# -- classification ---------------------------------------------------------


def _sympy_classify(gcm):
    """Independent oracle: exact definiteness via sympy."""
    m = sympy.Matrix(gcm.entries)
    sym = sympy.Matrix((m + m.T) / 2) if m != m.T else m
    if sym.is_positive_definite:
        return FINITE
    if sym.det() == 0 and sym.is_positive_semidefinite:
        return AFFINE
    return INDEFINITE


KNOWN = [
    (path_gcm(1), FINITE),
    (path_gcm(2), FINITE),
    (path_gcm(8), FINITE),
    (e_gcm(6), FINITE),
    (e_gcm(7), FINITE),
    (e_gcm(8), FINITE),
    (e_gcm(9), AFFINE),
    (e_gcm(10), INDEFINITE),
    (cycle_gcm(3), AFFINE),
    (cycle_gcm(7), AFFINE),
    (triangle_with_pendant_gcm(), INDEFINITE),
]


@pytest.mark.parametrize("gcm,expected", KNOWN)
def test_classify_known(gcm, expected):
    assert classify(gcm) == expected
    assert _sympy_classify(gcm) == expected


def _connected_graphs(n):
    """All connected simple graphs on n labelled vertices."""
    all_edges = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(all_edges)):
        edges = [e for i, e in enumerate(all_edges) if bits >> i & 1]
        g = gcm_from_edges(n, edges)
        if g.is_connected():
            yield g


def test_classify_matches_oracle_rank_le_4():
    for n in range(1, 5):
        for g in _connected_graphs(n):
            assert classify(g) == _sympy_classify(g), g.entries


def test_classify_disconnected_takes_worst_component():
    # finite + affine component -> affine
    g = GeneralizedCartanMatrix(
        tuple(
            tuple(row)
            for row in [
                [2, 0, 0, 0, 0],
                [0, 2, -1, 0, -1],
                [0, -1, 2, -1, 0],
                [0, 0, -1, 2, -1],
                [0, -1, 0, -1, 2],
            ]
        )
    )
    assert classify(g) == AFFINE


# -- hyperbolicity ----------------------------------------------------------


def _oracle_hyperbolic(gcm):
    if _sympy_classify(gcm) != INDEFINITE:
        return False
    n = gcm.rank
    for size in range(1, n):
        for nodes in itertools.combinations(range(n), size):
            if gcm.is_connected(nodes):
                if _sympy_classify(gcm.submatrix(nodes)) == INDEFINITE:
                    return False
    return True


def test_triangle_with_pendant_is_hyperbolic():
    assert is_hyperbolic(triangle_with_pendant_gcm())


def test_e10_is_hyperbolic():
    assert is_hyperbolic(e_gcm(10))


def test_finite_and_affine_not_hyperbolic():
    assert not is_hyperbolic(path_gcm(4))
    assert not is_hyperbolic(cycle_gcm(4))


def test_hyperbolic_requires_connected():
    with pytest.raises(DisconnectedInput):
        is_hyperbolic(gcm_from_edges(4, [(0, 1), (2, 3)]))


def test_rank2_hyperbolic_iff_ab_exceeds_4():
    # [[2, -a], [-b, 2]] is finite for ab < 4, affine for ab = 4 and
    # indefinite for ab > 4; its proper subdiagrams are A1
    for a in range(1, 8):
        for b in range(1, 8):
            gcm = validate_gcm([[2, -a], [-b, 2]])
            assert is_hyperbolic(gcm) == (a * b > 4), (a, b)


def test_rank4_hyperbolic_enumeration_matches_oracle():
    """Exhaustive labelled enumeration at rank 4 against the brute-force
    subdiagram oracle; the hyperbolic count is derived, not hardcoded."""
    mine = set()
    oracle = set()
    for g in _connected_graphs(4):
        if is_hyperbolic(g):
            mine.add(g.entries)
        if _oracle_hyperbolic(g):
            oracle.add(g.entries)
    assert mine == oracle
    assert len(mine) > 0
    # triangle-with-pendant is among them
    assert triangle_with_pendant_gcm().entries in mine
    # the complete graph K4 is among them (every proper subdiagram is
    # finite or affine)
    k4 = gcm_from_edges(4, list(itertools.combinations(range(4), 2)))
    assert k4.entries in mine


# -- bilinear form ----------------------------------------------------------


def test_bilinear_form_simply_laced_is_cartan_matrix():
    g = triangle_with_pendant_gcm()
    n = g.rank
    for i in range(n):
        for j in range(n):
            x = [1 if a == i else 0 for a in range(n)]
            y = [1 if a == j else 0 for a in range(n)]
            assert bilinear_form(g, x, y) == g.a(i, j)


def test_bilinear_form_symmetrizes_b2():
    b2 = validate_gcm([[2, -2], [-1, 2]])
    # (alpha_0 | alpha_1) must be symmetric
    assert bilinear_form(b2, [1, 0], [0, 1]) == bilinear_form(b2, [0, 1], [1, 0])


def test_bilinear_form_length_check():
    with pytest.raises(ValueError):
        bilinear_form(path_gcm(2), [1], [1, 0])
