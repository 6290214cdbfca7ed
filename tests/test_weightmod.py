import importlib.util
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import kmgroups.weightmod as weightmod
from kmgroups.cartan import (
    NotSimplyLaced,
    e_gcm,
    path_gcm,
    triangle_with_pendant_gcm,
    validate_gcm,
)
from kmgroups.weightmod import (
    DepthOverflow,
    DominantWeight,
    NonDominantWeight,
    SliceOutOfRange,
    TruncatedModule,
    ZFormError,
    _shift,
    build_module,
    module_to_json,
)

ORACLES = Path(__file__).resolve().parent.parent / "perfbench" / "oracles.py"


def test_dominant_weight_validation():
    assert DominantWeight((0, 1)).coords == (0, 1)
    with pytest.raises(NonDominantWeight):
        DominantWeight((1, -1))


def test_requires_simply_laced():
    b2 = validate_gcm([[2, -2], [-1, 2]])
    with pytest.raises(NotSimplyLaced):
        build_module(b2, DominantWeight((1, 1)), 2)


@pytest.mark.parametrize("lam", [(1, 1), (1, 1, 1, 1, 1)])
def test_lambda_length_must_match_rank(lam):
    # a short lambda used to fail deep in the build with IndexError, a long
    # one to build a module that ignores the extra coordinates
    with pytest.raises(ValueError, match="coordinates"):
        build_module(triangle_with_pendant_gcm(), DominantWeight(lam), 2)


def test_depth_overflow():
    with pytest.raises(DepthOverflow):
        build_module(path_gcm(2), DominantWeight((1, 1)), 4, max_basis=3)
    with pytest.raises(ValueError):
        build_module(path_gcm(2), DominantWeight((1, 1)), -1)


# -- sl2 sanity -------------------------------------------------------------


def test_sl2_string_module():
    # V^(n) for sl2 is the (n+1)-dimensional irreducible
    for n in range(4):
        m = build_module(path_gcm(1), DominantWeight((n,)), 6)
        ranks = [m.rank_at((d,)) for d in range(7)]
        assert ranks == [1] * (n + 1) + [0] * (6 - n)


def test_sl2_divided_powers_and_sl2_triple():
    n = 4
    m = build_module(path_gcm(1), DominantWeight((n,)), 6)
    # f^(m) v_lambda = basis vector of depth m; coefficients integral
    for d in range(n):
        f1 = m.operator_block("f", 0, 1, (d,))
        assert f1.shape == (1, 1)
    # e f - f e = h on interior slices
    for d in range(1, n):
        e_up = m.operator_block("e", 0, 1, (d,))
        f_dn = m.operator_block("f", 0, 1, (d,))
        ef = m.operator_block("e", 0, 1, (d + 1,)) @ f_dn
        fe = m.operator_block("f", 0, 1, (d - 1,)) @ e_up
        h = m.coroot_pairing((d,), 0)
        assert (ef - fe)[0, 0] == h


@pytest.fixture(scope="module")
def rank4_d5():
    return build_module(triangle_with_pendant_gcm(), DominantWeight((1, 1, 1, 1)), 5)


def _check_divided_equals_iterated(m, sign, max_power):
    # m! X^(m) = X^m for X = e_i or f_i, out of every slice, while the whole
    # string stays inside the truncation
    step = 1 if sign == "f" else -1
    checked = 0
    for k in m.keys:
        for i in range(m.gcm.rank):
            iterated, cur = np.eye(m.rank_at(k), dtype=object), k
            for power in range(1, max_power + 1):
                nxt = _shift(cur, i, step)
                if min(nxt) < 0 or sum(nxt) > m.depth:
                    break
                iterated = m.operator_block(sign, i, 1, cur) @ iterated
                cur = nxt
                divided = m.operator_block(sign, i, power, k)
                assert (math.factorial(power) * divided == iterated).all(), (k, i, power)
                if power > 1 and iterated.any():
                    checked += 1
    assert checked


def test_m_factorial_divided_power_equals_iterated():
    m = build_module(path_gcm(1), DominantWeight((4,)), 6)
    for sign in ("f", "e"):
        _check_divided_equals_iterated(m, sign, 4)


@pytest.mark.parametrize("sign", ["f", "e"])
def test_m_factorial_divided_power_equals_iterated_rank4(rank4_d5, sign):
    _check_divided_equals_iterated(rank4_d5, sign, 3)


# -- A2 adjoint -------------------------------------------------------------


@pytest.fixture(scope="module")
def a2_adjoint():
    return build_module(path_gcm(2), DominantWeight((1, 1)), 4)


def test_a2_adjoint_dimension(a2_adjoint):
    # the adjoint representation of sl3 has dimension 8
    assert a2_adjoint.total_rank() == 8
    assert a2_adjoint.rank_at((1, 1)) == 2  # zero weight space
    assert a2_adjoint.rank_at((2, 2)) == 1  # lowest weight -theta
    assert a2_adjoint.rank_at((2, 0)) == 0  # radical kills f_1^2 v


def test_a2_weight_ranks_weyl_symmetric(a2_adjoint):
    # weights of the adjoint come in Weyl orbits: the six roots have rank 1
    ranks = {k: a2_adjoint.slices[k].rank for k in a2_adjoint.keys}
    assert ranks == {
        (0, 0): 1,
        (1, 0): 1,
        (0, 1): 1,
        (1, 1): 2,
        (2, 1): 1,
        (1, 2): 1,
        (2, 2): 1,
    }


def test_coroot_pairing_values(a2_adjoint):
    assert a2_adjoint.coroot_pairing((0, 0), 0) == 1
    assert a2_adjoint.coroot_pairing((1, 0), 0) == -1
    assert a2_adjoint.coroot_pairing((1, 0), 1) == 2
    with pytest.raises(SliceOutOfRange):
        a2_adjoint.coroot_pairing((3, 3), 0)


def _check_ef_commutators(m):
    # [e_i, f_j] = delta_ij h_i out of every slice k with k + alpha_j inside
    # the truncation
    for k in m.keys:
        if sum(k) + 1 > m.depth:
            continue
        r = m.rank_at(k)
        for i in range(m.gcm.rank):
            for j in range(m.gcm.rank):
                up, dn = _shift(k, j, 1), _shift(k, i, -1)
                tgt = _shift(up, i, -1)
                if min(tgt) < 0:
                    continue  # both sides land above the highest weight
                ef = m.operator_block("e", i, 1, up) @ m.operator_block("f", j, 1, k)
                if k[i]:
                    fe = m.operator_block("f", j, 1, dn) @ m.operator_block("e", i, 1, k)
                else:
                    fe = np.zeros((m.rank_at(tgt), r), dtype=object)
                if i == j:
                    expected = m.coroot_pairing(k, i) * np.eye(r, dtype=object)
                else:
                    expected = np.zeros((m.rank_at(tgt), r), dtype=object)
                assert (ef - fe == expected).all(), (k, i, j)


def test_ef_commutator_on_interior_slices(a2_adjoint):
    _check_ef_commutators(a2_adjoint)


@pytest.mark.parametrize(
    "gcm,lam,depth",
    [
        (triangle_with_pendant_gcm(), (1, 1, 1, 1), 4),
        (triangle_with_pendant_gcm(), (1, 1, 1, 1), 7),
        (e_gcm(10), (1,) * 10, 3),
    ],
    ids=["rank4-d4", "rank4-d7", "e10-d3"],
)
def test_ef_commutator_on_hyperbolic_slices(gcm, lam, depth):
    _check_ef_commutators(build_module(gcm, DominantWeight(lam), depth))


def test_operator_block_m0_is_identity(a2_adjoint):
    blk = a2_adjoint.operator_block("f", 0, 0, (1, 1))
    assert blk.shape == (2, 2)
    assert blk[0, 0] == 1 and blk[1, 1] == 1 and blk[0, 1] == 0


def test_operator_block_out_of_range(a2_adjoint):
    with pytest.raises(SliceOutOfRange):
        a2_adjoint.operator_block("f", 0, 1, (3, 3))
    with pytest.raises(SliceOutOfRange):
        a2_adjoint.operator_block("f", 0, 4, (2, 2))


def test_operator_block_validation(a2_adjoint):
    # (1, 1) has slices on both sides along node 0, so only the checks
    # themselves can reject these
    with pytest.raises(ValueError, match="sign"):
        a2_adjoint.operator_block("x", 0, 1, (1, 1))
    with pytest.raises(ValueError, match="power"):
        a2_adjoint.operator_block("f", 0, -1, (1, 1))


def test_module_json_deterministic(a2_adjoint):
    j1 = module_to_json(a2_adjoint)
    j2 = module_to_json(build_module(path_gcm(2), DominantWeight((1, 1)), 4))
    assert j1 == j2
    assert j1["lambda"] == [1, 1]
    assert sum(w["rank"] for w in j1["weights"]) == 8


# -- hyperbolic rank 4 ------------------------------------------------------


def test_rank4_module_weyl_invariant_multiplicities():
    m = build_module(triangle_with_pendant_gcm(), DominantWeight((1, 1, 1, 1)), 4)
    # multiplicity is invariant under the simple reflection through node i
    # whenever both weights are inside the truncation:
    # s_i(lambda - sum k alpha) = lambda - sum k' alpha with
    # k' = k + (<mu, alpha_i^vee>) e_i
    for k in m.keys:
        for i in range(4):
            p = m.coroot_pairing(k, i)
            k2 = list(k)
            k2[i] += p
            k2 = tuple(k2)
            if min(k2) >= 0 and sum(k2) <= m.depth:
                assert m.rank_at(k2) == m.rank_at(k), (k, i)


def test_rank4_first_weight_spaces():
    m = build_module(triangle_with_pendant_gcm(), DominantWeight((1, 1, 1, 1)), 2)
    assert m.rank_at((0, 0, 0, 0)) == 1
    for i in range(4):
        e = tuple(1 if j == i else 0 for j in range(4))
        assert m.rank_at(e) == 1
        # f_i^2 v_lambda = 0 for lambda_i = 1
        assert m.rank_at(tuple(2 * c for c in e)) == 0


# -- slice construction -----------------------------------------------------


@pytest.mark.parametrize(
    "gcm,lam,depth",
    [
        (triangle_with_pendant_gcm(), (1, 1, 1, 1), 4),
        (e_gcm(10), (1,) * 10, 2),
    ],
    ids=["rank4-d4", "e10-d2"],
)
def test_slice_monomials_are_the_sorted_words_of_its_content(gcm, lam, depth):
    # the build does not use these lists; they are made on read because
    # perfbench/tracing.py counts them
    m = build_module(gcm, DominantWeight(lam), depth)
    for k, sl in m.slices.items():
        word = [i for i, c in enumerate(k) for _ in range(c)]
        assert sl.monomials == sorted(set(itertools.permutations(word))), k


def _column_words(m):
    # column c of slice k's basis_psi pairs with f_w v_lambda for the word
    # w = words[k][c]: the first letter j, then a pivot word of k - alpha_j
    words = {}
    for k in m.slices:
        if not any(k):
            words[k] = [()]
            continue
        words[k] = [
            (j,) + words[t][p]
            for j, kj in enumerate(k)
            if kj and (sl := m.slices.get(t := _shift(k, j, -1)))
            for p in sl.pivots
        ]
    return words


@pytest.mark.parametrize(
    "gcm,lam,depth",
    [
        (path_gcm(2), (1, 1), 4),
        (path_gcm(3), (1, 1, 1), 5),
        (triangle_with_pendant_gcm(), (1, 1, 1, 1), 4),
        (triangle_with_pendant_gcm(), (1, 1, 1, 1), 6),
        (e_gcm(10), (1,) * 10, 3),
        (e_gcm(10), (1,) + (0,) * 9, 4),
    ],
    ids=["a2-d4", "a3-d5", "rank4-d4", "rank4-d6", "e10-d3", "e10-omega1-d4"],
)
def test_basis_psi_rows_are_pairing_vectors(gcm, lam, depth):
    # <b, f_w1 ... f_wn v> = <e_wn ... e_w1 b, v>: applying the e-blocks of
    # w1, ..., wn to basis vector b gives its pairing with f_w v at v_lambda
    m = build_module(gcm, DominantWeight(lam), depth)
    words = _column_words(m)
    for k in m.keys:
        sl = m.slices[k]
        assert sl.basis_psi.shape == (sl.rank, len(words[k])), k
        for col, word in enumerate(words[k]):
            image, cur = np.eye(sl.rank, dtype=object), k
            for j in word:
                image = m.operator_block("e", j, 1, cur) @ image
                cur = _shift(cur, j, -1)
            assert (image[0] == sl.basis_psi[:, col]).all(), (k, word)


@pytest.mark.parametrize(
    "gcm,lam",
    [(path_gcm(2), (1, 1)), (triangle_with_pendant_gcm(), (1, 1, 1, 1))],
    ids=["a2", "rank4"],
)
def test_wrong_e_image_is_caught(monkeypatch, gcm, lam):
    # e_i f_i b gains an extra b.  (The same extra f_i^(m-1) b for every m
    # would shift each <nu, alpha_i^vee> by 1: a consistent build of
    # V^(lambda + rho), which no lattice check can catch.)
    real = weightmod._e_image

    def wrong(mod, j, i, m, s):
        out = real(mod, j, i, m, s)
        if j == i and m == 1:
            out = out + np.eye(mod.rank_at(s), dtype=object)
        return out

    monkeypatch.setattr(weightmod, "_e_image", wrong)
    with pytest.raises(ZFormError):
        build_module(gcm, DominantWeight(lam), 4)


@pytest.fixture(scope="module")
def oracles():
    # perfbench's oracles share no code with the package; load the file
    # without writing bytecode next to it
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.mark.parametrize(
    "gcm,lam,depth",
    [
        (path_gcm(2), (1, 1), 4),
        (triangle_with_pendant_gcm(), (1, 1, 1, 1), 5),
        (triangle_with_pendant_gcm(), (1, 1, 1, 1), 7),
        (e_gcm(10), (1,) * 10, 3),
        (e_gcm(10), (1,) + (0,) * 9, 4),
    ],
    ids=["a2-d4", "rank4-d5", "rank4-d7", "e10-d3", "e10-omega1-d4"],
)
def test_slice_ranks_are_weyl_kac_multiplicities(oracles, gcm, lam, depth):
    # the lattice checks cannot see an error that shifts every coroot
    # pairing alike (a consistent build of another V^lambda'); the
    # Weyl-Kac character formula can
    m = build_module(gcm, DominantWeight(lam), depth)
    mult = oracles.weight_multiplicities(
        [list(row) for row in gcm.entries], list(lam), depth
    )
    assert {k: m.rank_at(k) for k in mult} == mult


@pytest.mark.parametrize(
    "gcm,lam,depth,empty",
    [
        (path_gcm(2), (1, 1), 4, (2, 0)),
        (triangle_with_pendant_gcm(), (1, 1, 1, 1), 6, (2, 0, 0, 0)),
        (e_gcm(10), (1,) + (0,) * 9, 4, (0, 1, 0, 0, 0, 0, 0, 0, 0, 0)),
    ],
    ids=["a2-d4", "rank4-d6", "e10-omega1-d4"],
)
def test_slices_are_the_nonzero_weight_spaces(gcm, lam, depth, empty):
    m = build_module(gcm, DominantWeight(lam), depth)
    assert all(sl.rank > 0 for sl in m.slices.values())
    keys = list(m.slices)
    assert keys == sorted(keys, key=lambda k: (sum(k), k))
    assert m.keys == keys
    # an in-range depth vector with no slice is a 0-column source
    assert empty not in m.slices and m.rank_at(empty) == 0
    blk = m.operator_block("f", 0, 1, empty)
    assert blk.shape == (m.rank_at(_shift(empty, 0, 1)), 0)
    with pytest.raises(SliceOutOfRange):
        m.operator_block("f", 0, 1, (depth,) + (0,) * (gcm.rank - 1))
    with pytest.raises(SliceOutOfRange):
        m.operator_block("e", 0, 1, (-1,) + (0,) * (gcm.rank - 1))


@pytest.mark.parametrize(
    "gcm,lam,depth",
    [
        (path_gcm(2), (1, 1), 4),
        (triangle_with_pendant_gcm(), (1, 1, 1, 1), 5),
        (e_gcm(10), (1,) * 10, 3),
    ],
    ids=["a2-d4", "rank4-d5", "e10-d3"],
)
def test_global_basis_numbering(gcm, lam, depth):
    # groupgen.chi_minus reads a column's deepest drop off its first row,
    # which needs depth_of to be non-decreasing in the basis index
    m = build_module(gcm, DominantWeight(lam), depth)
    start = 0
    for s, k in enumerate(m.keys):
        assert m.offset[k] == start
        rows = slice(start, start + m.rank_at(k))
        assert (m.slice_of[rows] == s).all()
        assert (m.depth_of[rows] == sum(k)).all()
        assert m.pairing[s].tolist() == [
            m.coroot_pairing(k, i) for i in range(gcm.rank)
        ]
        start += m.rank_at(k)
    assert m.n == start == m.total_rank() == len(m.depth_of)
    assert m.pairing.shape == (len(m.keys), gcm.rank)
    assert (np.diff(m.depth_of) >= 0).all()
