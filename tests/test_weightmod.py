import math

import numpy as np
import pytest

from kmgroups.cartan import (
    NotSimplyLaced,
    e_gcm,
    path_gcm,
    triangle_with_pendant_gcm,
    validate_gcm,
)
from kmgroups import weightmod
from kmgroups.weightmod import (
    DepthOverflow,
    DominantWeight,
    NonDominantWeight,
    SliceOutOfRange,
    TruncatedModule,
    build_module,
    divided_power_matrix,
    module_to_json,
)


def test_dominant_weight_validation():
    assert DominantWeight((0, 1)).coords == (0, 1)
    assert DominantWeight((1, 1)).is_regular
    assert not DominantWeight((0, 1)).is_regular
    with pytest.raises(NonDominantWeight):
        DominantWeight((1, -1))


def test_requires_simply_laced():
    b2 = validate_gcm([[2, -2], [-1, 2]])
    with pytest.raises(NotSimplyLaced):
        build_module(b2, DominantWeight((1, 1)), 2)


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
        f1 = divided_power_matrix(m, 0, 1, "f", (d,))
        assert f1.shape == (1, 1)
    # e f - f e = h on interior slices
    for d in range(1, n):
        e_up = divided_power_matrix(m, 0, 1, "e", (d,))
        f_dn = divided_power_matrix(m, 0, 1, "f", (d,))
        ef = divided_power_matrix(m, 0, 1, "e", (d + 1,)) @ f_dn
        fe = divided_power_matrix(m, 0, 1, "f", (d - 1,)) @ e_up
        h = m.coroot_pairing((d,), 0)
        assert (ef - fe)[0, 0] == h


def test_m_factorial_divided_power_equals_iterated():
    m = build_module(path_gcm(1), DominantWeight((4,)), 6)
    for power in range(1, 5):
        fm = divided_power_matrix(m, 0, power, "f", (0,))
        iterated = np.eye(1, dtype=object)
        iterated = divided_power_matrix(m, 0, 1, "f", (0,))
        for step in range(1, power):
            iterated = divided_power_matrix(m, 0, 1, "f", (step,)) @ iterated
        assert math.factorial(power) * fm[0, 0] == iterated[0, 0]


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
    ranks = {k: a2_adjoint.slices[k].rank for k in a2_adjoint.weight_keys()}
    assert ranks == {
        (0, 0): 1,
        (1, 0): 1,
        (0, 1): 1,
        (1, 1): 2,
        (2, 1): 1,
        (1, 2): 1,
        (2, 2): 1,
    }


def test_gram_matrices_symmetric(a2_adjoint):
    for k, sl in a2_adjoint.slices.items():
        g = sl.gram
        assert (g == g.T).all()


def test_coroot_pairing_values(a2_adjoint):
    assert a2_adjoint.coroot_pairing((0, 0), 0) == 1
    assert a2_adjoint.coroot_pairing((1, 0), 0) == -1
    assert a2_adjoint.coroot_pairing((1, 0), 1) == 2
    with pytest.raises(SliceOutOfRange):
        a2_adjoint.coroot_pairing((3, 3), 0)


def test_ef_commutator_on_interior_slices(a2_adjoint):
    m = a2_adjoint
    for k in m.weight_keys():
        d = sum(k)
        if d + 1 > m.depth:
            continue
        for i in range(2):
            r = m.rank_at(k)
            up = tuple(kj + (1 if j == i else 0) for j, kj in enumerate(k))
            dn = tuple(kj - (1 if j == i else 0) for j, kj in enumerate(k))
            ef = m.operator_block("e", i, 1, up) @ m.operator_block("f", i, 1, k)
            if min(dn) >= 0:
                fe = m.operator_block("f", i, 1, dn) @ m.operator_block("e", i, 1, k)
            else:
                fe = np.zeros((r, r), dtype=object)
            h = m.coroot_pairing(k, i)
            expected = np.array(
                [[h if a == b else 0 for b in range(r)] for a in range(r)],
                dtype=object,
            )
            assert (ef - fe == expected).all(), (k, i)


def test_operator_block_m0_is_identity(a2_adjoint):
    blk = a2_adjoint.operator_block("f", 0, 0, (1, 1))
    assert blk.shape == (2, 2)
    assert blk[0, 0] == 1 and blk[1, 1] == 1 and blk[0, 1] == 0


def test_operator_block_out_of_range(a2_adjoint):
    with pytest.raises(SliceOutOfRange):
        a2_adjoint.operator_block("f", 0, 1, (3, 3))
    with pytest.raises(SliceOutOfRange):
        a2_adjoint.operator_block("f", 0, 4, (2, 2))


def test_divided_power_matrix_validation(a2_adjoint):
    with pytest.raises(ValueError):
        divided_power_matrix(a2_adjoint, 0, 1, "g", (0, 0))
    with pytest.raises(ValueError):
        divided_power_matrix(a2_adjoint, 0, -1, "f", (0, 0))


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
    for k in m.weight_keys():
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


@pytest.mark.parametrize(
    "gcm,lam,depth",
    [
        (triangle_with_pendant_gcm(), (1, 1, 1, 1), 5),
        (e_gcm(10), (1,) * 10, 3),
    ],
    ids=["rank4-d5", "e10-d3"],
)
def test_basis_lift_pairs_to_scaled_basis(gcm, lam, depth):
    # The stored lifts are lift_den * (Verma vectors) whose pairing vectors
    # are the basis rows: basis_lift @ gram == lift_den * basis_psi exactly.
    m = build_module(gcm, DominantWeight(lam), depth)
    for sl in m.slices.values():
        assert sl.basis_lift.shape == sl.basis_psi.shape == (sl.rank, len(sl.monomials))
        assert sl.lift_den >= 1
        assert np.array_equal(sl.basis_lift @ sl.gram, sl.lift_den * sl.basis_psi)


def test_operator_blocks_divide_by_lift_den(monkeypatch):
    # Every slice met so far solves with lift_den == 1, so scale the lifts
    # by hand while building: the operator blocks must not change.
    gcm, lam = triangle_with_pendant_gcm(), DominantWeight((1, 1, 1, 1))
    before = module_to_json(build_module(gcm, lam, 4))
    lift_basis = weightmod._lift_basis

    def scaled_lift_basis(g, psi, pivots):
        den, lift = lift_basis(g, psi, pivots)
        return 3 * den, 3 * lift

    monkeypatch.setattr(weightmod, "_lift_basis", scaled_lift_basis)
    m = build_module(gcm, lam, 4)
    assert all(sl.lift_den == 3 for sl in m.slices.values())
    assert module_to_json(m) == before
