"""End-to-end acceptance checks.

Each test is one pass/fail line for one acceptance criterion; all checks are
exact integer identities with zero tolerance.
"""

import itertools
import math

import numpy as np
import pytest

from kmgroups.cartan import bilinear_form, e_gcm, path_gcm, triangle_with_pendant_gcm
from kmgroups.groupgen import WindowedMatrix, h_element, w_tilde
from kmgroups.roots import (
    commutation_interval,
    enumerate_real_roots,
    is_real_root,
    root_norm,
    simple_root,
)
from kmgroups.verifier import kernel_probe, verify_all
from kmgroups.weightmod import DominantWeight, build_module


@pytest.fixture(scope="module")
def rank4_modules():
    g = triangle_with_pendant_gcm()
    lam = DominantWeight((1, 1, 1, 1))
    return {d: build_module(g, lam, d) for d in (4, 5, 6)}


@pytest.fixture(scope="module")
def rank4_reports(rank4_modules):
    return {d: verify_all(m) for d, m in rank4_modules.items()}


@pytest.fixture(scope="module")
def e10_module():
    return build_module(e_gcm(10), DominantWeight((1,) * 10), 4)


@pytest.fixture(scope="module")
def a2_module():
    # lambda = (1,1) = alpha1 + alpha2 is the adjoint module of sl3. Its
    # lowest weight w0(lambda) = -lambda = lambda - 2*alpha1 - 2*alpha2 sits at
    # depth ht(2*alpha1 + 2*alpha2) = 4, so depth 4 is the first truncation
    # that holds the whole 8-dimensional module (depth 3 holds 7 vectors).
    return build_module(path_gcm(2), DominantWeight((1, 1)), 4)


def test_01_relation_suite_rank4_depth6(rank4_reports):
    report = rank4_reports[6]
    assert report.all_verified
    assert not report.any_window_empty
    signs = report.r11_signs()
    assert signs and all(eps in (1, -1) for eps in signs.values())


def test_02_relation_suite_e10_depth4(e10_module):
    report = verify_all(e10_module)
    assert report.all_verified
    assert not report.any_window_empty


def test_03_extended_weyl_matrix_identities(rank4_modules):
    # order-4 on the hyperbolic rank-4 module, where every node keeps a
    # window of depth >= 2 through the fourth power
    m = rank4_modules[6]
    ident = WindowedMatrix.identity(m)
    for i in range(4):
        s = w_tilde(m, i, 1)
        equal, window, _ = (s @ s @ s @ s).equal_on_window(ident, min_window=2)
        assert equal and window >= 2, ("order4", i)
    # braid and square-conjugation need deeper truncations for mixed-node
    # words; the A2 module retains the full window of depth 6
    m2 = build_module(path_gcm(2), DominantWeight((1, 1)), 6)
    s = {i: w_tilde(m2, i, 1) for i in range(2)}
    s_inv = {i: w_tilde(m2, i, -1) for i in range(2)}
    for i, j in itertools.permutations(range(2), 2):
        lhs = s[i] @ s[j] @ s[i]
        rhs = s[j] @ s[i] @ s[j]
        equal, window, _ = lhs.equal_on_window(rhs, min_window=2)
        assert equal and window >= 2, ("braid", i, j)
        # conjugation of the square by an adjacent representative
        lhs = s[j] @ s[i] @ s[i] @ s_inv[j]
        rhs = s[i] @ s[i] @ s[j] @ s[j]
        equal, window, _ = lhs.equal_on_window(rhs, min_window=2)
        assert equal and window >= 2, ("square_conj", i, j)


def test_04_commutation_intervals_and_norms():
    g = triangle_with_pendant_gcm()
    rs = enumerate_real_roots(g, 25)
    for i, j in itertools.permutations(range(4), 2):
        a, b = simple_root(4, i), simple_root(4, j)
        interval = commutation_interval(g, a, b, rs)
        brute = sorted(
            (mm, nn, a.scale(mm) + b.scale(nn))
            for mm in range(1, 11)
            for nn in range(1, 11)
            if is_real_root(g, a.scale(mm) + b.scale(nn))
        )
        assert interval == brute, (i, j)
        if g.adjacent(i, j):
            assert interval == [(1, 1, a + b)]
            v = a.scale(2) + b
            assert root_norm(g, v) == 6
            assert bilinear_form(g, v.coeffs, v.coeffs) == 6
        else:
            assert interval == []


def test_05_zform_integrality(rank4_modules):
    m = rank4_modules[4]
    # every divided-power operator matrix has integer entries
    for (op, i, power), blocks in sorted(m.ops.items()):
        for k, blk in sorted(blocks.items()):
            for v in blk.flat:
                assert isinstance(v, (int, np.integer)), (op, i, power, k)
    # [e_i, f_i] = h_i on interior slices
    for k in m.keys:
        if sum(k) + 1 > m.depth:
            continue
        for i in range(4):
            r = m.rank_at(k)
            up = tuple(c + (1 if j == i else 0) for j, c in enumerate(k))
            dn = tuple(c - (1 if j == i else 0) for j, c in enumerate(k))
            ef = m.operator_block("e", i, 1, up) @ m.operator_block("f", i, 1, k)
            if min(dn) >= 0:
                fe = m.operator_block("f", i, 1, dn) @ m.operator_block(
                    "e", i, 1, k
                )
            else:
                fe = np.zeros((r, r), dtype=object)
            h = m.coroot_pairing(k, i)
            assert all(
                (ef - fe)[a, b] == (h if a == b else 0)
                for a in range(r)
                for b in range(r)
            ), (k, i)
    # m! f^(m) = f^m for m <= 4
    for i in range(4):
        for power in range(1, 5):
            for k in m.keys:
                tgt = tuple(
                    c + (power if j == i else 0) for j, c in enumerate(k)
                )
                if sum(tgt) > m.depth:
                    continue
                fm = m.operator_block("f", i, power, k)
                iterated = np.eye(m.rank_at(k), dtype=object)
                src = k
                for _ in range(power):
                    iterated = m.operator_block("f", i, 1, src) @ iterated
                    src = tuple(
                        c + (1 if j == i else 0) for j, c in enumerate(src)
                    )
                assert (math.factorial(power) * fm == iterated).all(), (
                    i,
                    power,
                    k,
                )


def test_06_kernel_probe_against_oracle():
    configs = [
        (path_gcm(1), (2,), 2),
        (path_gcm(2), (1, 1), 1),
        (path_gcm(3), (1, 1, 1), 2),
        (triangle_with_pendant_gcm(), (1, 1, 1, 1), 1),
    ]
    for gcm, lam, expected_order in configs:
        m = build_module(gcm, DominantWeight(lam), 4)
        # kernel_probe cross-checks the parity criterion against the
        # diagonal-matrix oracle internally and raises on any mismatch
        res = kernel_probe(m)
        assert res["subgroup_order"] == expected_order, (lam,)
        assert 2**gcm.rank % res["subgroup_order"] == 0
        # h_i(-1) squares to the identity
        ident = WindowedMatrix.identity(m)
        for i in range(gcm.rank):
            h = h_element(m, i, -1)
            equal, _, compared = (h @ h).equal_on_window(ident)
            assert equal and compared > 0, (lam, i)


def test_07_finite_type_sanity_a2(a2_module):
    assert a2_module.total_rank() == 8
    report = verify_all(a2_module)
    assert report.all_verified


def test_08_truncation_monotonicity(rank4_reports):
    statuses = {
        d: {(r.id, r.nodes): r.status for r in rep.results}
        for d, rep in rank4_reports.items()
    }
    for d_low, d_high in [(4, 5), (5, 6), (4, 6)]:
        for key, status in statuses[d_low].items():
            if status == "verified":
                assert statuses[d_high][key] != "failed", (d_low, d_high, key)
    signs = {d: rep.r11_signs() for d, rep in rank4_reports.items()}
    assert signs[4] == signs[5] == signs[6]
