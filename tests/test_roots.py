import itertools

import pytest
from hypothesis import given, settings, strategies as st

from kmgroups.cartan import (
    bilinear_form,
    e_gcm,
    path_gcm,
    triangle_with_pendant_gcm,
)
from kmgroups.roots import (
    InputNotRealRoot,
    NotPrenilpotent,
    RealRootSet,
    Root,
    commutation_interval,
    coroot_pairing,
    enumerate_real_roots,
    is_prenilpotent,
    is_real_root,
    root_norm,
    simple_reflection,
    simple_root,
)


def test_root_basics():
    r = Root((1, -2, 0))
    assert r.height == -1
    assert not r.is_positive() and not r.is_negative()
    assert (-r).coeffs == (-1, 2, 0)
    assert (r + r).coeffs == (2, -4, 0)
    assert r.scale(3).coeffs == (3, -6, 0)
    assert Root((1, 0, 0)).is_positive()
    assert Root((0, -1, -1)).is_negative()


def test_simple_reflection_involution():
    g = triangle_with_pendant_gcm()
    r = Root((1, 2, 0, 1))
    for i in range(4):
        assert simple_reflection(g, i, simple_reflection(g, i, r)) == r


def test_coroot_pairing_on_simples():
    g = path_gcm(3)
    for i in range(3):
        for j in range(3):
            assert coroot_pairing(g, i, simple_root(3, j)) == g.a(i, j)


def test_a2_real_roots():
    g = path_gcm(2)
    rs = enumerate_real_roots(g, 5)
    assert len(rs) == 6
    assert sorted(r.coeffs for r in rs.positive()) == [(0, 1), (1, 0), (1, 1)]


def test_a3_real_roots():
    rs = enumerate_real_roots(path_gcm(3), 10)
    assert len(rs) == 12  # A3 has 12 roots, all real


def test_real_root_set_closed_under_negation():
    rs = enumerate_real_roots(triangle_with_pendant_gcm(), 4)
    for r in rs.roots:
        assert -r in rs


def test_enumeration_height_bound_respected():
    rs = enumerate_real_roots(e_gcm(10), 3)
    assert all(abs(r.height) <= 3 for r in rs.roots)
    with pytest.raises(ValueError):
        enumerate_real_roots(path_gcm(2), 0)


def test_all_enumerated_roots_have_norm_2():
    g = triangle_with_pendant_gcm()
    for r in enumerate_real_roots(g, 5).roots:
        assert root_norm(g, r) == 2


def _brute_force_real_roots(gcm, height_bound):
    """Norm-2 vectors in the reflection orbit, by exhaustive coefficient scan
    plus the descent decision -- independent of the BFS enumeration."""
    n = gcm.rank
    found = set()
    for coeffs in itertools.product(range(-height_bound, height_bound + 1), repeat=n):
        r = Root(coeffs)
        if any(coeffs) and abs(r.height) <= height_bound:
            if root_norm(gcm, r) == 2 and (r.is_positive() or r.is_negative()):
                if is_real_root(gcm, r):
                    found.add(r)
    return found


def test_enumeration_matches_brute_force_rank4():
    g = triangle_with_pendant_gcm()
    bound = 4
    rs = enumerate_real_roots(g, bound)
    assert rs.roots == frozenset(_brute_force_real_roots(g, bound))


def test_is_real_root_rejects_norm_not_2():
    g = path_gcm(2)
    assert is_real_root(g, Root((1, 1)))
    assert not is_real_root(g, Root((2, 0)))
    assert not is_real_root(g, Root((0, 0)))


def test_is_real_root_mixed_sign_imaginary_candidates():
    g = triangle_with_pendant_gcm()
    # norm-2 but mixed-sign vectors are not roots
    r = Root((1, -1, 0, 0))
    assert root_norm(g, r) == 6
    assert not is_real_root(g, r)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_descent_agrees_with_membership(a, b, c, d):
    g = triangle_with_pendant_gcm()
    r = Root((a, b, c, d))
    rs = enumerate_real_roots(g, 14)
    if any(r.coeffs):
        assert is_real_root(g, r) == (r in rs)


# -- prenilpotency and commutation intervals --------------------------------


def test_prenilpotent_requires_real_roots():
    g = path_gcm(2)
    with pytest.raises(InputNotRealRoot):
        is_prenilpotent(g, Root((2, 0)), Root((0, 1)))


def test_opposite_pair_not_prenilpotent():
    g = path_gcm(2)
    a = Root((1, 0))
    assert not is_prenilpotent(g, a, -a)


def test_adjacent_simples_prenilpotent_with_unit_interval():
    g = triangle_with_pendant_gcm()
    rs = enumerate_real_roots(g, 6)
    for i in range(4):
        for j in range(4):
            if i != j and g.adjacent(i, j):
                a, b = simple_root(4, i), simple_root(4, j)
                assert is_prenilpotent(g, a, b)
                interval = commutation_interval(g, a, b, rs)
                assert interval == [(1, 1, a + b)]


def test_nonadjacent_simples_empty_interval():
    g = triangle_with_pendant_gcm()
    rs = enumerate_real_roots(g, 6)
    a, b = simple_root(4, 0), simple_root(4, 3)
    assert is_prenilpotent(g, a, b)
    assert commutation_interval(g, a, b, rs) == []


def test_interval_matches_brute_force_scan():
    g = triangle_with_pendant_gcm()
    rs = enumerate_real_roots(g, 25)
    for i in range(4):
        for j in range(i + 1, 4):
            a, b = simple_root(4, i), simple_root(4, j)
            interval = commutation_interval(g, a, b, rs)
            brute = [
                (m, n, a.scale(m) + b.scale(n))
                for m in range(1, 11)
                for n in range(1, 11)
                if is_real_root(g, a.scale(m) + b.scale(n))
                and (a.scale(m) + b.scale(n)).is_positive()
            ]
            assert interval == sorted(brute)


def test_double_root_norm_is_6():
    g = triangle_with_pendant_gcm()
    for i in range(4):
        for j in range(4):
            if i != j and g.adjacent(i, j):
                v = simple_root(4, i).scale(2) + simple_root(4, j)
                assert root_norm(g, v) == 6


def test_commutation_interval_refuses_non_prenilpotent():
    g = path_gcm(2)
    rs = enumerate_real_roots(g, 6)
    a = Root((1, 0))
    with pytest.raises(NotPrenilpotent):
        commutation_interval(g, a, -a, rs)


def test_deep_pairing_consistent_with_family_scan():
    # For pairing <= -2 the norm equation has unbounded solution families;
    # a pair must be rejected whenever some family member is a real root.
    g = triangle_with_pendant_gcm()
    rs = enumerate_real_roots(g, 12)
    a = simple_root(4, 3)
    checked = 0
    for b in rs.positive():
        pairing = bilinear_form(g, a.coeffs, b.coeffs)
        if pairing <= -2 and b != -a:
            verdict = is_prenilpotent(g, a, b)
            witness = any(
                is_real_root(g, a.scale(m) + b.scale(n))
                for m in range(1, 11)
                for n in range(1, 11)
                if m * m + m * n * pairing + n * n == 1
            )
            if witness:
                assert not verdict
            checked += 1
    assert checked > 0


def test_large_pairing_is_not_prenilpotent():
    # (alpha|beta) = -25 lies beyond any bounded m, n <= 24 scan of the norm
    # equation; s_beta(alpha) = alpha + 25 beta is still a real root.
    g = triangle_with_pendant_gcm()
    a, b = Root((2, 3, 5, 2)), Root((8, 6, 5, 2))
    assert is_real_root(g, a) and is_real_root(g, b)
    assert bilinear_form(g, a.coeffs, b.coeffs) == -25
    assert is_real_root(g, a + b.scale(25))
    assert not is_prenilpotent(g, a, b)
    assert not is_prenilpotent(g, b, a)
