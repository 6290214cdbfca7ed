from collections import Counter

import pytest

from kmgroups.cartan import e_gcm, gcm_from_edges, path_gcm, triangle_with_pendant_gcm
from kmgroups.groupgen import GeneratorSymbol
from kmgroups.verifier import (
    RELATION_IDS,
    OracleMismatch,
    SignNone,
    kernel_membership,
    kernel_probe,
    relation_instances,
    relation_words,
    resolve_commutator_sign,
    verify_all,
    verify_relation,
)
from kmgroups.weightmod import DominantWeight, build_module


@pytest.fixture(scope="module")
def a2():
    return build_module(path_gcm(2), DominantWeight((1, 1)), 6)


@pytest.fixture(scope="module")
def a3():
    return build_module(path_gcm(3), DominantWeight((1, 1, 1)), 4)


def test_relation_inventory():
    assert RELATION_IDS == [f"R{n}" for n in range(1, 13)]
    g = triangle_with_pendant_gcm()
    counts = Counter(rid for rid, _ in relation_instances(g))
    assert counts["R1"] == counts["R2"] == counts["R3"] == 4
    assert counts["R4"] == counts["R5"] == counts["R6"] == 4  # ordered non-adj
    assert counts["R7"] == counts["R11"] == 8  # ordered adjacent


def test_relation_words_shapes():
    lhs, rhs = relation_words("R1", (0,))
    assert len(lhs) == 4 and rhs == []
    lhs, rhs = relation_words("R3", (0,))
    assert len(lhs) == 1 and len(rhs) == 5
    lhs, rhs = relation_words("R11", (0, 1), sign=-1)
    assert rhs[1].arg == -1
    with pytest.raises(ValueError):
        relation_words("R13", (0, 1))


# The relation words as symbol lists, the way they were written before they
# became `kmgroups word` text: a reference independent of parse_word.


def _X(i, t=1):
    return GeneratorSymbol("X+", i, t)


def _S(i, e=1):
    return GeneratorSymbol("S", i, e)


def _inv(word):
    return [sym.inverse() for sym in reversed(word)]


def _comm(a, b):
    return list(a) + list(b) + _inv(a) + _inv(b)


def _reference_words(rid, nodes, sign):
    i, j = nodes[0], nodes[-1]
    return {
        "R1": ([_S(i)] * 4, []),
        "R2": (_comm([_S(i), _S(i)], [_X(i)]), []),
        "R3": ([_S(i)], [_X(i), _S(i), _X(i), _S(i, -1), _X(i)]),
        "R4": ([_S(i), _S(j)], [_S(j), _S(i)]),
        "R5": (_comm([_S(i)], [_X(j)]), []),
        "R6": (_comm([_X(i)], [_X(j)]), []),
        "R7": ([_S(i), _S(j), _S(i)], [_S(j), _S(i), _S(j)]),
        "R8": ([_S(i), _S(i), _S(j), _S(i, -1), _S(i, -1)], [_S(j, -1)]),
        "R9": ([_X(i), _S(j), _S(i)], [_S(j), _S(i), _X(j)]),
        "R10": ([_S(i), _S(i), _X(j), _S(i, -1), _S(i, -1)], [_X(j, -1)]),
        "R11": (_comm([_X(i)], [_X(j)]), [_S(i), _X(j, sign), _S(i, -1)]),
        "R12": (_comm([_X(i)], [_S(i), _X(j), _S(i, -1)]), []),
    }[rid]


@pytest.mark.parametrize(
    "gcm", [triangle_with_pendant_gcm(), e_gcm(10)], ids=["rank4", "e10"]
)
def test_relation_words_match_reference(gcm):
    instances = list(relation_instances(gcm))
    assert {rid for rid, _ in instances} == set(RELATION_IDS)
    for rid, nodes in instances:
        for sign in (1, -1):
            want = _reference_words(rid, nodes, sign)
            assert relation_words(rid, nodes, sign) == tuple(want), (rid, nodes)


@pytest.mark.parametrize(
    "rid,nodes",
    [("R0", (0,)), ("r1", (0,)), ("R1", (0, 1)), ("R3", ()), ("R4", (0,)),
     ("R11", (0, 1, 2))],
)
def test_relation_words_reject_bad_instances(rid, nodes):
    with pytest.raises(ValueError):
        relation_words(rid, nodes)


def test_a2_full_suite_verifies(a2):
    report = verify_all(a2)
    assert report.all_verified
    assert not report.any_window_empty
    assert set(report.r11_signs().values()) <= {1, -1}
    json = report.to_json()
    assert json["lambda"] == [1, 1]
    assert len(json["relations"]) == len(report.results)
    assert all(r["status"] == "verified" for r in json["relations"])


def test_single_relation_result(a2):
    res = verify_relation(a2, "R1", (0,))
    assert res.status == "verified"
    assert res.window >= 2
    assert res.columns > 0
    assert res.to_json()["nodes"] == [1]


def test_r11_sign_unique(a2):
    for pair in [(0, 1), (1, 0)]:
        eps = resolve_commutator_sign(a2, *pair)
        assert eps in (1, -1)


def test_r11_sign_consistent_across_depths():
    signs = {}
    for depth in (3, 4, 5):
        m = build_module(path_gcm(2), DominantWeight((1, 1)), depth)
        signs[depth] = {
            (i, j): resolve_commutator_sign(m, i, j)
            for i, j in [(0, 1), (1, 0)]
        }
    assert signs[3] == signs[4] == signs[5]


def test_resolve_sign_requires_adjacent(a3):
    with pytest.raises(ValueError):
        resolve_commutator_sign(a3, 0, 2)


def test_window_empty_status():
    m = build_module(path_gcm(2), DominantWeight((1, 1)), 1)
    res = verify_relation(m, "R7", (0, 1))
    assert res.status == "window_empty"


def test_failure_produces_witness(a2, monkeypatch):
    # a deliberately false identity: S_i = X_i
    import kmgroups.verifier as verifier

    def false_identity(rid, nodes, sign=1):
        return [_S(nodes[0])], [_X(nodes[0])]

    monkeypatch.setattr(verifier, "relation_words", false_identity)
    res = verify_relation(a2, "R1", (0,))
    assert res.status == "failed"
    witness = res.witness
    assert witness is not None
    assert "column" in witness and "lhs_image" in witness and "rhs_image" in witness
    assert res.to_json()["witness"] == witness


# -- kernel probe -----------------------------------------------------------


def test_kernel_membership_parity_cases():
    g = path_gcm(2)
    lam = DominantWeight((1, 1))
    assert kernel_membership(g, lam, [])
    assert not kernel_membership(g, lam, [0])  # <lambda, alpha_0^vee> odd
    g1 = path_gcm(1)
    assert kernel_membership(g1, DominantWeight((2,)), [0])
    assert not kernel_membership(g1, DominantWeight((1,)), [0])
    with pytest.raises(ValueError):
        kernel_membership(g, lam, [5])


def test_kernel_membership_gf2_linear():
    # symmetric difference of members is a member
    g = path_gcm(3)
    lam = DominantWeight((1, 1, 1))
    members = [
        frozenset(s)
        for s in _subsets(3)
        if kernel_membership(g, lam, sorted(s))
    ]
    for a in members:
        for b in members:
            assert frozenset(a ^ b) in members


def _subsets(n):
    out = []
    for mask in range(1 << n):
        out.append({i for i in range(n) if mask >> i & 1})
    return out


def test_kernel_probe_a1_even_weight():
    m = build_module(path_gcm(1), DominantWeight((2,)), 4)
    res = kernel_probe(m)
    assert res["subgroup_order"] == 2
    assert res["members"] == [[], [0]]
    assert res["generators"] == [[0]]
    assert res["not_separated"] == []


def test_kernel_probe_a3_regular(a3):
    # A3 mod 2 has null space {(1,0,1)}; lambda = (1,1,1) sums evenly on it
    res = kernel_probe(a3)
    assert res["subgroup_order"] == 2
    assert [0, 2] in res["members"]
    assert res["not_separated"] == []


def test_kernel_probe_a2_trivial(a2):
    res = kernel_probe(a2)
    assert res["subgroup_order"] == 1
    assert res["members"] == [[]]
    assert res["generators"] == []


def test_kernel_probe_subgroup_closure(a3):
    res = kernel_probe(a3)
    members = {frozenset(s) for s in res["members"]}
    for a in members:
        for b in members:
            assert frozenset(a ^ b) in members
    # order divides 2^rank
    assert 16 % res["subgroup_order"] == 0



A3_AFFINE = gcm_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])

# (diagram, lambda, depth, kernel_probe's members, generators, not_separated)
KERNEL_CASES = {
    "e10-d3": (e_gcm(10), (1,) * 10, 3, [[]], [], []),
    "a3-affine-2000-d3": (
        A3_AFFINE, (2, 0, 0, 0), 3,
        [[], [0, 2], [1, 3], [0, 1, 2, 3]], [[0, 2], [1, 3]], [],
    ),
    "d4-d3": (
        gcm_from_edges(4, [(0, 1), (0, 2), (0, 3)]), (1, 1, 1, 1), 3,
        [[], [1, 2], [1, 3], [2, 3]], [[1, 2], [1, 3]], [],
    ),
    # the highest weight alone, pairing oddly with alpha_1^vee
    "a2-10-d0": (path_gcm(2), (1, 0), 0, [[]], [], [[1]]),
    # too shallow to separate four criterion-negative subsets
    "a3-affine-2000-d1": (
        A3_AFFINE, (2, 0, 0, 0), 1,
        [[], [0, 2], [1, 3], [0, 1, 2, 3]], [[0, 2], [1, 3]],
        [[0], [2], [0, 1, 3], [1, 2, 3]],
    ),
}


@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_kernel_parity_table_matches_per_weight_rule(case):
    gcm, lam, depth, members, generators, not_separated = KERNEL_CASES[case]
    m = build_module(gcm, DominantWeight(lam), depth)
    # the per-weight rule: h_S acts trivially on the truncation iff every
    # populated weight pairs evenly with sum_{i in S} alpha_i^vee
    trivial = [
        subset
        for subset in map(sorted, _subsets(gcm.rank))
        if all(
            sum(m.coroot_pairing(k, i) for i in subset) % 2 == 0
            for k in m.keys
        )
    ]
    assert 0 < len(trivial) < 2**gcm.rank
    res = kernel_probe(m)
    # the probe's oracle-trivial subsets are its members and the rest
    assert sorted(res["members"] + res["not_separated"]) == sorted(trivial)
    assert res["members"] == members
    assert res["generators"] == generators
    assert res["not_separated"] == not_separated
    assert res["subgroup_order"] == len(members)
