"""The extended Weyl group part of the relations: words in the S letters.

R1, R4, R7 and R8 are words in the S letters alone, and S_i^{+-1} acts on
the root lattice as the simple reflection s_i.  These tests run the words
the verifier itself evaluates (verifier.relation_words) through that action,
with the letters applied rightmost first, as evaluate_word composes them.
"""

from collections import Counter

from kmgroups.cartan import e_gcm, triangle_with_pendant_gcm
from kmgroups.roots import simple_reflection, simple_root
from kmgroups.verifier import relation_instances, relation_words

S_ONLY = ("R1", "R4", "R7", "R8")


def act_on_root_lattice(gcm, word, root):
    for sym in reversed(word):
        assert sym.kind == "S"
        root = simple_reflection(gcm, sym.node, root)
    return root


def test_braid_action_agrees_on_lattice():
    g = triangle_with_pendant_gcm()
    braids = [nodes for rid, nodes in relation_instances(g) if rid == "R7"]
    # one instance per ordered adjacent pair: 2 * |edges| = 8
    assert len(braids) == 8
    for i, j in braids:
        assert g.adjacent(i, j)
        lhs, rhs = relation_words("R7", (i, j))
        assert [s.node for s in lhs] == [i, j, i]
        assert [s.node for s in rhs] == [j, i, j]
        for s in range(g.rank):
            r = simple_root(g.rank, s)
            assert act_on_root_lattice(g, lhs, r) == act_on_root_lattice(
                g, rhs, r
            ), (i, j, s)


def test_schema_words_act_consistently_on_lattice():
    for g in (triangle_with_pendant_gcm(), e_gcm(10)):
        checked = Counter()
        for rid, nodes in relation_instances(g):
            if rid not in S_ONLY:
                continue
            lhs, rhs = relation_words(rid, nodes)
            for s in range(g.rank):
                r = simple_root(g.rank, s)
                assert act_on_root_lattice(g, lhs, r) == act_on_root_lattice(
                    g, rhs, r
                ), (rid, nodes, s)
            checked[rid] += 1
        assert set(checked) == set(S_ONLY)
