import numpy as np
import pytest

from kmgroups import groupgen
from kmgroups.cartan import e_gcm, path_gcm, triangle_with_pendant_gcm
from kmgroups.groupgen import (
    GeneratorSymbol,
    NonUnitScalar,
    WindowEmpty,
    WindowedMatrix,
    WordSyntaxError,
    chi_minus,
    chi_plus,
    evaluate_word,
    generator_matrix,
    h_element,
    parse_word,
    shared_identity,
    w_tilde,
)
from kmgroups.verifier import relation_instances, relation_words
from kmgroups.weightmod import DominantWeight, build_module


@pytest.fixture(scope="module")
def a2():
    return build_module(path_gcm(2), DominantWeight((1, 1)), 4)


@pytest.fixture(scope="module")
def rank4():
    return build_module(triangle_with_pendant_gcm(), DominantWeight((1, 1, 1, 1)), 4)


def test_identity_window_full(a2):
    ident = WindowedMatrix.identity(a2)
    assert ident.valid_depth() == 4
    equal, window, compared = ident.equal_on_window(ident)
    assert equal and window == 4 and compared == 8


def test_chi_plus_exact_everywhere(a2):
    x = chi_plus(a2, 0, 1)
    assert x.valid_depth() == 4
    # unipotent: blocks only move depth down, identity on the diagonal
    for (tgt, src) in x.blocks:
        assert sum(tgt) <= sum(src)
    for k in a2.keys:
        blk = x.blocks[(k, k)]
        r = a2.rank_at(k)
        assert all(
            blk[a, b] == (1 if a == b else 0) for a in range(r) for b in range(r)
        )


def test_chi_minus_moves_depth_up(a2):
    y = chi_minus(a2, 0, 1)
    for (tgt, src) in y.blocks:
        assert sum(tgt) >= sum(src)


def test_chi_additivity(a2):
    # chi(t) chi(u) = chi(t + u), exactly on mutually exact columns
    for t, u in [(1, 1), (2, -1), (3, 4)]:
        lhs = chi_plus(a2, 0, t) @ chi_plus(a2, 0, u)
        rhs = chi_plus(a2, 0, t + u)
        equal, _, compared = lhs.equal_on_window(rhs)
        assert equal and compared == 8
        lhs = chi_minus(a2, 1, t) @ chi_minus(a2, 1, u)
        rhs = chi_minus(a2, 1, t + u)
        equal, _, compared = lhs.equal_on_window(rhs)
        assert equal and compared > 0


def test_chi_inverse(a2):
    x = chi_plus(a2, 0, 5) @ chi_plus(a2, 0, -5)
    equal, window, _ = x.equal_on_window(WindowedMatrix.identity(a2))
    assert equal and window == 4


def test_w_tilde_requires_unit():
    m = build_module(path_gcm(1), DominantWeight((1,)), 2)
    with pytest.raises(NonUnitScalar):
        w_tilde(m, 0, 2)
    with pytest.raises(NonUnitScalar):
        h_element(m, 0, 0)


def test_w_tilde_on_sl2_natural():
    # V^(1) for sl2: v, fv; w~ = [[0,1],[-1,0]] in that basis
    m = build_module(path_gcm(1), DominantWeight((1,)), 3)
    w = w_tilde(m, 0, 1)
    assert w.valid_depth() >= 1
    assert w.column((0,), 0) == {(1,): (-1,)}
    assert w.column((1,), 0) == {(0,): (1,)}


def test_w_tilde_permutes_weight_spaces(a2):
    w = w_tilde(a2, 0, 1)
    for (tgt, src), blk in w.blocks.items():
        # target weight is the reflection of the source weight
        p = a2.coroot_pairing(src, 0)
        expected = (src[0] + p, src[1])
        if blk.any():
            assert tgt == expected


def test_h_diagonal_with_parity_signs(a2):
    h = h_element(a2, 0, -1)
    for k in a2.keys:
        if sum(k) > h.valid_depth():
            continue
        r = a2.rank_at(k)
        sign = (-1) ** a2.coroot_pairing(k, 0)
        for c in range(r):
            if h.exact[k][c]:
                col = h.column(k, c)
                expected = tuple(sign if a == c else 0 for a in range(r))
                assert col == {k: expected}


def test_h_squared_identity(a2):
    h = h_element(a2, 0, -1)
    equal, window, _ = (h @ h).equal_on_window(WindowedMatrix.identity(a2))
    assert equal and window >= 2


def test_s_squared_equals_h_minus_one(a2):
    s = w_tilde(a2, 0, 1)
    equal, _, compared = (s @ s).equal_on_window(h_element(a2, 0, -1))
    assert equal and compared > 0


def test_sl2_exactness_certificate(rank4):
    # with the string bound, w~ on a depth-4 truncation keeps a usable window
    for i in range(4):
        assert w_tilde(rank4, i, 1).valid_depth() >= 1


SHARP_CASES = {
    "a2-d3": (path_gcm(2), (1, 1), 3),
    "rank4-d4": (triangle_with_pendant_gcm(), (1, 1, 1, 1), 4),
    "e10-d2": (e_gcm(10), (1,) * 10, 2),
}


@pytest.mark.parametrize("case", list(SHARP_CASES))
def test_chi_minus_flags_are_sharp(case):
    # A slice and its basis depend only on the depth vector, so column
    # (k, c) is the same vector at depth d and d + 1.  It is flagged exact
    # at d iff its f_i-string stops inside d, that is iff one depth deeper
    # it has no target at depth d + 1; then the image does not change.
    # The depth-(d + 1) image v + sum_m f_i^(m) v is read off the Z-form's
    # operator blocks, as a group element stores its inexact columns empty.
    gcm, lam, d = SHARP_CASES[case]
    low = build_module(gcm, DominantWeight(lam), d)
    high = build_module(gcm, DominantWeight(lam), d + 1)
    for i in range(gcm.rank):
        y = chi_minus(low, i, 1)
        for k in low.keys:
            for c in range(low.rank_at(k)):
                image = {k: tuple(int(a == c) for a in range(low.rank_at(k)))}
                for m in range(1, d + 2 - sum(k)):
                    col = high.operator_block("f", i, m, k)[:, c]
                    if col.any():
                        image[k[:i] + (k[i] + m,) + k[i + 1:]] = tuple(map(int, col))
                assert y.exact[k][c] == all(sum(t) <= d for t in image)
                if y.exact[k][c]:
                    assert y.column(k, c) == image


def test_compose_flags_are_conservative(a2):
    y = chi_minus(a2, 0, 1)
    prod = y @ y
    for k in a2.keys:
        for c in range(a2.rank_at(k)):
            if prod.exact[k][c]:
                # exact columns of a product of exact columns only
                assert y.exact[k][c]


def test_evaluate_word_and_generator_matrix(a2):
    word = [GeneratorSymbol("X+", 0, 1), GeneratorSymbol("X+", 0, -1)]
    mat = evaluate_word(a2, word)
    equal, _, _ = mat.equal_on_window(WindowedMatrix.identity(a2))
    assert equal
    with pytest.raises(ValueError):
        generator_matrix(a2, GeneratorSymbol("Z", 0, 1))


# -- brute-force reference for products and column reads ---------------------


def _dense(mat):
    """mat as one dense integer matrix over the basis [(k, a), ...] in
    keys order, with its flags as one list."""
    mod = mat.module
    basis = [(k, a) for k in mod.keys for a in range(mod.rank_at(k))]
    pos = {b: n for n, b in enumerate(basis)}
    dense = np.zeros((len(basis), len(basis)), dtype=object)
    for (tgt, src), blk in mat.blocks.items():
        for a in range(blk.shape[0]):
            for c in range(blk.shape[1]):
                dense[pos[(tgt, a)], pos[(src, c)]] = blk[a, c]
    flags = [mat.exact[k][a] for k, a in basis]
    return basis, dense, flags


def _reference_product(left, right):
    """(blocks, exact) of left @ right from dense matrices and the rule: a
    column is exact iff it is exact in right and every row it touches is
    exact in left."""
    basis, dl, fl = _dense(left)
    _, dr, fr = _dense(right)
    prod = dl.dot(dr)
    n = len(basis)
    blocks = {}
    for i in range(n):
        for j in range(n):
            if prod[i, j]:
                (tgt, a), (src, c) = basis[i], basis[j]
                blocks.setdefault((tgt, src), set()).add((a, c, prod[i, j]))
    exact = {k: [] for k in left.module.slices}
    for j, (src, _) in enumerate(basis):
        touched = [i for i in range(n) if dr[i, j]]
        exact[src].append(fr[j] and all(fl[i] for i in touched))
    return blocks, exact


def _reference_column(mat, src, c):
    basis, dense, _ = _dense(mat)
    j = basis.index((src, c))
    out = {}
    for tgt in mat.module.keys:
        rows = [i for i, (k, _) in enumerate(basis) if k == tgt]
        col = tuple(int(dense[i, j]) for i in rows)
        if any(col):
            out[tgt] = col
    return out


def _assert_matches_reference(left, right):
    """left @ right against the dense reference: the same flags, the same
    entries on every exact column, and every inexact column stored empty."""
    prod = left @ right
    blocks, exact = _reference_product(left, right)
    assert prod.exact == exact
    on_exact = {}
    for (tgt, src), entries in blocks.items():
        kept = {(a, c, v) for a, c, v in entries if exact[src][c]}
        if kept:
            on_exact[(tgt, src)] = kept
    assert set(prod.blocks) == set(on_exact)
    for key, entries in on_exact.items():
        blk = prod.blocks[key]
        nonzero = {(a, c, blk[a, c]) for a in range(blk.shape[0])
                   for c in range(blk.shape[1]) if blk[a, c]}
        assert nonzero == entries
    assert np.repeat(prod.flags, np.diff(prod.indptr)).all()
    for k in prod.module.keys:
        for c in range(prod.module.rank_at(k)):
            assert prod.column(k, c) == _reference_column(prod, k, c)
    return prod


def test_product_flags_and_columns_match_reference(rank4):
    word = parse_word("Y1(1) X2(3) H3(-1) S2 Y4(-2) S1^-1 Y2(1)", rank=4)
    total = rank4.total_rank()
    mixed = 0  # products with both exact and inexact columns
    acc = generator_matrix(rank4, word[0])
    for sym in word[1:]:
        gen = generator_matrix(rank4, sym)
        for prod in (_assert_matches_reference(gen, acc),
                     _assert_matches_reference(acc, gen)):
            mixed += 0 < sum(sum(f) for f in prod.exact.values()) < total
        acc = prod
    assert mixed >= 8
    full = evaluate_word(rank4, word)
    assert full.blocks.keys() == acc.blocks.keys()
    assert all(np.array_equal(full.blocks[k], acc.blocks[k]) for k in acc.blocks)
    assert full.exact == acc.exact


def test_evaluate_word_empty_and_single_letter(rank4):
    ident = WindowedMatrix.identity(rank4)
    empty = evaluate_word(rank4, [])
    assert empty.blocks.keys() == ident.blocks.keys()
    assert all(np.array_equal(empty.blocks[k], ident.blocks[k]) for k in ident.blocks)
    assert empty.exact == ident.exact
    for sym in parse_word("Y2(-3) S1 H4(-1) X3(2)", rank=4):
        gen = generator_matrix(rank4, sym)
        one = evaluate_word(rank4, [sym])
        assert one.blocks.keys() == gen.blocks.keys()
        assert all(np.array_equal(one.blocks[k], gen.blocks[k]) for k in gen.blocks)
        assert one.exact == gen.exact
        # the identity on the left changes nothing either
        _assert_matches_reference(ident, gen)


@pytest.mark.parametrize(
    "gcm,lam,depth",
    [(triangle_with_pendant_gcm(), (1, 1, 1, 1), 5), (e_gcm(10), (1,) * 10, 3)],
    ids=["rank4-d5", "e10-d3"],
)
def test_inexact_columns_are_stored_empty(gcm, lam, depth):
    # every generator and both words of every relation instance store no
    # nonzero in a column flagged inexact
    m = build_module(gcm, DominantWeight(lam), depth)
    words = [
        [GeneratorSymbol(kind, i, t)]
        for kind in ("X+", "X-", "S", "H")
        for i in range(gcm.rank)
        for t in (1, -1)
    ]
    for rid, nodes in relation_instances(gcm):
        for sign in (1, -1) if rid == "R11" else (1,):
            words.extend(relation_words(rid, nodes, sign))
    inexact = 0  # matrices with an inexact column, so the check is not idle
    for word in words:
        mat = evaluate_word(m, word)
        assert np.repeat(mat.flags, np.diff(mat.indptr)).all()
        inexact += not mat.flags.all()
    assert inexact > len(words) // 2


@pytest.mark.parametrize(
    "gcm,lam,depth,n_words,n_exact",
    [
        (triangle_with_pendant_gcm(), (1, 1, 1, 1), 5, 109, 8362),
        (e_gcm(10), (1,) * 10, 3, 439, 49992),
    ],
    ids=["rank4-d5", "e10-d3"],
)
def test_exact_columns_survive_one_more_layer(gcm, lam, depth, n_words, n_exact):
    # A slice, its basis and its operator blocks depend only on the depth
    # vector, so the module at depth d is the start of the one at d + 1 and
    # shares its global basis numbering.  A column the product rule flags
    # exact at d is an exact image: it must be exact at d + 1 too, with the
    # same rows and entries, for every word of every relation instance.
    lo, hi = (build_module(gcm, DominantWeight(lam), d) for d in (depth, depth + 1))
    assert hi.keys[: len(lo.keys)] == lo.keys
    assert [hi.rank_at(k) for k in lo.keys] == [lo.rank_at(k) for k in lo.keys]
    words = {
        tuple(word)
        for rid, nodes in relation_instances(gcm)
        for sign in ((1, -1) if rid == "R11" else (1,))
        for word in relation_words(rid, nodes, sign)
    }
    assert len(words) == n_words
    exact, bad = 0, []
    for word in words:
        a, b = evaluate_word(lo, word), evaluate_word(hi, word)
        for j in np.flatnonzero(a.flags).tolist():
            exact += 1
            rows = slice(a.indptr[j], a.indptr[j + 1])
            same = slice(b.indptr[j], b.indptr[j + 1])
            if not (
                b.flags[j]
                and np.array_equal(a.indices[rows], b.indices[same])
                and np.array_equal(a.data[rows], b.data[same])
            ):
                bad.append((word, j))
    assert not bad, f"{len(bad)} exact columns change at depth {depth + 1}"
    assert exact == n_exact  # the check is not idle



def _reference_first_difference(lhs, rhs):
    """(slice, index) of the first mutually exact column, in keys order, on
    which the column reads of lhs and rhs differ; None if there is none."""
    return next(
        (
            (k, c)
            for k, flags in lhs.exact.items()
            for c, ok in enumerate(flags)
            if ok and rhs.exact[k][c] and lhs.column(k, c) != rhs.column(k, c)
        ),
        None,
    )


# words whose scalar 10^12 makes their data object, met by int64 data
BIG_WORDS = [
    "X1(1000000000000) S2",
    "S2 X1(1000000000000)",
    "Y2(-1000000000000) X1(1)",
    "X1(1000000000000) S2 Y1(-1000000000000)",
]


@pytest.mark.parametrize(
    "gcm,lam,depth,n_unequal",
    [
        (triangle_with_pendant_gcm(), (1, 1, 1, 1), 5, 151),
        (e_gcm(10), (1,) * 10, 3, 247),
    ],
    ids=["rank4-d5", "e10-d3"],
)
def test_first_difference_matches_a_column_scan(gcm, lam, depth, n_unequal):
    # the pairs: both sides of every relation instance (both R11 signs),
    # consecutive distinct relation words, and the 10^12 words against each
    # other and against the first relation words
    mod = build_module(gcm, DominantWeight(lam), depth)
    pairs = [
        relation_words(rid, nodes, sign)
        for rid, nodes in relation_instances(gcm)
        for sign in ((1, -1) if rid == "R11" else (1,))
    ]
    words = list(dict.fromkeys(tuple(w) for pair in pairs for w in pair))
    pairs += list(zip(words, words[1:]))
    big = [tuple(parse_word(text, gcm.rank)) for text in BIG_WORDS]
    pairs += [(a, b) for a in big for b in big + words[:20] if a != b]
    mats = {}
    unequal = 0
    for pair in pairs:
        lhs, rhs = (mats.setdefault(tuple(w), evaluate_word(mod, w)) for w in pair)
        j = lhs.first_difference(rhs)
        expected = _reference_first_difference(lhs, rhs)
        if j is None:
            assert expected is None
        else:
            unequal += 1
            k = mod.keys[mod.slice_of[j]]
            assert (k, j - mod.offset[k]) == expected
        if min(lhs.valid_depth(), rhs.valid_depth()) >= 0:
            assert lhs.equal_on_window(rhs)[0] == (j is None)
    assert unequal == n_unequal  # the check is not idle
    kinds = {mats[w].data.dtype == object for w in big + words}
    assert kinds == {True, False}

def test_product_switches_to_object_data_at_the_int64_bound():
    # sl2, V^(1) at depth 1, basis (v, f v): chi_plus(t) = [[1, t], [0, 1]]
    # and chi_minus(u) = [[1, 0], [u, 1]].  The first column of chi_minus(u)
    # has two nonzeros, so chi_plus(t) @ chi_minus(u) has the bound
    # |t| * |u| * 2, and int64 data only below 2^62.
    m = build_module(path_gcm(1), DominantWeight((1,)), 1)
    t = 2**30
    below = _assert_matches_reference(chi_plus(m, 0, t), chi_minus(m, 0, 2**31 - 1))
    assert below.data.dtype == np.int64
    above = _assert_matches_reference(chi_plus(m, 0, t), chi_minus(m, 0, 2**31))
    assert above.data.dtype == object
    # far above, int64 arithmetic would overflow
    huge = _assert_matches_reference(chi_plus(m, 0, 2**40), chi_minus(m, 0, 2**40))
    assert huge.column((0,), 0) == {(0,): (2**80 + 1,), (1,): (2**40,)}
    # a generator's own data switches when t^m times an entry reaches 2^62
    assert chi_plus(m, 0, 2**62 - 1).data.dtype == np.int64
    assert chi_plus(m, 0, 2**62).data.dtype == object


def _entries(mat):
    """{(row, column): entry} of the stored nonzeros of mat, after checking
    that the keys column * n + row run strictly increasing."""
    cols = np.repeat(np.arange(mat.module.n), np.diff(mat.indptr))
    assert (np.diff(cols * mat.module.n + mat.indices) > 0).all()
    return {(int(r), int(c)): v for r, c, v in zip(mat.indices, cols, mat.data)}


def _reference_chi(mod, sign, i, t, flags):
    """{(row, column): entry} of the identity plus t^m times every block of
    e_i^(m) or f_i^(m), read column by column off the Z-form, on the
    columns the flags mark exact."""
    out = {}
    for k in mod.keys:
        for c in range(mod.rank_at(k)):
            j = mod.offset[k] + c
            if not flags[j]:
                continue
            out[(j, j)] = 1
            for m in range(1, mod.depth + 1):
                tgt = k[:i] + (k[i] + (m if sign == "f" else -m),) + k[i + 1:]
                if tgt not in mod.offset:
                    continue
                col = mod.operator_block(sign, i, m, k)[:, c]
                for a, v in enumerate(col):
                    if v * t**m:
                        out[(mod.offset[tgt] + a, j)] = v * t**m
    return out


@pytest.mark.parametrize(
    "gcm,lam,depth",
    [(triangle_with_pendant_gcm(), (1, 1, 1, 1), 5), (e_gcm(10), (1,) * 10, 3),
     (path_gcm(2), (1, 1), 0), (path_gcm(1), (4,), 4)],
    ids=["rank4-d5", "e10-d3", "a2-d0", "a1-4-d4"],
)
def test_rescaled_generators_match_operator_blocks(gcm, lam, depth):
    # chi(t) is chi(1) with each entry scaled by t^m, m its depth change.
    # At depth 0 every column of chi_minus is inexact, so it stores nothing.
    # On V^(4) of sl2 the largest operator entry is 6 (f^(2) f^(2) v =
    # 6 f^(4) v) and the deepest drop 4 (f^(4) v), so at t = 2^15 the bound
    # 6 * t^4 passes 2^62 while every entry stays at most 2^60: int64 data.
    m = build_module(gcm, DominantWeight(lam), depth)
    for i in range(gcm.rank):
        for sign, make in (("e", chi_plus), ("f", chi_minus)):
            flags = make(m, i, 1).flags
            for t in (0, -1, 2, -7, 2**15, 10**12):
                mat = make(m, i, t)
                ref = _reference_chi(m, sign, i, t, flags)
                assert np.array_equal(mat.flags, flags)
                assert _entries(mat) == ref
                top = max(map(abs, ref.values()), default=0)
                assert mat.data.dtype == (np.int64 if top < 2**62 else object)
        zero = chi_plus(m, i, 0)
        assert _entries(zero) == _entries(WindowedMatrix.identity(m))
        assert (zero.data != 0).all()
    # a numpy integer scalar gives the same exact entries as a Python int
    big = build_module(gcm, DominantWeight(lam), depth)
    assert _entries(chi_minus(big, 0, np.int64(10**12))) == _entries(
        chi_minus(m, 0, 10**12))
    if depth == 0:
        assert not chi_minus(m, 0, -7).flags.any()
        assert len(chi_minus(m, 0, -7).data) == 0


def test_product_runs_in_pieces(rank4, monkeypatch):
    # with pieces of 5 partial products this product, which expands to 242
    # on its exact columns, runs in dozens of pieces, and a column of the
    # right factor that alone expands to more than 5 makes a piece of its own
    left = evaluate_word(rank4, parse_word("X1(1) X2(2) X3(3)", rank=4))
    right = evaluate_word(rank4, parse_word("X4(1) S1 X2(-1)", rank=4))
    whole = left @ right
    cols = np.repeat(np.arange(rank4.n), right.col_nnz)
    per_col = np.bincount(cols, left.col_nnz[right.indices], rank4.n)[whole.flags]
    assert per_col.sum() > 40 * 5 and per_col.max() > 5
    assert 0 < whole.flags.sum() < rank4.n
    monkeypatch.setattr(groupgen, "PIECE", 5)
    pieces = _assert_matches_reference(left, right)
    for name in ("indptr", "indices", "data", "flags"):
        assert np.array_equal(getattr(pieces, name), getattr(whole, name))


def test_generator_symbol_inverse():
    assert GeneratorSymbol("X+", 0, 3).inverse() == GeneratorSymbol("X+", 0, -3)
    assert GeneratorSymbol("S", 1, 1).inverse() == GeneratorSymbol("S", 1, -1)
    assert GeneratorSymbol("H", 1, -1).inverse() == GeneratorSymbol("H", 1, -1)


def test_window_empty_raised():
    m = build_module(path_gcm(2), DominantWeight((1, 1)), 1)
    s = w_tilde(m, 0, 1)
    ident = WindowedMatrix.identity(m)
    with pytest.raises(WindowEmpty):
        (s @ s @ s @ s).equal_on_window(ident, min_window=2)


# -- word parsing -----------------------------------------------------------


def test_parse_word_basic():
    syms = parse_word("X1(1) S2 S1^-1 Y3(-2) H2(-1)", rank=3)
    assert syms == [
        GeneratorSymbol("X+", 0, 1),
        GeneratorSymbol("S", 1, 1),
        GeneratorSymbol("S", 0, -1),
        GeneratorSymbol("X-", 2, -2),
        GeneratorSymbol("H", 1, -1),
    ]


def test_parse_word_powers():
    assert parse_word("S1^3", rank=2) == [GeneratorSymbol("S", 0, 1)] * 3
    assert parse_word("S1^-2", rank=2) == [GeneratorSymbol("S", 0, -1)] * 2
    assert parse_word("X2(3)^2", rank=2) == [GeneratorSymbol("X+", 1, 6)]


def test_parse_word_errors():
    with pytest.raises(WordSyntaxError):
        parse_word("Q1(1)", rank=2)
    with pytest.raises(WordSyntaxError):
        parse_word("X1", rank=2)  # missing scalar
    with pytest.raises(WordSyntaxError):
        parse_word("S3", rank=2)  # node out of range
    with pytest.raises(WordSyntaxError):
        parse_word("S1(2)", rank=2)  # S takes no scalar
    with pytest.raises(NonUnitScalar):
        parse_word("H1(2)", rank=2)


def test_parse_word_empty():
    assert parse_word("", rank=2) == []


# -- the generator cache on the module ---------------------------------------


GENERATORS = {"X+": chi_plus, "X-": chi_minus, "S": w_tilde, "H": h_element}


def test_repeated_generator_requests_return_the_cached_matrix(a2):
    for kind, make in GENERATORS.items():
        first = make(a2, 1, -1)
        assert make(a2, 1, -1) is first
        assert a2.generators[(kind, 1, -1)] is first and first.module is a2
    assert evaluate_word(a2, [GeneratorSymbol("S", 0, 1)]) is w_tilde(a2, 0, 1)


def test_empty_word_is_the_shared_identity(a2):
    ident = evaluate_word(a2, [])
    assert evaluate_word(a2, []) is ident
    assert shared_identity(a2) is ident
    assert ident is not WindowedMatrix.identity(a2)
    equal, window, compared = ident.equal_on_window(WindowedMatrix.identity(a2))
    assert equal and window == 4 and compared == a2.n


def test_two_builds_share_no_matrix():
    mods = [build_module(path_gcm(2), DominantWeight((1, 1)), 4) for _ in range(2)]
    word = parse_word("X1(1) Y2(-1) S1 H2(-1)", rank=2)
    for m in mods:
        evaluate_word(m, word)
        evaluate_word(m, [])
    first, second = (m.generators for m in mods)
    assert first.keys() == second.keys()
    for key in first:
        assert first[key] is not second[key]
        assert first[key].module is mods[0] and second[key].module is mods[1]
        assert first[key].equal_on_window(first[key])[0]
        with pytest.raises(ValueError, match="different modules"):
            first[key] @ second[key]
        with pytest.raises(ValueError, match="different modules"):
            first[key].equal_on_window(second[key])
