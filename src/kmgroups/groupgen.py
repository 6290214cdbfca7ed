"""Group generators acting on a depth-truncated Z-form.

A group element is one sparse n x n integer matrix over the global basis
of its module (see TruncatedModule), which holds the generator cache and
one shared identity in module.generators.  A WindowedMatrix holds its
module and stores the matrix in compressed sparse column (CSC) form, as
numpy arrays indptr / indices / data with sorted row indices and no stored
zeros, together with one boolean exactness flag per column.  chi_plus(i, t)
is exact on every column (e_i lowers depth, so the truncation loses
nothing).  chi_minus(i, t) raises depth; a column is flagged exact if and
only if the f_i-string of that basis vector ends inside the truncation,
which the sharp sl2 rule f_i^(m) v = 0 <=> m > p + r decides for all
columns at once (see chi_minus).  Only chi_plus(i, 1) and chi_minus(i, 1)
walk the module's operator blocks; chi(i, t) for any other t scales each
entry of chi(i, 1) by t^m, m the depth difference of its row and column.

Only exact columns are computed: every inexact column is stored empty,
since nothing reads it.  A product first finds its flags in one pass over
the nonzeros of B: column j of A @ B is exact when column j of B is exact
and no row k with B[k, j] != 0 is an inexact column of A.  So an exact
column reads only exact columns of A, and the nonzeros of B in the
inexact columns of A @ B are dropped before anything is expanded.  The
product is then a vectorised sparse-times-sparse step: every remaining
nonzero B[k, j] expands into A[:, k] * B[k, j], the partial products are
sorted on the key j * n + row and summed with np.add.reduceat, and the
sums that vanish are dropped; this runs on whole columns of B, about
PIECE partial products at a time, so the scratch memory stays bounded;
a product that expands to at most PIECE partial products is one piece.

Arithmetic is exact.  Every entry of A @ B is at most
max|A| * max|B| * (largest number of nonzeros in a column of B) in absolute
value, and so is every partial sum; when that bound is below 2^62 the
product runs on int64 data, otherwise the same code runs on dtype=object
data, where numpy's * and add.reduceat act on Python ints.  A generator's
data is object when one of its stored entries, t^m times an operator
entry, reaches 2^62.

The "window" of a matrix is the largest depth d such that all columns of
depth <= d are exact.  Two group elements are compared on their mutually
exact columns by one test, first_difference, which decides equality
(equal_on_window) and names the witness column of a failed relation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .weightmod import TruncatedModule, _shift

# int64 data while every entry and partial sum stays below this
INT64_LIMIT = 2**62
# partial products expanded at once by a product (a bound on scratch memory);
# 8,192 keeps each int64 or object scratch array at 64 KiB, below glibc
# malloc's default 128 KiB mmap threshold, so the arrays reuse heap memory
# instead of being mapped and unmapped, page-faulting, on every piece
PIECE = 1 << 13


class NonUnitScalar(ValueError):
    """S/H generators require a unit scalar (+1 or -1) over Z."""


class WindowEmpty(RuntimeError):
    """No column of the element is exact at the truncation depth."""


class WordSyntaxError(ValueError):
    pass


@dataclass(frozen=True)
class GeneratorSymbol:
    """kind in {"X+", "X-", "S", "H"}; node is 0-based; arg is the scalar."""

    kind: str
    node: int
    arg: int = 1

    def inverse(self) -> "GeneratorSymbol":
        if self.kind == "H":  # h(t)^-1 = h(t) for t = -1, identity for t = 1
            return self
        return GeneratorSymbol(self.kind, self.node, -self.arg)


def _sum_sorted(key, vals):
    """The entries vals at the sorted keys, equal keys summed, zeros dropped."""
    if len(key):
        first = np.concatenate(([True], key[1:] != key[:-1])).nonzero()[0]
        vals = np.add.reduceat(vals, first)
        keep = vals != 0
        key, vals = key[first[keep]], vals[keep]
    return key, vals


def _from_keys(mod: TruncatedModule, key, vals, flags) -> "WindowedMatrix":
    """The matrix with entries vals at the sorted keys column * n + row."""
    col, row = np.divmod(key, mod.n)
    indptr = col.searchsorted(np.arange(mod.n + 1))
    return WindowedMatrix(mod, indptr, row, vals, flags)


class WindowedMatrix:
    """One CSC integer matrix over the global basis of .module with
    per-column exact flags.  Matrices are never modified after construction."""

    def __init__(self, module: TruncatedModule, indptr, indices, data, flags):
        self.module = module
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.flags = flags  # bool per column
        self.col_nnz = indptr[1:] - indptr[:-1]  # nonzeros per column
        self.max_abs = int(np.abs(data).max()) if len(data) else 0

    @cached_property
    def max_col_nnz(self) -> int:
        return int(self.col_nnz.max())

    @property
    def cols(self):
        """The column of each stored entry, aligned with indices and data."""
        return np.arange(self.module.n).repeat(self.col_nnz)

    @classmethod
    def identity(cls, module: TruncatedModule) -> "WindowedMatrix":
        """A new identity; module.generators keeps one shared identity."""
        n, ones = module.n, np.ones(module.n, dtype=np.int64)
        return cls(module, np.arange(n + 1), np.arange(n), ones, np.ones(n, bool))

    @cached_property
    def blocks(self) -> dict:
        """Read-only view: {(target, source): dense object block} of the
        nonzero blocks over the weight slices; an inexact column reads as
        empty.  Only the benchmark's tracer and the tests read it."""
        mod = self.module
        cols = self.cols
        tgt, src = mod.slice_of[self.indices], mod.slice_of[cols]
        pair = tgt * len(mod.keys) + src
        order = np.argsort(pair, kind="stable")
        out = {}
        for sel in np.split(order, np.flatnonzero(np.diff(pair[order])) + 1):
            if not len(sel):
                continue  # the zero matrix
            t, s = mod.keys[tgt[sel[0]]], mod.keys[src[sel[0]]]
            blk = np.zeros((mod.rank_at(t), mod.rank_at(s)), dtype=object)
            blk[self.indices[sel] - mod.offset[t], cols[sel] - mod.offset[s]] = (
                self.data[sel].astype(object)
            )
            out[(t, s)] = blk
        return out

    @cached_property
    def exact(self) -> dict:
        """Read-only view: {depth vector: [flag per column]} over every slice;
        only the benchmark's tracer and the tests read it."""
        mod = self.module
        return {
            k: self.flags[mod.offset[k]:mod.offset[k] + mod.rank_at(k)].tolist()
            for k in mod.keys
        }

    def column(self, src, c) -> dict:
        """Nonzero entries of column c of source slice src, keyed by target in
        keys order: {target: tuple over the target slice's basis};
        {} for an inexact column."""
        mod = self.module
        j = mod.offset[tuple(src)] + c
        lo, hi = self.indptr[j], self.indptr[j + 1]
        rows = self.indices[lo:hi]
        out: dict = {}
        for s, r, v in zip(
            mod.slice_of[rows].tolist(), rows.tolist(), self.data[lo:hi].tolist()
        ):
            k = mod.keys[s]
            if k not in out:
                out[k] = [0] * mod.rank_at(k)
            out[k][r - mod.offset[k]] = v
        return {k: tuple(col) for k, col in out.items()}

    def __matmul__(self, other: "WindowedMatrix") -> "WindowedMatrix":
        mod = self.module
        if other.module is not mod:
            raise ValueError("matrices act on different modules")
        inner = other.indices  # row k of each nonzero B[k, j]
        outer_col = other.cols  # column j
        # Column j is inexact if B[:, j] touches a column inexact in A.
        flags = other.flags.copy()
        flags[outer_col[~self.flags[inner]]] = False
        # Only the exact columns are computed: drop B's other columns.
        keep = flags[outer_col]
        inner, outer_col = inner[keep], outer_col[keep]
        indptr = outer_col.searchsorted(np.arange(mod.n + 1))
        dtype = object
        if self.max_abs * other.max_abs * other.max_col_nnz < INT64_LIMIT:
            dtype = np.int64
        a = self.data.astype(dtype, copy=False)
        b = other.data[keep].astype(dtype, copy=False)
        # Each B[k, j] expands into the nonzeros of A[:, k].  Runs of whole
        # columns of B, of about PIECE partial products each, are expanded,
        # sorted and summed in turn, which bounds the scratch memory.
        counts = self.col_nnz[inner]
        bounds = [0, len(inner)]
        if counts.sum() > PIECE:
            done = np.concatenate(([0], np.cumsum(counts)))[indptr]
            starts = np.searchsorted(done, np.arange(0, done[-1], PIECE), "right")
            bounds = indptr[np.append(starts - 1, mod.n)]  # a repeat is empty
        keys, vals = [], []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            c = counts[lo:hi]
            idx = (self.indptr[inner[lo:hi]] - (c.cumsum() - c)).repeat(c)
            idx += np.arange(len(idx))  # position in A of each partial product
            key = (outer_col[lo:hi] * mod.n).repeat(c)
            key += self.indices[idx]
            val = a[idx]
            del idx
            val *= b[lo:hi].repeat(c)
            order = key.argsort()
            key, val = _sum_sorted(key[order], val[order])
            keys.append(key)
            vals.append(val)
        return _from_keys(mod, np.concatenate(keys), np.concatenate(vals), flags)

    def valid_depth(self) -> int:
        """Largest d with every depth <= d column exact; -1 if none."""
        depth = self.module.depth
        bad = self.module.depth_of[~self.flags]
        return min(depth, int(bad.min()) - 1) if len(bad) else depth

    def equal_on_window(
        self, other: "WindowedMatrix", min_window: int = 0
    ) -> tuple[bool, int, int]:
        """Compare on every mutually exact column.

        Each exact column is an exactly computed image, so any mutually
        exact column is a sound comparison point even above the joint
        window (the window only measures where *all* columns are exact).
        Returns (equal, window, n_columns_compared).  Raises WindowEmpty if
        the joint window is below min_window.
        """
        if other.module is not self.module:
            raise ValueError("matrices act on different modules")
        window = min(self.valid_depth(), other.valid_depth())
        if window < min_window or window < 0:
            raise WindowEmpty(
                f"joint validity window {window} below required {min_window}"
            )
        compared = int((self.flags & other.flags).sum())
        return self.first_difference(other) is None, window, compared

    def first_difference(self, other: "WindowedMatrix") -> int | None:
        """The first column, in basis order, exact in both matrices (of one
        module) on which they differ, or None.  A column differs if its
        nonzero counts differ, or else at the first aligned entry whose row
        or value differs; the smaller of the two candidates is the answer."""
        both = self.flags & other.flags
        uneven = both & (self.col_nnz != other.col_nnz)
        same = both & ~uneven
        sa, sb = same.repeat(self.col_nnz), same.repeat(other.col_nnz)
        rows = self.indices[sa] != other.indices[sb]
        entry = np.flatnonzero(rows | (self.data[sa] != other.data[sb]))
        first = np.flatnonzero(uneven)[:1].tolist()
        if len(entry):
            first.append(int(self.cols[sa][entry[0]]))
        return min(first) if first else None


def _cached(module: TruncatedModule, kind: str, i: int, t: int, make) -> WindowedMatrix:
    """The cached generator (kind, i, t) of the module, or make() on a miss."""
    key = (kind, i, int(t))
    if key not in module.generators:
        module.generators[key] = make()
    return module.generators[key]


def shared_identity(module: TruncatedModule) -> WindowedMatrix:
    """The module's one shared identity, cached as kind "1"."""
    return _cached(module, "1", 0, 1, lambda: WindowedMatrix.identity(module))


def _narrowed(vals):
    """The object array vals as int64 if every entry is below 2^62 in
    absolute value, else vals itself."""
    if vals.dtype == object and (not len(vals) or np.abs(vals).max() < INT64_LIMIT):
        return vals.astype(np.int64)
    return vals


def _chi(mod: TruncatedModule, sign: str, i: int, flags) -> WindowedMatrix:
    """chi(1): the identity plus every block of e_i^(m) (sign "e") or f_i^(m)
    (sign "f"), over the powers m the module holds, on the columns the given
    flags mark exact; the other columns are stored empty.

    This is the only walk over the operator blocks of (sign, i).  A (target,
    source) pair gets at most one block, since the target k -+ m alpha_i
    determines m, and np.nonzero keeps no zero entry, so no two keys are
    equal and none holds 0.
    """
    diag = np.arange(mod.n)
    rows, cols, vals = [diag], [diag], [np.ones(mod.n, dtype=object)]
    step = -1 if sign == "e" else 1
    for (op, node, m), blocks in mod.ops.items():
        if (op, node) != (sign, i):
            continue
        for k, blk in blocks.items():
            r, c = np.nonzero(blk)
            rows.append(r + mod.offset[_shift(k, i, step * m)])
            cols.append(c + mod.offset[k])
            vals.append(blk[r, c])
    cols, rows, vals = np.concatenate(cols), np.concatenate(rows), np.concatenate(vals)
    keep = flags[cols]  # an inexact column is stored empty
    key, vals = cols[keep] * mod.n + rows[keep], _narrowed(vals[keep])
    order = key.argsort()
    return _from_keys(mod, key[order], vals[order], flags)


def _scaled(base: WindowedMatrix, t: int) -> WindowedMatrix:
    """chi(t) from chi(1) = base: the entry in row r of column c lies in the
    block of e_i^(m) or f_i^(m), m = |depth(r) - depth(c)|, as that block
    moves depth by exactly m, so it is scaled by t^m; zeros (t = 0, m > 0)
    are dropped."""
    mod, t = base.module, int(t)  # t**e of a numpy integer would wrap
    m = np.abs(mod.depth_of[base.indices] - mod.depth_of[base.cols])
    top = int(m.max()) if len(m) else 0
    power = np.array([t**e for e in range(top + 1)], dtype=object)
    if base.max_abs * abs(t) ** top < INT64_LIMIT:
        power = power.astype(np.int64)
    vals = _narrowed(base.data * power[m])
    keep = vals != 0
    indptr = np.concatenate(([0], np.cumsum(keep)))[base.indptr]
    return WindowedMatrix(mod, indptr, base.indices[keep], vals[keep], base.flags)


def chi_plus(module: TruncatedModule, i: int, t: int) -> WindowedMatrix:
    """chi_{+alpha_i}(t) = sum_m t^m e_i^(m); exact on every column."""

    def make():
        if t != 1:
            return _scaled(chi_plus(module, i, 1), t)
        return _chi(module, "e", i, np.ones(module.n, bool))

    return _cached(module, "X+", i, t, make)


def chi_minus(module: TruncatedModule, i: int, t: int) -> WindowedMatrix:
    """chi_{-alpha_i}(t) = sum_m t^m f_i^(m).

    A column is flagged exact if and only if the f_i-string of its basis
    vector v ends inside the truncation.  Let p = <mu, alpha_i^vee> for the
    weight mu of v and r the largest power with e_i^(r) v != 0.  An
    sl2-component of v of highest weight p + 2s has e_i^(s) as its last
    nonzero raising power and f_i^(p+s) as its last nonzero lowering
    power, and r is the largest such s, so f_i^(m) v = 0 if and only if
    m > p + r (Humphreys, Introduction to Lie Algebras and Representation
    Theory, 7.2).  The column is exact iff p + r <= depth - depth(v).
    r is read off chi_plus(i, 1): its row indices are sorted and depth
    never decreases with the basis index (TruncatedModule), so a column's
    first row is its deepest drop (the identity entry makes every column
    nonempty).  The flags do not depend on t.
    """

    def make():
        if t != 1:
            return _scaled(chi_minus(module, i, 1), t)
        up = chi_plus(module, i, 1)
        r = module.depth_of - module.depth_of[up.indices[up.indptr[:-1]]]
        p = module.pairing[module.slice_of, i]
        # int64 arithmetic: a deeper truncation flags what depth 2^62 does
        room = min(module.depth, INT64_LIMIT) - module.depth_of
        return _chi(module, "f", i, p + r <= room)

    return _cached(module, "X-", i, t, make)


def w_tilde(module: TruncatedModule, i: int, t: int = 1) -> WindowedMatrix:
    """w~_i(t) = chi_+(t) chi_-(-t) chi_+(t), t a unit."""
    if t not in (1, -1):
        raise NonUnitScalar(f"w~ requires t = +-1, got {t}")

    def make():
        xp = chi_plus(module, i, t)
        return xp @ chi_minus(module, i, -t) @ xp

    return _cached(module, "S", i, t, make)


def h_element(module: TruncatedModule, i: int, t: int) -> WindowedMatrix:
    """h_i(t) = w~_i(t) w~_i(1)^-1 = w~_i(t) w~_i(-1), t a unit."""
    if t not in (1, -1):
        raise NonUnitScalar(f"h requires t = +-1, got {t}")
    return _cached(
        module, "H", i, t, lambda: w_tilde(module, i, t) @ w_tilde(module, i, -1)
    )


def generator_matrix(module: TruncatedModule, sym: GeneratorSymbol) -> WindowedMatrix:
    if sym.kind == "X+":
        return chi_plus(module, sym.node, sym.arg)
    if sym.kind == "X-":
        return chi_minus(module, sym.node, sym.arg)
    if sym.kind == "S":
        return w_tilde(module, sym.node, sym.arg)
    if sym.kind == "H":
        return h_element(module, sym.node, sym.arg)
    raise ValueError(f"unknown generator kind {sym.kind!r}")


def evaluate_word(module: TruncatedModule, symbols) -> WindowedMatrix:
    """Product of generator matrices, left factor applied last.

    The empty word gives the module's shared identity and a one-letter
    word the cached generator matrix itself.
    """
    out = None
    for sym in symbols:
        mat = generator_matrix(module, sym)
        out = mat if out is None else out @ mat
    return shared_identity(module) if out is None else out


_TOKEN = re.compile(
    r"""^(?P<kind>X|Y|S|H)
        (?P<node>\d+)
        (?:\((?P<arg>-?\d+)\))?
        (?:\^(?P<power>-?\d+))?$""",
    re.VERBOSE,
)


def parse_word(text: str, rank: int) -> list[GeneratorSymbol]:
    """Parse a word like "X1(1) S2 S1^-1 Y3(-2) H2(-1)".

    X = chi_plus, Y = chi_minus, S = w~_i(1), H = h_i(t); node labels are
    1-based.  ^n repeats (negative n inverts); X/Y fold the power into the
    scalar since chi(t) chi(u) = chi(t + u).
    """
    out: list[GeneratorSymbol] = []
    for token in text.split():
        m = _TOKEN.match(token)
        if m is None:
            raise WordSyntaxError(f"bad token {token!r}")
        kind = m.group("kind")
        node = int(m.group("node")) - 1
        if not 0 <= node < rank:
            raise WordSyntaxError(f"node {m.group('node')} out of range 1..{rank}")
        arg = m.group("arg")
        power = int(m.group("power")) if m.group("power") else 1
        if kind in ("X", "Y"):
            if arg is None:
                raise WordSyntaxError(f"{token!r}: X/Y need a scalar argument")
            sym_kind = "X+" if kind == "X" else "X-"
            out.append(GeneratorSymbol(sym_kind, node, int(arg) * power))
        elif kind == "S":
            if arg is not None:
                raise WordSyntaxError(f"{token!r}: S takes no scalar")
            base = GeneratorSymbol("S", node, 1)
            if power >= 0:
                out.extend([base] * power)
            else:
                out.extend([base.inverse()] * (-power))
        else:  # H
            t = int(arg) if arg is not None else 1
            if t not in (1, -1):
                raise NonUnitScalar(f"{token!r}: H requires t = +-1")
            base = GeneratorSymbol("H", node, t)
            out.extend([base] * abs(power))
    return out
