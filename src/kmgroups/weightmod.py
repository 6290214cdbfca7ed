"""Depth-truncated Z-forms of integrable highest-weight modules.

Construction per weight space (depth vector k, weight mu = lambda - sum k_i
alpha_i):

  1. span the Verma slice by f-monomials in lexicographic order;
  2. compute the contravariant (Shapovalov) Gram matrix exactly, by dynamic
     programming over the e_i-action matrices on Verma slices;
  3. embed the slice of the irreducible quotient through its pairing vector
     against all monomials (this kills exactly the Gram radical);
  4. the Z-lattice basis is the Hermite normal form of the lattice spanned
     by the pairing vectors of all divided-power monomials
     f_{i1}^(m1)...f_{ik}^(mk) applied to the highest-weight vector; a lift
     of each basis vector to the Verma module is re-derived from the r Gram
     rows at the pivot columns (an r x r rational solve with one
     denominator per slice, checked on every column), since a lift only
     matters modulo the Gram radical;
  5. operator matrices for e_i^(m), f_i^(m) are assembled against these
     bases and checked to be integral (the divided powers preserve the
     lattice; a non-integral entry would be a bug, not a rounding issue).

All scratch arithmetic is exact (ints with explicit denominators); every
exposed matrix has integer entries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cartan import GeneralizedCartanMatrix, NotSimplyLaced
from .linalg import eye_obj, hnf_rows, obj_array, solve_left_rational, zeros_obj


class NonDominantWeight(ValueError):
    pass


class DepthOverflow(RuntimeError):
    """Module construction exceeded the configured resource cap."""


class SliceOutOfRange(ValueError):
    pass


class ZFormError(RuntimeError):
    """An operator image left the integral lattice; indicates a bug."""


@dataclass(frozen=True)
class DominantWeight:
    """coords[i] = <lambda, alpha_i^vee>, all non-negative integers."""

    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))
        if any(c < 0 for c in self.coords):
            raise NonDominantWeight(f"negative coordinate in {self.coords}")

    @property
    def is_regular(self) -> bool:
        return all(c >= 1 for c in self.coords)


@dataclass
class WeightSlice:
    depth_vector: tuple[int, ...]
    monomials: list[tuple[int, ...]]
    gram: np.ndarray  # n x n ints
    rank: int
    denom: int  # common denominator L of the divided-monomial images
    basis_psi: np.ndarray  # r x n ints: L * (pairing vector of basis vector a)
    # r x n ints: D * L * (Verma coefficients of a lift of basis vector a),
    # nonzero only on the r monomials the lifts are combined from.
    basis_lift: np.ndarray
    lift_den: int  # D: basis_lift @ gram == D * basis_psi
    pivots: list[int]  # pivot column of each basis_psi row

    @property
    def depth(self) -> int:
        return sum(self.depth_vector)


class TruncatedModule:
    """All weight slices of V^lambda with depth <= depth, over Z."""

    def __init__(self, gcm: GeneralizedCartanMatrix, lam: DominantWeight, depth: int):
        self.gcm = gcm
        self.lam = lam
        self.depth = depth
        self.slices: dict[tuple[int, ...], WeightSlice] = {}
        # (sign, i, m) -> {source depth_vector: (r_tgt x r_src) int matrix}
        self.ops: dict[tuple[str, int, int], dict[tuple[int, ...], np.ndarray]] = {}
        self._gen_cache: dict = {}  # populated lazily by groupgen
        self._weight_keys: list[tuple[int, ...]] = []  # set by build_module

    # -- weights ----------------------------------------------------------

    def weight_keys(self) -> list[tuple[int, ...]]:
        """All depth vectors with a non-trivial weight space, sorted.

        The list is sorted once, when build_module has filled the slices,
        and shared by every caller: do not modify it.
        """
        return self._weight_keys

    def rank_at(self, depth_vector) -> int:
        k = tuple(depth_vector)
        sl = self.slices.get(k)
        return 0 if sl is None else sl.rank

    def total_rank(self) -> int:
        return sum(s.rank for s in self.slices.values())

    def coroot_pairing(self, depth_vector, i: int) -> int:
        """<mu, alpha_i^vee> for mu = lambda - sum_j k_j alpha_j."""
        k = tuple(depth_vector)
        if sum(k) > self.depth or any(c < 0 for c in k):
            raise SliceOutOfRange(f"{k} outside truncation depth {self.depth}")
        return self.lam.coords[i] - sum(
            kj * self.gcm.a(i, j) for j, kj in enumerate(k)
        )

    def operator_block(self, sign: str, i: int, m: int, source) -> np.ndarray:
        """Integer block of e_i^(m) or f_i^(m) out of one weight slice."""
        k = tuple(source)
        if k not in self.slices:
            raise SliceOutOfRange(f"no slice at {k}")
        r_src = self.slices[k].rank
        if m == 0:
            return eye_obj(r_src)
        tgt = _shift(k, i, m if sign == "f" else -m)
        if any(c < 0 for c in tgt) or sum(tgt) > self.depth:
            raise SliceOutOfRange(f"target slice {tgt} outside truncation")
        blocks = self.ops.get((sign, i, m), {})
        if k in blocks:
            return blocks[k]
        return zeros_obj(self.rank_at(tgt), r_src)


def _shift(k, i, delta):
    out = list(k)
    out[i] += delta
    return tuple(out)


def _depth_vectors(rank: int, max_depth: int):
    for total in range(max_depth + 1):
        for cuts in itertools.combinations(range(total + rank - 1), rank - 1):
            prev = -1
            k = []
            for c in cuts:
                k.append(c - prev - 1)
                prev = c
            k.append(total + rank - 2 - prev)
            yield tuple(k)


def _monomials(k: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All words with content k, lexicographically sorted."""
    out: list[tuple[int, ...]] = []
    word: list[int] = []
    counts = list(k)
    total = sum(counts)

    def rec():
        if len(word) == total:
            out.append(tuple(word))
            return
        for i, c in enumerate(counts):
            if c:
                counts[i] -= 1
                word.append(i)
                rec()
                word.pop()
                counts[i] += 1

    rec()
    return out


def _divided_monomials(k: tuple[int, ...]):
    """Sequences ((i1,m1),...) with consecutive i distinct and content k."""
    out = []
    seq: list[tuple[int, int]] = []
    counts = list(k)

    def rec(prev: int):
        if not any(counts):
            out.append(tuple(seq))
            return
        for i, c in enumerate(counts):
            if c == 0 or i == prev:
                continue
            for m in range(1, c + 1):
                counts[i] -= m
                seq.append((i, m))
                rec(i)
                seq.pop()
                counts[i] += m

    rec(-1)
    return out


def build_module(
    gcm: GeneralizedCartanMatrix,
    lam: DominantWeight,
    depth: int,
    max_basis: int | None = None,
) -> TruncatedModule:
    """Construct the depth-truncated Z-form of V^lambda.

    max_basis caps the accumulated number of basis vectors (DepthOverflow
    beyond it).
    """
    if not gcm.simply_laced:
        raise NotSimplyLaced("module construction requires a simply-laced GCM")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    mod = TruncatedModule(gcm, lam, depth)
    rank = gcm.rank
    index: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    # (i, k) -> sparse columns of e_i on the Verma slice k: a list over the
    # source monomials of [(target row index, coefficient)].  Only needed
    # while building, so it is not kept on the module.
    e_verma: dict[tuple[int, tuple[int, ...]], list] = {}
    total = 0

    for k in _depth_vectors(rank, depth):
        mons = _monomials(k)
        idx = {w: a for a, w in enumerate(mons)}
        index[k] = idx
        _build_e_matrices(e_verma, gcm, lam, k, mons, index)
        g = _build_gram(e_verma, mod.slices, k, mons, index)
        sl = _build_slice(k, mons, idx, g)
        mod.slices[k] = sl
        total += sl.rank
        if max_basis is not None and total > max_basis:
            raise DepthOverflow(
                f"basis size {total} exceeds cap {max_basis} at depth {sum(k)}"
            )

    mod._weight_keys = sorted(
        (k for k, s in mod.slices.items() if s.rank > 0),
        key=lambda k: (sum(k), k),
    )
    _build_operator_blocks(mod, e_verma, index)
    return mod


def _build_e_matrices(e_verma, gcm, lam, k, mons, index):
    """Sparse columns of e_i on the Verma slice k.

    e_i f_j w' = f_j (e_i w') + delta_ij <mu', alpha_i^vee> w' where mu' is
    the weight of the tail content.
    """
    rank = gcm.rank
    for i in range(rank):
        tgt = _shift(k, i, -1)
        if tgt[i] < 0:
            continue
        tgt_idx = index[tgt]
        # <mu', alpha_i^vee> for mu' the weight of content k - e_i
        pairing = lam.coords[i] - sum(
            kj * gcm.a(i, j) for j, kj in enumerate(tgt)
        )
        cols = []
        sub_tail_cache: dict[int, list] = {}
        for word in mons:
            j, tail = word[0], word[1:]
            entries: dict[int, int] = {}
            sub_key = (i, _shift(k, j, -1))
            sub = e_verma.get(sub_key)
            if sub is not None:
                if j not in sub_tail_cache:
                    sub_tail_cache[j] = _monomials(_shift(tgt, j, -1))
                sub_mons = sub_tail_cache[j]
                tail_idx = index[_shift(k, j, -1)][tail]
                for t, c in sub[tail_idx]:
                    row = tgt_idx[(j,) + sub_mons[t]]
                    entries[row] = entries.get(row, 0) + c
            if j == i:
                row = tgt_idx[tail]
                entries[row] = entries.get(row, 0) + pairing
            cols.append([(r, c) for r, c in entries.items() if c])
        e_verma[(i, k)] = cols


def _apply_e(cols, n_tgt: int, vec) -> np.ndarray:
    """Apply a sparse e-matrix (column lists) to a dense object vector."""
    out = np.empty(n_tgt, dtype=object)
    out.fill(0)
    for b, c in enumerate(vec):
        if c:
            for r, coef in cols[b]:
                out[r] += coef * c
    return out


def _build_gram(e_verma, slices, k, mons, index):
    n = len(mons)
    if sum(k) == 0:
        return obj_array([[1]])
    g = zeros_obj(n, n)
    # Group rows by first letter: <f_j a', b> = sum_c E_j[c, b] <a', c>.
    by_first: dict[int, list[int]] = {}
    for a, w in enumerate(mons):
        by_first.setdefault(w[0], []).append(a)
    for j, rows in by_first.items():
        prev = slices[_shift(k, j, -1)].gram
        e_cols = e_verma[(j, k)]
        tails = np.array(
            [index[_shift(k, j, -1)][mons[a][1:]] for a in rows]
        )
        row_arr = np.array(rows)
        for b in range(n):
            acc = None
            for c, coef in e_cols[b]:
                term = prev[tails, c] * coef
                acc = term if acc is None else acc + term
            if acc is not None:
                g[row_arr, b] = acc
    return g


def _build_slice(k, mons, idx, g) -> WeightSlice:
    n = len(mons)
    divmons = _divided_monomials(k)
    facts = [math.prod(math.factorial(m) for _, m in dm) for dm in divmons]
    denom = math.lcm(*facts)
    rows = []
    for dm, fact in zip(divmons, facts):
        a = idx[tuple(i for i, m in dm for _ in range(m))]
        row = [(denom // fact) * int(v) for v in g[a, :]]
        if any(row):  # a divided monomial in the Gram radical adds nothing
            rows.append(row)
    basis = hnf_rows(rows) if rows else []
    r = len(basis)
    psi = obj_array(basis) if r else zeros_obj(0, n)
    pivots = [next(j for j in range(n) if basis[a][j]) for a in range(r)]
    lift_den, lift = _lift_basis(g, psi, pivots)
    return WeightSlice(
        depth_vector=k,
        monomials=mons,
        gram=g,
        rank=r,
        denom=denom,
        basis_psi=psi,
        basis_lift=lift,
        lift_den=lift_den,
        pivots=pivots,
    )


def _lift_basis(g, psi, pivots):
    """Verma lifts of the basis vectors, as (lift_den, r x n ints).

    A lift only matters modulo the Gram radical, so any Verma vector with
    the right pairing vector will do.  The pivots are the column rank
    profile of the Gram matrix, hence by symmetry its row rank profile, so
    the block gram[pivots][:, pivots] is nonsingular.  Row t of the result
    is lift_den * x[t], placed on the pivot monomials, where
    x @ gram[pivots][:, pivots] == psi[:, pivots].
    """
    r, n = psi.shape
    lift = zeros_obj(r, n)
    if r == 0:
        return 1, lift
    lift_den, coeffs = solve_left_rational(
        [[int(g[a, p]) for p in pivots] for a in pivots],
        [[int(psi[t, p]) for p in pivots] for t in range(r)],
    )
    for t in range(r):
        for a, c in zip(pivots, coeffs[t]):
            lift[t, a] = c
    if not np.array_equal(lift[:, pivots] @ g[pivots, :], lift_den * psi):
        raise ZFormError("basis lift does not reproduce its pairing vector")
    return lift_den, lift


def _express_in_basis(sl: WeightSlice, num, den: int):
    """Coordinates of the vector with pairing profile num/den in sl's basis.

    num is an integer pairing vector (length n); the slice basis rows are
    basis_psi / sl.denom.  Raises ZFormError if the result is not integral.
    """
    r = sl.rank
    coords = [0] * r
    rem = np.empty(len(num), dtype=object)
    rem[:] = [int(v) * sl.denom for v in num]  # target scaled by L2
    for a in range(r):
        p = sl.pivots[a]
        if rem[p] == 0:
            continue
        q, residue = divmod(int(rem[p]), int(sl.basis_psi[a, p]) * den)
        if residue:
            raise ZFormError("operator image is not in the Z-lattice")
        coords[a] = q
        rem -= (q * den) * sl.basis_psi[a]
    if any(rem):
        raise ZFormError("operator image pairs outside the slice lattice span")
    return coords


def _build_operator_blocks(mod: TruncatedModule, e_verma, index):
    gcm, depth = mod.gcm, mod.depth
    rank = gcm.rank
    for k in mod.weight_keys():
        src = mod.slices[k]
        d = sum(k)
        for i in range(rank):
            # f_i^(m): prepend m copies of i to each lift, divide by m!.
            for m in range(1, depth - d + 1):
                tgt_key = _shift(k, i, m)
                tgt = mod.slices[tgt_key]
                pairings = (
                    _pair_prepended(src, a, i, m, index[tgt_key], tgt.gram)
                    for a in range(src.rank)
                )
                mod.ops.setdefault(("f", i, m), {})[k] = _block_in_basis(
                    tgt, src, m, pairings
                )
            # e_i^(m): apply the sparse Verma e_i columns m times, / m!.
            images = [src.basis_lift[a, :] for a in range(src.rank)]
            kk = k
            for m in range(1, k[i] + 1):
                n_tgt = len(index[_shift(kk, i, -1)])
                cols = e_verma[(i, kk)]
                images = [_apply_e(cols, n_tgt, x) for x in images]
                kk = _shift(kk, i, -1)
                tgt = mod.slices[kk]
                mod.ops.setdefault(("e", i, m), {})[k] = _block_in_basis(
                    tgt, src, m, (x @ tgt.gram for x in images)
                )


def _block_in_basis(tgt: WeightSlice, src: WeightSlice, m: int, pairings):
    """Block of a divided power of order m out of src into tgt.

    pairings yields, per basis vector of src, the pairing vector of its
    image times src.denom * src.lift_den * m!; it is only consumed when tgt
    is non-trivial.
    """
    block = zeros_obj(tgt.rank, src.rank)
    if tgt.rank:
        den = src.denom * src.lift_den * math.factorial(m)
        for a, num in enumerate(pairings):
            block[:, a] = _express_in_basis(tgt, num, den)
    return block


def _pair_prepended(src: WeightSlice, a: int, i: int, m: int, tgt_idx, g2):
    """Pairing vector of f_i^m (lift of basis vector a), unscaled."""
    n2 = g2.shape[0]
    num = np.empty(n2, dtype=object)
    num.fill(0)
    prefix = (i,) * m
    lift = src.basis_lift
    for w_idx, w in enumerate(src.monomials):
        c = lift[a, w_idx]
        if c:
            num = num + c * g2[tgt_idx[prefix + w], :]
    return num


def divided_power_matrix(
    module: TruncatedModule, i: int, m: int, sign: str, source
) -> np.ndarray:
    """Exact integer matrix of e_i^(m) / f_i^(m) out of one depth slice."""
    if sign not in ("e", "f"):
        raise ValueError("sign must be 'e' or 'f'")
    if m < 0:
        raise ValueError("power must be >= 0")
    return module.operator_block(sign, i, m, source)


def module_to_json(module: TruncatedModule) -> dict:
    """Weights, ranks, and sparse operator triplets (row, col, value)."""
    weights = [
        {
            "depth_vector": list(k),
            "depth": sum(k),
            "rank": module.slices[k].rank,
        }
        for k in module.weight_keys()
    ]
    operators = []
    for (sign, i, m) in sorted(module.ops):
        for k in sorted(module.ops[(sign, i, m)], key=lambda k: (sum(k), k)):
            block = module.ops[(sign, i, m)][k]
            triplets = [
                [r, c, int(block[r, c])]
                for r in range(block.shape[0])
                for c in range(block.shape[1])
                if block[r, c]
            ]
            if triplets:
                operators.append(
                    {
                        "op": sign,
                        "node": i,
                        "power": m,
                        "source": list(k),
                        "entries": triplets,
                    }
                )
    return {
        "lambda": list(module.lam.coords),
        "depth": module.depth,
        "weights": weights,
        "operators": operators,
    }
