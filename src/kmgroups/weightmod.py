"""Depth-truncated Z-forms of integrable highest-weight modules.

Construction per weight space (depth vector k, weight mu = lambda - sum k_i
alpha_i), slice by slice in order of depth:

  1. span the Verma slice by f-monomials in lexicographic order and build
     the sparse matrices E_i(k) of e_i on it;
  2. embed the slice of the irreducible quotient through pairing vectors
     (<x, f_w v_lambda>)_w against all monomials w (this kills exactly the
     radical of the contravariant form);
  3. the Z-lattice of the slice is spanned by f_i^(m) b over all i, m >= 1
     and basis vectors b of the shallower slice s = k - m alpha_i, since
     V_Z = U_Z^- v_lambda and U_Z^- is spanned by divided-power monomials.
     By contravariance <f_i^m b, f_w v> = <b, e_i^m f_w v>, so the rows
     psi_s E_i(s + alpha_i) ... E_i(k) are L_s * m! times the pairing
     vectors of these generators, where psi_s / L_s are those of s's basis;
  4. the basis is the Hermite normal form of the generators, scaled to one
     common denominator L_k;
  5. the block of f_i^(m) from s into k expresses each generator in that
     basis, and the block of e_i^(m) out of k reads psi_k at the monomials
     i^m w, since <e_i^(m) b, f_w v> = <b, f_i^m f_w v> / m!.  Every block
     is checked to be integral (the divided powers preserve the lattice; a
     non-integral entry would be a bug, not a rounding issue).  As every
     generator is expressed, this also checks the HNF against its input.

All scratch arithmetic is exact (ints with explicit denominators); every
exposed matrix has integer entries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cartan import GeneralizedCartanMatrix, NotSimplyLaced
from .linalg import eye_obj, hnf_rows, obj_array, zeros_obj


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


@dataclass
class WeightSlice:
    depth_vector: tuple[int, ...]
    monomials: list[tuple[int, ...]]
    rank: int
    # L: lcm of L_s * m! over the generators f_i^(m) b, b a basis vector of
    # a source slice s = k - m alpha_i (1 when there are none)
    denom: int
    basis_psi: np.ndarray  # r x n ints: L * (pairing vector of basis vector a)
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
    index: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    # (i, k) -> sparse columns of e_i on the Verma slice k: a list over the
    # source monomials of [(target row index, coefficient)].  Only needed
    # while building, so it is not kept on the module.
    e_verma: dict[tuple[int, tuple[int, ...]], list] = {}
    total = 0

    for k in _depth_vectors(gcm.rank, depth):
        mons = _monomials(k)
        index[k] = {w: a for a, w in enumerate(mons)}
        _build_e_matrices(e_verma, gcm, lam, k, mons, index)
        sl = _build_slice(mod, e_verma, k, mons)
        mod.slices[k] = sl
        if sl.rank:
            _build_e_blocks(mod, index[k], sl)
        total += sl.rank
        if max_basis is not None and total > max_basis:
            raise DepthOverflow(
                f"basis size {total} exceeds cap {max_basis} at depth {sum(k)}"
            )

    mod._weight_keys = sorted(
        (k for k, s in mod.slices.items() if s.rank > 0),
        key=lambda k: (sum(k), k),
    )
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


def _times_e(rows, cols):
    """rows @ E for the sparse e-matrix E given by its column lists."""
    return [[sum(x[r] * c for r, c in col) for col in cols] for x in rows]


def _build_slice(mod: TruncatedModule, e_verma, k, mons) -> WeightSlice:
    """The slice k, from the generators f_i^(m) b, and the f-blocks into it."""
    if not any(k):
        return WeightSlice(k, mons, 1, 1, obj_array([[1]]), [0])
    gens = []  # (i, m, source slice, L_s * m! * generator pairing vectors)
    for i in range(len(k)):
        for m in range(1, k[i] + 1):
            src = mod.slices[_shift(k, i, -m)]
            if src.rank == 0:
                continue
            rows = [[int(v) for v in row] for row in src.basis_psi]
            for step in range(m - 1, -1, -1):
                rows = _times_e(rows, e_verma[(i, _shift(k, i, -step))])
            gens.append((i, m, src, rows))
    dens = [src.denom * math.factorial(m) for _, m, src, _ in gens]
    denom = math.lcm(*dens)
    hnf_in = [
        [(denom // den) * v for v in row]
        for (_, _, _, rows), den in zip(gens, dens)
        for row in rows
        if any(row)  # a generator in the radical adds nothing
    ]
    basis = hnf_rows(hnf_in) if hnf_in else []
    r = len(basis)
    sl = WeightSlice(
        depth_vector=k,
        monomials=mons,
        rank=r,
        denom=denom,
        basis_psi=obj_array(basis) if r else zeros_obj(0, len(mons)),
        pivots=[next(j for j, v in enumerate(row) if v) for row in basis],
    )
    for (i, m, src, rows), den in zip(gens, dens):
        mod.ops.setdefault(("f", i, m), {})[src.depth_vector] = _block_in_basis(
            sl, src.rank, den, rows
        )
    return sl


def _build_e_blocks(mod: TruncatedModule, idx, sl: WeightSlice):
    """Blocks of e_i^(m) out of sl: psi at the monomials i^m w, / (L m!)."""
    k = sl.depth_vector
    for i in range(len(k)):
        for m in range(1, k[i] + 1):
            tgt = mod.slices[_shift(k, i, -m)]
            cols = [idx[(i,) * m + w] for w in tgt.monomials] if tgt.rank else []
            mod.ops.setdefault(("e", i, m), {})[k] = _block_in_basis(
                tgt, sl.rank, sl.denom * math.factorial(m), sl.basis_psi[:, cols]
            )


def _block_in_basis(tgt: WeightSlice, n_src: int, den: int, pairings):
    """Block out of a source slice of rank n_src into tgt.

    Row a of pairings is den times the pairing vector of the image of
    source basis vector a; it is only read when tgt is non-trivial.
    """
    block = zeros_obj(tgt.rank, n_src)
    if tgt.rank:
        for a, num in enumerate(pairings):
            block[:, a] = _express_in_basis(tgt, num, den)
    return block


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
