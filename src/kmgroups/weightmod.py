"""Depth-truncated Z-forms of integrable highest-weight modules.

The module is the direct sum of its nonzero weight lattices, one slice
per depth vector k (weight mu = lambda - sum k_i alpha_i), and only those
slices are stored.  They are built layer by layer: the slices of depth
d + 1 are among the k + alpha_j over the slices k of depth d.  That finds
them all: if no k - alpha_j of some k != 0 has a slice, every x of weight
mu has e_j x = 0 for every j, which puts x in the radical.  Construction
per slice:

  1. the Z-lattice of the slice is spanned by f_i^(m) b over all i, m >= 1
     and basis vectors b of the shallower slice s = k - m alpha_i, since
     V_Z = U_Z^- v_lambda and U_Z^- is spanned by divided-power monomials;
  2. a vector x of the slice is recorded by its pairings <x, f_w v_lambda>
     at the pivot words w = j w' of content k: t = k - alpha_j has a
     slice and w' is the word of a pivot column of t's basis.  As
     <x, f_j f_w' v_lambda> = <e_j x, f_w' v_lambda>, these columns are
     c_j T_t, c_j the coordinates of e_j x and T_t = psi_t at its pivots
     (r_t x r_t, upper triangular).  No Verma module is built;
  3. for a generator, e_j f_i^(m) b = f_i^(m) e_j b + delta_ij
     (<nu, alpha_i^vee> - m + 1) f_i^(m-1) b, nu the weight of b
     (Humphreys, Introduction to Lie Algebras and Representation Theory,
     26.2), and every block on the right is one of the shallower slices;
  4. the basis is the Hermite normal form of the generators' pairing
     vectors, which are integers: its rows are the pairing vectors psi_k.
     Over all words these are c diag(psi_t), an echelon matrix with its
     pivots at the pivot words, so keeping those columns is injective and
     by uniqueness gives the same HNF;
  5. the block of f_i^(m) from s into k expresses each generator in that
     basis; the block of e_i out of k solves the columns of k - alpha_i
     against T, and e_i^(m) = e_i e_i^(m-1) / m.  That m is the only
     division.  Every block is checked to be integral (a non-integral
     entry would be a bug, not a rounding issue), which also checks the
     HNF against its input.

All arithmetic is exact over Python ints; every exposed matrix has integer
entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cartan import GeneralizedCartanMatrix, NotSimplyLaced
from .linalg import hnf_rows


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
    rank: int
    basis_psi: np.ndarray  # r x sum r_t ints: pairings of basis vector a
    pivots: list[int]  # pivot column of each basis_psi row (an index into it)

    @property
    def monomials(self) -> list[tuple[int, ...]]:
        """The words of content depth_vector in lex order, made on each read;
        the build does not use them."""
        return _words(self.depth_vector)


def _words(k) -> list[tuple[int, ...]]:
    if not any(k):
        return [()]
    return [(j,) + w for j, kj in enumerate(k) if kj for w in _words(_shift(k, j, -1))]


class TruncatedModule:
    """The nonzero weight slices of V^lambda with depth <= depth, over Z,
    in (depth, lex) order; a depth vector in range with no slice has weight
    space 0.  build_module numbers their basis vectors globally (keys to
    pairing below); generators caches the group elements over that basis
    and their shared identity (see groupgen)."""

    keys: list[tuple[int, ...]]  # nonzero weight spaces, (depth, lex) order
    offset: dict[tuple[int, ...], int]  # index of each slice's first vector
    n: int  # total rank
    # per basis vector: its slice (an index into keys) and its depth
    slice_of: np.ndarray
    depth_of: np.ndarray
    # pairing[s, i] = <mu, alpha_i^vee> for the weight mu of slice s
    pairing: np.ndarray

    def __init__(self, gcm: GeneralizedCartanMatrix, lam: DominantWeight, depth: int):
        self.gcm = gcm
        self.lam = lam
        self.depth = depth
        self.slices: dict[tuple[int, ...], WeightSlice] = {}
        # (sign, i, m) -> {source depth_vector: (r_tgt x r_src) int matrix}
        self.ops: dict[tuple[str, int, int], dict[tuple[int, ...], np.ndarray]] = {}
        self.generators: dict = {}  # (kind, node, scalar) -> WindowedMatrix

    # -- weights ----------------------------------------------------------

    def _in_range(self, depth_vector) -> tuple[int, ...]:
        """depth_vector as a tuple; SliceOutOfRange outside the truncation."""
        k = tuple(depth_vector)
        if any(c < 0 for c in k) or sum(k) > self.depth:
            raise SliceOutOfRange(f"{k} outside truncation depth {self.depth}")
        return k

    def rank_at(self, depth_vector) -> int:
        k = tuple(depth_vector)
        sl = self.slices.get(k)
        return 0 if sl is None else sl.rank

    def total_rank(self) -> int:
        return self.n

    def coroot_pairing(self, depth_vector, i: int) -> int:
        """<mu, alpha_i^vee> for mu = lambda - sum_j k_j alpha_j."""
        k = self._in_range(depth_vector)
        return self.lam.coords[i] - sum(
            kj * self.gcm.a(i, j) for j, kj in enumerate(k)
        )

    def operator_block(self, sign: str, i: int, m: int, source) -> np.ndarray:
        """Integer block of e_i^(m) or f_i^(m) out of one weight slice."""
        if sign not in ("e", "f"):
            raise ValueError("sign must be 'e' or 'f'")
        if m < 0:
            raise ValueError("power must be >= 0")
        k = self._in_range(source)
        r_src = self.rank_at(k)
        if m == 0:
            return np.identity(r_src, dtype=object)
        tgt = self._in_range(_shift(k, i, m if sign == "f" else -m))
        block = self.ops.get((sign, i, m), {}).get(k)
        if block is None:
            return np.zeros((self.rank_at(tgt), r_src), dtype=object)
        return block


def _shift(k, i, delta):
    out = list(k)
    out[i] += delta
    return tuple(out)


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
    if len(lam.coords) != gcm.rank:
        raise ValueError(f"lambda has {len(lam.coords)} coordinates, rank {gcm.rank}")
    mod = TruncatedModule(gcm, lam, depth)
    total = 0
    layer = [(0,) * gcm.rank]
    while layer and sum(layer[0]) <= depth:  # no slice at depth d: none deeper
        for k in layer:
            sl = _build_slice(mod, k)
            if sl is None:
                continue
            mod.slices[k] = sl
            total += sl.rank
            if max_basis is not None and total > max_basis:
                raise DepthOverflow(
                    f"basis size {total} exceeds cap {max_basis} at depth {sum(k)}"
                )
        layer = sorted(
            {_shift(k, j, 1) for k in layer if k in mod.slices for j in range(gcm.rank)}
        )
    # the global basis, set once: slice by slice in the order the layers
    # inserted them, (depth, lex), so depth_of never decreases with the index
    mod.keys = list(mod.slices)
    ranks = [mod.slices[k].rank for k in mod.keys]
    starts = np.cumsum([0] + ranks).tolist()
    mod.offset, mod.n = dict(zip(mod.keys, starts)), starts[-1]
    mod.slice_of = np.repeat(np.arange(len(ranks)), ranks)
    keys = np.array(mod.keys, dtype=np.int64)
    mod.depth_of = keys.sum(1)[mod.slice_of]
    mod.pairing = np.array(lam.coords) - keys @ np.array(gcm.entries).T
    return mod


def _build_slice(mod: TruncatedModule, k) -> WeightSlice | None:
    """The slice k from the generators f_i^(m) b, with its f- and e-blocks;
    None if the weight space is 0.  Some k - alpha_j must have a slice."""
    if not any(k):
        return WeightSlice(k, 1, np.array([[1]], dtype=object), [0])
    # the slices t = k - alpha_j, each with its pivot block
    # T_t = psi_t at its pivots (r_t x r_t, upper triangular)
    up = [
        (j, t, t.basis_psi[:, t.pivots])
        for j, kj in enumerate(k)
        if kj and (t := mod.slices.get(_shift(k, j, -1)))
    ]
    gens = [  # (i, m, source slice)
        (i, m, src)
        for i, kj in enumerate(k)
        for m in range(1, kj + 1)
        if (src := mod.slices.get(_shift(k, i, -m)))
    ]
    # row a of gen_rows[g] pairs f_i^(m) b_a with the pivot words j w of every
    # t: the coordinates of e_j f_i^(m) b_a in t's basis, times T_t
    gen_rows = [
        np.hstack([_e_image(mod, j, i, m, src.depth_vector).T @ T for j, _, T in up])
        for i, m, src in gens
    ]
    # a generator in the radical adds nothing
    hnf_in = [row for rows in gen_rows for row in rows if any(row)]
    basis = hnf_rows(hnf_in)
    if not basis:  # every generator pairs to 0: the weight space is 0
        return None
    sl = WeightSlice(
        depth_vector=k,
        rank=len(basis),
        basis_psi=np.array(basis, dtype=object),
        pivots=[next(j for j, v in enumerate(row) if v) for row in basis],
    )
    for (i, m, src), rows in zip(gens, gen_rows):
        mod.ops.setdefault(("f", i, m), {})[src.depth_vector] = _in_basis(
            sl.basis_psi, sl.pivots, rows
        )
    # block i of psi_k is (e_i out of k) T_t for t = k - alpha_i; then
    # e_i^(m) = e_i e_i^(m-1) / m while the string stays in the module
    col = 0
    for i, t, T in up:
        block = _in_basis(T, range(t.rank), sl.basis_psi[:, col:col + t.rank])
        col += t.rank
        mod.ops.setdefault(("e", i, 1), {})[k] = block
        for m in range(2, k[i] + 1):
            if not mod.rank_at(_shift(k, i, -m)):
                break
            block = mod.operator_block("e", i, 1, _shift(k, i, 1 - m)) @ block
            if (block % m).any():
                raise ZFormError(f"e_{i}^({m}) leaves the Z-lattice")
            mod.ops.setdefault(("e", i, m), {})[k] = block = block // m
    return sl


def _e_image(mod: TruncatedModule, j: int, i: int, m: int, s) -> np.ndarray:
    """Block of e_j f_i^(m) out of slice s, from the blocks of shallower slices.

    e_j f_i^(m) = f_i^(m) e_j + delta_ij f_i^(m-1) (h_i - m + 1), where f^(0)
    is the identity and e_j is zero on s when s[j] = 0.
    """
    out = 0
    if j == i:
        h = mod.coroot_pairing(s, i)
        out = (h - m + 1) * mod.operator_block("f", i, m - 1, s)
    if s[j]:
        e_j = mod.operator_block("e", j, 1, s)
        out = out + mod.operator_block("f", i, m, _shift(s, j, -1)) @ e_j
    return out


def _in_basis(basis, pivots, rows) -> np.ndarray:
    """Coordinates, one column per row of rows, in the echelon basis whose
    row a starts at column pivots[a]; ZFormError unless they are integers."""
    block = np.zeros((len(pivots), len(rows)), dtype=object)
    for c, row in enumerate(rows):
        rem = np.array([int(v) for v in row], dtype=object)
        for a, p in enumerate(pivots):
            q, residue = divmod(rem[p], basis[a, p])
            if residue:
                raise ZFormError("operator image is not in the Z-lattice")
            if q:
                block[a, c] = q
                rem -= q * basis[a]
        if any(rem):
            raise ZFormError("operator image pairs outside the slice lattice span")
    return block


def module_to_json(module: TruncatedModule) -> dict:
    """Weights, ranks, and sparse operator triplets (row, col, value)."""
    weights = [
        {
            "depth_vector": list(k),
            "depth": sum(k),
            "rank": module.slices[k].rank,
        }
        for k in module.keys
    ]
    operators = []
    for (sign, i, m) in sorted(module.ops):
        for k in sorted(module.ops[(sign, i, m)], key=lambda k: (sum(k), k)):
            block = module.ops[(sign, i, m)][k]
            rows, cols = np.nonzero(block)  # row-major order
            triplets = [
                [r, c, int(v)]
                for r, c, v in zip(rows.tolist(), cols.tolist(), block[rows, cols])
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
