"""Reference answers computed without the kmgroups package.

Everything here is derived from the Cartan matrix alone, with plain Python
integers, so that a fault shared by the program's Shapovalov/HNF path, its
generator matrices or its kernel probe cannot also hide in the check.

  weight_multiplicities  Weyl-Kac character formula (Kac, Thm 10.4)
  kernel_members         GF(2) solve of the parity criterion for h_S
  r11_sign               the R11 sign from 3x3 integer matrices in SL3(Z)
  relation_instances     the node tuples of R1-R12 on a diagram
"""

from __future__ import annotations

import itertools

# Simply-laced diagrams as (rank, edges), nodes 0-based.  T_pqr has arms of
# p-1, q-1 and r-1 nodes around a centre; T_237 is E10.
DIAGRAMS = {
    "A2": (2, [(0, 1)]),
    "A3": (3, [(0, 1), (1, 2)]),
    "D4": (4, [(0, 1), (0, 2), (0, 3)]),
    "A3_affine": (4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "triangle_pendant": (4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
    "K4": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    "two_triangles": (4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
    "T334": (8, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6), (6, 7)]),
    "T245": (9, [(0, 1), (0, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 7), (7, 8)]),
    "E10": (10, [(i, i + 1) for i in range(8)] + [(2, 9)]),
}


def cartan_matrix(name: str) -> list[list[int]]:
    rank, edges = DIAGRAMS[name]
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        a[i][j] = a[j][i] = -1
    return a


def pairing(a, lam, k, i) -> int:
    """<mu, alpha_i^vee> for mu = lambda - sum_j k_j alpha_j."""
    return lam[i] - sum(kj * a[i][j] for j, kj in enumerate(k))


def depth_vectors(rank: int, depth: int):
    """All k in N^rank with sum(k) <= depth, by total then lexicographically."""
    out = []
    for total in range(depth + 1):
        for cuts in itertools.combinations(range(total + rank - 1), rank - 1):
            bounds = (-1,) + cuts + (total + rank - 1,)
            out.append(tuple(bounds[t + 1] - bounds[t] - 1 for t in range(rank)))
    return out


def _orbit_series(a, nu, depth):
    """sum_w eps(w) x^c over the W-orbit of a regular dominant weight nu.

    nu is given by its pairings <nu, alpha_i^vee> (all >= 1), and
    w nu = nu - sum_i c_i alpha_i.  Breadth-first search from nu: a step by
    s_i with <mu, alpha_i^vee> > 0 lengthens w by one and deepens c, so
    every orbit point of depth <= depth is reached through shallower ones
    and its BFS level is the length of w.
    """
    n = len(nu)
    level = {((0,) * n, tuple(nu))}
    seen = set(level)
    series = {(0,) * n: 1}
    sign = 1
    while level:
        sign = -sign
        nxt = set()
        for c, p in level:
            for i in range(n):
                if p[i] <= 0 or sum(c) + p[i] > depth:
                    continue
                c2 = c[:i] + (c[i] + p[i],) + c[i + 1:]
                p2 = tuple(p[j] - p[i] * a[j][i] for j in range(n))
                if (c2, p2) not in seen:
                    seen.add((c2, p2))
                    nxt.add((c2, p2))
                    series[c2] = series.get(c2, 0) + sign
        level = nxt
    return series


def weight_multiplicities(a, lam, depth) -> dict[tuple[int, ...], int]:
    """dim V^lambda_mu for every mu = lambda - sum k_i alpha_i, sum(k) <= depth.

    Weyl-Kac: ch V . sum_w eps(w) e^{w rho - rho}
              = sum_w eps(w) e^{w(lambda + rho) - rho},
    solved for ch V by truncated series division (the denominator has
    constant term 1).
    """
    n = len(lam)
    num = _orbit_series(a, [c + 1 for c in lam], depth)
    den = [(c, v) for c, v in _orbit_series(a, [1] * n, depth).items() if any(c)]
    mult: dict[tuple[int, ...], int] = {}
    for k in depth_vectors(n, depth):
        m = num.get(k, 0)
        for c, v in den:
            if all(ci <= ki for ci, ki in zip(c, k)):
                m -= v * mult[tuple(ki - ci for ki, ci in zip(k, c))]
        if m < 0:
            raise ArithmeticError(f"negative multiplicity {m} at {k}")
        mult[k] = m
    return mult


def kernel_members(a, lam) -> list[list[int]]:
    """All S with sum_{i in S} lambda_i even and sum_{i in S} a_ij even for
    every j, as sorted node lists in increasing bitmask order.

    Solved as the null space over GF(2) of the constraint rows, then
    expanded from its basis.
    """
    n = len(lam)
    rows = [sum((a[i][j] & 1) << i for i in range(n)) for j in range(n)]
    rows.append(sum((lam[i] & 1) << i for i in range(n)))
    pivots: dict[int, int] = {}  # pivot bit -> reduced row
    for row in rows:
        for bit, prow in pivots.items():
            if row >> bit & 1:
                row ^= prow
        if row:
            bit = row.bit_length() - 1
            for b2 in pivots:
                if pivots[b2] >> bit & 1:
                    pivots[b2] ^= row
            pivots[bit] = row
    free = [i for i in range(n) if i not in pivots]
    basis = []
    for f in free:
        vec = 1 << f
        for bit, prow in pivots.items():
            if prow >> f & 1:
                vec |= 1 << bit
        basis.append(vec)
    span = {0}
    for vec in basis:
        span |= {v ^ vec for v in span}
    return [[i for i in range(n) if mask >> i & 1] for mask in sorted(span)]


def relation_instances(a) -> list[tuple[str, tuple[int, ...]]]:
    """(relation id, 0-based nodes) of R1-R12: R1-R3 per node, R4-R6 per
    ordered non-adjacent pair, R7-R12 per ordered adjacent pair."""
    n = len(a)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for r in range(1, 13):
        if r <= 3:
            nodes = [(i,) for i in range(n)]
        elif r <= 6:
            nodes = [p for p in pairs if a[p[0]][p[1]] == 0]
        else:
            nodes = [p for p in pairs if a[p[0]][p[1]] != 0]
        out += [(f"R{r}", p) for p in nodes]
    return out


# -- SL3(Z) -----------------------------------------------------------------


def _mul(x, y):
    return tuple(
        tuple(sum(x[r][t] * y[t][c] for t in range(3)) for c in range(3))
        for r in range(3)
    )


def _elem(r, c, t):
    return tuple(
        tuple((1 if i == j else 0) + (t if (i, j) == (r, c) else 0) for j in range(3))
        for i in range(3)
    )


def _word(*mats):
    out = _elem(0, 0, 0)
    for m in mats:
        out = _mul(out, m)
    return out


def r11_sign() -> int:
    """The sign s with [X_i(1), X_j(1)] = S_i X_j(s) S_i^-1 in SL3(Z).

    X_i(t) = 1 + t e_i, Y_i(t) = 1 + t f_i, S_i = X_i(1) Y_i(-1) X_i(1) and
    S_i^-1 = X_i(-1) Y_i(1) X_i(-1), with e_1 = E_12, e_2 = E_23 and f the
    transposes.  Both ways of placing the ordered pair (i, j) on the A2
    diagram must give the same unique sign.
    """
    signs = set()
    for i, j in ((0, 1), (1, 0)):
        x = {k: (lambda t, k=k: _elem(k, k + 1, t)) for k in (0, 1)}
        y = {k: (lambda t, k=k: _elem(k + 1, k, t)) for k in (0, 1)}

        def s(k, e):
            return _word(x[k](e), y[k](-e), x[k](e))

        lhs = _word(x[i](1), x[j](1), x[i](-1), x[j](-1))
        good = [
            eps
            for eps in (1, -1)
            if _word(s(i, 1), x[j](eps), s(i, -1)) == lhs
        ]
        if len(good) != 1:
            raise ArithmeticError(f"SL3 sign for {(i, j)} not unique: {good}")
        signs.add(good[0])
    if len(signs) != 1:
        raise ArithmeticError("the two placements on A2 disagree")
    return signs.pop()


def weyl_dimension_a(lam) -> int:
    """dim V^lambda for A_n by the Weyl dimension formula."""
    n = len(lam)
    num = den = 1
    for i in range(n):
        for j in range(i, n):
            num *= sum(lam[t] + 1 for t in range(i, j + 1))
            den *= j - i + 1
    return num // den
