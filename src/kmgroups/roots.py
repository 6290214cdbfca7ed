"""Real roots of a simply-laced Kac-Moody algebra, up to a height bound.

Real roots are Weyl images of the simple roots; in the simply-laced
normalization they are exactly the norm-2 elements of the Weyl orbit.
Enumeration is a breadth-first closure of {+-alpha_i} under simple
reflections, pruned at the height bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cartan import GeneralizedCartanMatrix, bilinear_form


class InputNotRealRoot(ValueError):
    pass


class NotPrenilpotent(ValueError):
    pass


@dataclass(frozen=True, order=True)
class Root:
    """Integer coordinate vector in the simple-root basis."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    def is_positive(self) -> bool:
        return any(self.coeffs) and all(c >= 0 for c in self.coeffs)

    def is_negative(self) -> bool:
        return any(self.coeffs) and all(c <= 0 for c in self.coeffs)

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coeffs))

    def __add__(self, other: "Root") -> "Root":
        return Root(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, m: int) -> "Root":
        return Root(tuple(m * c for c in self.coeffs))


def simple_root(rank: int, i: int) -> Root:
    return Root(tuple(1 if j == i else 0 for j in range(rank)))


def coroot_pairing(gcm: GeneralizedCartanMatrix, i: int, root: Root) -> int:
    """<root, alpha_i^vee> = sum_j c_j a_ij."""
    return sum(c * gcm.a(i, j) for j, c in enumerate(root.coeffs))


def simple_reflection(gcm: GeneralizedCartanMatrix, i: int, root: Root) -> Root:
    """w_i(root) = root - <root, alpha_i^vee> alpha_i."""
    p = coroot_pairing(gcm, i, root)
    coeffs = list(root.coeffs)
    coeffs[i] -= p
    return Root(tuple(coeffs))


def root_norm(gcm: GeneralizedCartanMatrix, root: Root) -> int:
    return bilinear_form(gcm, root.coeffs, root.coeffs)


def is_real_root(gcm: GeneralizedCartanMatrix, root: Root) -> bool:
    """Exact membership test by reflection descent (no height bound).

    A positive vector of norm 2 always admits a height-decreasing simple
    reflection; it is a real root iff the descent reaches a simple root
    without ever producing a mixed-sign vector.
    """
    if root_norm(gcm, root) != 2:
        return False
    v = root
    if v.is_negative():
        v = -v
    while True:
        if not v.is_positive():
            return False
        if v.height == 1:
            return True
        i = next(
            (i for i in range(gcm.rank) if coroot_pairing(gcm, i, v) > 0), None
        )
        if i is None:
            return False
        v = simple_reflection(gcm, i, v)


@dataclass(frozen=True)
class RealRootSet:
    """All real roots with |height| <= height_bound, closed under negation."""

    gcm: GeneralizedCartanMatrix
    height_bound: int
    roots: frozenset[Root] = field(compare=False)

    def __contains__(self, root: Root) -> bool:
        return root in self.roots

    def positive(self) -> list[Root]:
        return sorted(r for r in self.roots if r.is_positive())

    def __len__(self) -> int:
        return len(self.roots)


def enumerate_real_roots(gcm: GeneralizedCartanMatrix, height_bound: int) -> RealRootSet:
    """Breadth-first reflection closure of the simple roots.

    A reflection image whose |height| exceeds the bound is discarded, but the
    frontier continues from the remaining roots.
    """
    if height_bound < 1:
        raise ValueError("height_bound must be >= 1")
    seeds = [simple_root(gcm.rank, i) for i in range(gcm.rank)]
    seen: set[Root] = set()
    frontier = list(seeds)
    for r in seeds:
        seen.add(r)
    while frontier:
        nxt = []
        for r in frontier:
            for i in range(gcm.rank):
                image = simple_reflection(gcm, i, r)
                if abs(image.height) > height_bound or image in seen:
                    continue
                seen.add(image)
                nxt.append(image)
        frontier = nxt
    seen |= {-r for r in list(seen)}
    return RealRootSet(gcm=gcm, height_bound=height_bound, roots=frozenset(seen))


def is_prenilpotent(
    gcm: GeneralizedCartanMatrix,
    alpha: Root,
    beta: Root,
    root_set: RealRootSet | None = None,
) -> bool:
    """Prenilpotency of a pair of real roots.

    alpha != -beta with a finite positive real-root interval
    (Z_{>0} alpha + Z_{>0} beta) cap Delta^re_+.  For pairing >= -1 the
    interval is provably finite.  For pairing p <= -2 the pair spans an
    affine or hyperbolic rank-2 root system, whose real roots are
    unbounded; its member s_beta(alpha) = alpha + |p| beta (m = 1, n = |p|)
    is a real root, so the pair is never prenilpotent.
    """
    for r in (alpha, beta):
        if (root_set is None or r not in root_set) and not is_real_root(gcm, r):
            raise InputNotRealRoot(f"{r} is not a real root")
    if alpha == -beta:
        return False
    return bilinear_form(gcm, alpha.coeffs, beta.coeffs) >= -1


def commutation_interval(
    gcm: GeneralizedCartanMatrix,
    alpha: Root,
    beta: Root,
    root_set: RealRootSet,
) -> list[tuple[int, int, Root]]:
    """All (m, n, m*alpha + n*beta) with m, n > 0 landing in Delta^re_+.

    Solves the norm equation 2m^2 + 2mn(alpha|beta) + 2n^2 = 2 and keeps the
    solutions that are real roots.  Refuses non-prenilpotent pairs.
    """
    if not is_prenilpotent(gcm, alpha, beta, root_set):
        raise NotPrenilpotent(f"pair {alpha}, {beta} is not prenilpotent")
    # For pairing p >= -1 and m, n >= 1, m^2 + mn*p + n^2 = 1 only at
    # p = -1, m = n = 1: the interval is at most {alpha + beta}.
    if bilinear_form(gcm, alpha.coeffs, beta.coeffs) != -1:
        return []
    v = alpha + beta
    if v.is_positive() and (v in root_set or is_real_root(gcm, v)):
        return [(1, 1, v)]
    return []
