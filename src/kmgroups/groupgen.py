"""Group generators acting on a depth-truncated Z-form.

The representation matrices are block-sparse over the weight decomposition:
a WindowedMatrix stores one integer block per (target slice, source slice)
pair, together with a per-column exactness flag.  chi_plus(i, t) is exact on
every column (e_i lowers depth, so the truncation loses nothing).
chi_minus(i, t) raises depth; a column is exact only if the f_i-string of
that basis vector terminates inside the truncation.  Composition propagates
the flags: a column of a product is exact when the inner factor's column is
exact and every basis vector it touches sits in an exact column of the
outer factor.

Every per-column operation works one source slice at a time.  A product
groups the inner factor's blocks by source; a column of source src can
only touch rows of the blocks (mid, src), so only those are scanned, and
only at the rows of mid whose columns are inexact in the outer factor.
Column reads group a matrix's blocks by source once per comparison.  The
groupings are built per call and never stored on the matrix: generator
matrices are cached for the whole run.

The "window" of a matrix is the largest depth d such that all columns of
depth <= d are exact; equality of two group elements is only asserted on
the intersection of their windows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .linalg import eye_obj
from .weightmod import TruncatedModule, _shift


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
        if self.kind in ("X+", "X-"):
            return GeneratorSymbol(self.kind, self.node, -self.arg)
        if self.kind == "S":
            return GeneratorSymbol("S", self.node, -self.arg)
        # h(t)^-1 = h(t) for t = -1, identity for t = 1.
        return self


class WindowedMatrix:
    """Block matrix over the weight slices with per-column exact flags."""

    def __init__(self, module: TruncatedModule, blocks=None, exact=None):
        self.module = module
        self.blocks: dict = {} if blocks is None else blocks
        if exact is None:
            exact = {
                k: [True] * module.slices[k].rank for k in module.slices
            }
        self.exact = exact

    @classmethod
    def identity(cls, module: TruncatedModule) -> "WindowedMatrix":
        return cls(
            module,
            {(k, k): eye_obj(sl.rank) for k, sl in module.slices.items() if sl.rank},
        )

    def by_source(self) -> dict:
        """The blocks grouped by source slice: {src: [(tgt, block), ...]}."""
        out: dict = {}
        for (tgt, src), blk in self.blocks.items():
            out.setdefault(src, []).append((tgt, blk))
        return out

    def column(self, src, c) -> dict:
        """Nonzero entries of column c of source slice src, keyed by target.

        To read many columns, group once with by_source() and read each
        with read_column().
        """
        return read_column(
            [(tgt, blk) for (tgt, s), blk in self.blocks.items() if s == src], c
        )

    def __matmul__(self, other: "WindowedMatrix") -> "WindowedMatrix":
        if other.module is not self.module:
            raise ValueError("matrices act on different modules")
        outer_by_mid = self.by_source()
        inner_by_src: dict = {}
        blocks: dict = {}
        summed = set()  # only a sum of nonzero products can vanish
        for (mid, src), inner in other.blocks.items():
            inner_by_src.setdefault(src, []).append((mid, inner))
            for tgt, outer in outer_by_mid.get(mid, ()):
                prod = outer @ inner
                if not any(prod.flat):
                    continue
                key = (tgt, src)
                if key in blocks:
                    blocks[key] = blocks[key] + prod
                    summed.add(key)
                else:
                    blocks[key] = prod
        for key in summed:
            if not any(blocks[key].flat):
                del blocks[key]
        exact: dict = {}
        for src, flags in other.exact.items():
            out_flags = list(flags)
            for mid, inner in inner_by_src.get(src, ()):
                # A column of inner touching a row of mid whose column is
                # inexact in the outer factor is inexact in the product.
                mid_flags = self.exact.get(mid)
                bad = [
                    r for r in range(inner.shape[0])
                    if not (mid_flags and mid_flags[r])
                ]
                if not bad:
                    continue
                for c, ok in enumerate(out_flags):
                    if ok and any(inner[r, c] for r in bad):
                        out_flags[c] = False
            exact[src] = out_flags
        return WindowedMatrix(self.module, blocks, exact)

    def valid_depth(self) -> int:
        """Largest d with every depth <= d column exact; -1 if none."""
        best = self.module.depth
        for k, sl in self.module.slices.items():
            if sl.rank and not all(self.exact[k]):
                best = min(best, sum(k) - 1)
        return best

    def exact_columns(self) -> list[tuple[tuple[int, ...], int]]:
        out = []
        for k in self.module.weight_keys():
            for c in range(self.module.slices[k].rank):
                if self.exact[k][c]:
                    out.append((k, c))
        return out

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
        window = min(self.valid_depth(), other.valid_depth())
        if window < min_window or window < 0:
            raise WindowEmpty(
                f"joint validity window {window} below required {min_window}"
            )
        compared = 0
        equal = True
        for _, _, mine, theirs in self.paired_columns(other):
            compared += 1
            if mine != theirs:
                equal = False
        return equal, window, compared

    def paired_columns(self, other: "WindowedMatrix"):
        """Yield (src, c, column of self, column of other) for every column
        exact in both, in weight_keys() order."""
        mine, theirs = self.by_source(), other.by_source()
        for k in self.module.weight_keys():
            own, their = mine.get(k, ()), theirs.get(k, ())
            for c, both in enumerate(zip(self.exact[k], other.exact[k])):
                if all(both):
                    yield k, c, read_column(own, c), read_column(their, c)


def read_column(entries, c) -> dict:
    """Nonzero entries of column c of one source slice's blocks, given as
    [(tgt, block), ...], keyed by target."""
    out = {}
    for tgt, blk in entries:
        col = blk[:, c]
        if any(col):
            out[tgt] = tuple(int(v) for v in col)
    return out


def _chi(module: TruncatedModule, sign: str, i: int, t: int) -> WindowedMatrix:
    """The identity plus t^m times every computed block of e_i^(m) (sign
    "e") or f_i^(m) (sign "f"), m >= 1; all columns flagged exact.

    A (target, source) pair gets at most one block, since the target
    k -+ m alpha_i determines m.
    """
    out = WindowedMatrix.identity(module)  # a fresh one: its blocks are edited
    step = -1 if sign == "e" else 1
    for (s, node, m), blocks in module.ops.items():
        if s != sign or node != i:
            continue
        for k, blk in blocks.items():
            if blk.any():
                out.blocks[(_shift(k, i, step * m), k)] = blk * (t**m)
    return out


def chi_plus(module: TruncatedModule, i: int, t: int) -> WindowedMatrix:
    """chi_{+alpha_i}(t) = sum_m t^m e_i^(m); exact on every column."""
    key = ("X+", i, int(t))
    if key not in module._gen_cache:
        module._gen_cache[key] = _chi(module, "e", i, t)
    return module._gen_cache[key]


def chi_minus(module: TruncatedModule, i: int, t: int) -> WindowedMatrix:
    """chi_{-alpha_i}(t) = sum_m t^m f_i^(m).

    A column is exact when its f_i-string provably terminates within the
    truncation.  Two certificates are used:
      * observed termination: some computable f_i^(m) kills the basis
        vector (then all higher divided powers do too);
      * the sl2 bound: with p = <mu, alpha_i^vee> and r the largest power
        with e_i^(r) v != 0 (always computable, e_i lowers depth), every
        sl2-component of v has highest weight <= p + 2r, hence
        f_i^(m) v = 0 for m > p + r.
    """
    key = ("X-", i, int(t))
    if key in module._gen_cache:
        return module._gen_cache[key]
    out = _chi(module, "f", i, t)
    for k, sl in module.slices.items():
        if sl.rank == 0:
            continue
        m_max = module.depth - sum(k)
        p = module.coroot_pairing(k, i)
        r = [0] * sl.rank  # largest power with e_i^(r) v != 0
        for m in range(1, k[i] + 1):
            eblk = module.ops.get(("e", i, m), {}).get(k)
            if eblk is None:
                continue
            for c in range(sl.rank):
                if any(eblk[:, c]):
                    r[c] = m
        flags = [p + r[c] <= m_max for c in range(sl.rank)]
        alive = [True] * sl.rank  # column still has a nonzero f_i^(m) image
        for m in range(1, m_max + 1):
            blk = module.ops.get(("f", i, m), {}).get(k)
            for c in range(sl.rank):
                if alive[c] and (blk is None or not any(blk[:, c])):
                    alive[c] = False
                    flags[c] = True
        out.exact[k] = flags
    module._gen_cache[key] = out
    return out


def w_tilde(module: TruncatedModule, i: int, t: int = 1) -> WindowedMatrix:
    """w~_i(t) = chi_+(t) chi_-(-t) chi_+(t), t a unit."""
    if t not in (1, -1):
        raise NonUnitScalar(f"w~ requires t = +-1, got {t}")
    key = ("S", i, int(t))
    if key in module._gen_cache:
        return module._gen_cache[key]
    xp = chi_plus(module, i, t)
    xm = chi_minus(module, i, -t)
    out = xp @ xm @ xp
    module._gen_cache[key] = out
    return out


def h_element(module: TruncatedModule, i: int, t: int) -> WindowedMatrix:
    """h_i(t) = w~_i(t) w~_i(1)^-1 = w~_i(t) w~_i(-1), t a unit."""
    if t not in (1, -1):
        raise NonUnitScalar(f"h requires t = +-1, got {t}")
    key = ("H", i, int(t))
    if key in module._gen_cache:
        return module._gen_cache[key]
    out = w_tilde(module, i, t) @ w_tilde(module, i, -1)
    module._gen_cache[key] = out
    return out


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

    The empty word gives the identity.  A one-letter word gives the cached
    generator matrix itself, so callers must not modify the result.
    """
    out = None
    for sym in symbols:
        mat = generator_matrix(module, sym)
        out = mat if out is None else out @ mat
    return WindowedMatrix.identity(module) if out is None else out


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
