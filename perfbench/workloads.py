"""The benchmark's workloads: fixed inputs, the cli-sweep pool, and what the
seed chooses.

rank4-d6   `kmgroups verify` on the rank-4 triangle-with-pendant diagram,
           lambda = (1,1,1,1), depth 6.  The input is the paper's fixed
           configuration; relabelling its nodes changes the compared
           columns by up to 3%, so the seed does not change it.
e10-d4     E10, lambda = 1^10, depth 4: `kmgroups kernel` (build + kernel
           probe), then every fourth instance of each relation family R1-R12
           verified on the same module, then the report JSON.  The full
           suite (354 instances, ~90 s) does not fit a run; the seed orders
           the 93 instances.
cli-sweep  many small `kmgroups` jobs through cli.main, each with --out.
           The seed shuffles the job order and picks one of the vetted
           variants of every word job.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import oracles

NAMES = ("rank4-d6", "e10-d4", "cli-sweep")

RANK4 = ("triangle_pendant", (1, 1, 1, 1), 6)
E10 = ("E10", (1,) * 10, 4)
E10_EVERY = 4  # verify instances 0, 4, 8, ... of each relation family


@dataclass
class Job:
    command: str
    diagram: str
    lam: tuple[int, ...]
    depth: int
    word: str | None = None
    # Nodes i whose h_i(-1) the word equals (empty: the identity).
    word_value: tuple[int, ...] = ()
    argv: list[str] = field(default_factory=list)
    out: str = ""


def _omega(rank: int, i: int) -> tuple[int, ...]:
    return tuple(1 if t == i else 0 for t in range(rank))


def _inverse(word: str) -> str:
    """Inverse of a word in the program's syntax, letter by letter."""
    out = []
    for tok in reversed(word.split()):
        if tok.startswith(("X", "Y")):
            head, arg = tok[:-1].split("(")
            out.append(f"{head}({-int(arg)})")
        elif tok.startswith("S"):
            out.append(tok[:-3] if tok.endswith("^-1") else tok + "^-1")
        else:  # H_i(+-1) is an involution
            out.append(tok)
    return " ".join(out)


def _w_winv(word: str) -> tuple[str, tuple[int, ...]]:
    return f"{word} {_inverse(word)}", ()


def _braid(i: int, j: int) -> tuple[str, tuple[int, ...]]:
    """R7 as one word: S_i S_j S_i (S_j S_i S_j)^-1, the identity."""
    return f"S{i} S{j} S{i} S{j}^-1 S{i}^-1 S{j}^-1", ()


# (command, diagram, lambda, depth, word variants).  Every variant of every
# job was run and checked: all exit 0 and pass every check.  Finite (A3,
# D4), affine (A3~) and hyperbolic diagrams; regular and non-regular
# lambda; module jobs on fundamental weights of high-rank diagrams, where
# most Verma slices have rank 0.
POOL = [
    ("verify", "A3", (1, 1, 1), 4, None),
    ("verify", "D4", (0, 1, 0, 0), 4, None),
    ("verify", "A3_affine", (1, 0, 0, 0), 4, None),
    ("verify", "triangle_pendant", (1, 1, 1, 1), 4, None),
    ("verify", "K4", (1, 0, 0, 0), 4, None),
    ("verify", "two_triangles", (0, 1, 0, 0), 4, None),
    ("verify", "T334", _omega(8, 0), 3, None),
    ("module", "E10", _omega(10, 0), 4, None),
    ("module", "T334", (1,) * 8, 3, None),
    ("module", "K4", (1, 1, 1, 1), 4, None),
    ("module", "D4", (1, 1, 1, 1), 4, None),
    ("kernel", "D4", (1, 1, 1, 1), 3, None),
    ("kernel", "A3_affine", (2, 0, 0, 0), 3, None),
    ("kernel", "E10", (1,) * 10, 3, None),
    ("kernel", "T245", _omega(9, 1), 3, None),
    ("commutator-signs", "A3", (1, 1, 1), 4, None),
    ("commutator-signs", "two_triangles", (1, 1, 1, 1), 4, None),
    ("commutator-signs", "K4", (1, 1, 1, 1), 4, None),
    ("commutator-signs", "D4", (1, 1, 1, 1), 4, None),
    ("word", "A3", (1, 1, 1), 4,
     [_braid(1, 2), _braid(2, 1), _braid(2, 3), _braid(3, 2)]),
    ("word", "A3", (1, 1, 1), 4,
     [("S1^2", (0,)), ("S2^2", (1,)), ("S3^2", (2,)), ("S2^-1 S2^-1", (1,))]),
    ("word", "triangle_pendant", (1, 1, 1, 1), 4,
     [_w_winv("X1(2) S3 Y2(-1)"), _w_winv("S1 X4(1) Y3(2)"),
      _w_winv("Y1(1) S2^-1 X3(-1)"), _w_winv("S4 S3 X2(1)")]),
    ("word", "K4", (1, 1, 1, 1), 4,
     [("S1^4", ()), ("S2^4", ()), ("S3^4", ()), ("S4^4", ())]),
    ("word", "two_triangles", (1, 1, 1, 1), 4,
     [_w_winv("S2 X3(1)"), _w_winv("X1(-1) S4 Y2(1)"),
      _w_winv("H3(-1) S1 X2(2)"), _w_winv("Y4(-1) S3^-1")]),
    ("word", "D4", (1, 1, 1, 1), 4,
     [("S1^2 S2^2", (0, 1)), ("S2^2 S3^2", (1, 2)),
      ("S1^2 S4^2", (0, 3)), ("S3^2 S4^2", (2, 3))]),
    ("word", "E10", _omega(10, 0), 3,
     [_braid(1, 2), _braid(2, 3), _braid(3, 10), _braid(10, 3)]),
    ("word", "A3_affine", (1, 0, 1, 0), 4,
     [("H1(-1) " + _w_winv("Y3(2) X3(1)")[0], (0,)),
      ("H3(-1) " + _w_winv("S2 Y1(1)")[0], (2,)),
      ("H2(-1) " + _w_winv("X4(1) S1")[0], (1,)),
      ("H4(-1) " + _w_winv("Y2(-2)")[0], (3,))]),
]


def cli_sweep_jobs(seed: int) -> list[Job]:
    """Every pool entry once, in seeded order, one word variant each."""
    rng = random.Random(seed)
    jobs = []
    for command, diagram, lam, depth, variants in POOL:
        job = Job(command, diagram, lam, depth)
        if variants:
            job.word, job.word_value = rng.choice(variants)
        jobs.append(job)
    rng.shuffle(jobs)
    return jobs


def e10_instances(seed: int) -> list[tuple[str, tuple[int, ...]]]:
    """Every E10_EVERY-th instance of each family, in seeded order."""
    a = oracles.cartan_matrix(E10[0])
    by_family: dict[str, list] = {}
    for rid, nodes in oracles.relation_instances(a):
        by_family.setdefault(rid, []).append((rid, nodes))
    chosen = [x for inst in by_family.values() for x in inst[::E10_EVERY]]
    random.Random(seed).shuffle(chosen)
    return chosen


def lam_text(lam) -> str:
    return ",".join(str(c) for c in lam)
