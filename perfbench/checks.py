"""Checks of the program's JSON outputs against the reference answers in
oracles.py.  Each checker returns a list of problems; empty means correct.

The formats are those the kmgroups CLI writes: module JSON (weights,
sparse operator triplets), verify reports (relations with 1-based nodes,
kernel with 0-based members), commutator-signs and word outputs.
"""

from __future__ import annotations

from collections import defaultdict

import oracles


def check_ranks(doc, mult) -> list[str]:
    """Slice ranks equal the Weyl-Kac multiplicities at every depth vector."""
    got = {tuple(w["depth_vector"]): w["rank"] for w in doc["weights"]}
    want = {k: m for k, m in mult.items() if m}
    return [
        f"slice {k}: rank {got.get(k, 0)}, Weyl-Kac multiplicity {want.get(k, 0)}"
        for k in sorted(set(got) | set(want))
        if got.get(k, 0) != want.get(k, 0)
    ]


def _matmul(x, y):
    rows = defaultdict(list)
    for (t, c), v in y.items():
        rows[t].append((c, v))
    out = defaultdict(int)
    for (r, t), v in x.items():
        for c, w in rows.get(t, ()):
            out[r, c] += v * w
    return out


def check_commutators(doc, a) -> list[str]:
    """[e_i, f_j] = delta_ij <mu, alpha_i^vee> on every slice mu whose
    f_j-image stays inside the truncation."""
    lam, depth = doc["lambda"], doc["depth"]
    ops = {}
    for op in doc["operators"]:
        if op["power"] == 1:
            ops[op["op"], op["node"], tuple(op["source"])] = {
                (r, c): v for r, c, v in op["entries"]
            }
    n = len(lam)
    problems = []
    for w in doc["weights"]:
        k = tuple(w["depth_vector"])
        if sum(k) >= depth:
            continue
        for i in range(n):
            down = k[:i] + (k[i] - 1,) + k[i + 1:]
            e_k = ops.get(("e", i, k), {})
            for j in range(n):
                up = k[:j] + (k[j] + 1,) + k[j + 1:]
                comm = _matmul(ops.get(("e", i, up), {}), ops.get(("f", j, k), {}))
                if k[i]:
                    for rc, v in _matmul(ops.get(("f", j, down), {}), e_k).items():
                        comm[rc] -= v
                if i == j:
                    p = oracles.pairing(a, lam, k, i)
                    for c in range(w["rank"]):
                        comm[c, c] -= p
                bad = {rc: v for rc, v in comm.items() if v}
                if bad:
                    problems.append(
                        f"[e{i + 1}, f{j + 1}] wrong on slice {k} at {sorted(bad)[:3]}"
                    )
    return problems


def check_module(doc, a, lam, depth, mult) -> list[str]:
    head = check_head(doc, lam, depth)
    return head + check_ranks(doc, mult) + check_commutators(doc, a)


def check_head(doc, lam, depth) -> list[str]:
    if list(doc["lambda"]) != list(lam) or doc["depth"] != depth:
        return [f"output is for lambda {doc['lambda']} depth {doc['depth']}"]
    return []


def check_relations(relations, a, instances=None) -> dict:
    """Problems per expected instance (every R1-R12 instance of the diagram,
    or the given subset), plus key None for instances nobody asked for."""
    expected = instances if instances is not None else oracles.relation_instances(a)
    sign = oracles.r11_sign()
    got = {}
    for r in relations:
        got[r["id"], tuple(n - 1 for n in r["nodes"])] = r
    out = {key: [] for key in expected}
    out[None] = [f"unexpected instance {key}" for key in got if key not in out]
    for key in expected:
        r = got.get(key)
        if r is None:
            out[key].append(f"{key}: missing")
        elif r["status"] != "verified":
            out[key].append(f"{key}: {r['status']}")
        elif key[0] == "R11" and r.get("sign") is not None and r["sign"] != sign:
            out[key].append(f"{key}: sign {r['sign']}, SL3 gives {sign}")
    return out


def check_kernel(kernel, a, lam) -> list[str]:
    want = oracles.kernel_members(a, lam)
    problems = []
    if sorted(map(tuple, kernel["members"])) != sorted(map(tuple, want)):
        problems.append(f"kernel members {kernel['members']}, GF(2) gives {want}")
    if kernel["subgroup_order"] != len(want) or len(want) > 2 ** len(lam):
        problems.append(
            f"subgroup_order {kernel['subgroup_order']}, GF(2) gives {len(want)}"
        )
    span = {0}
    for s in kernel["generators"]:
        mask = sum(1 << i for i in s)
        span |= {v ^ mask for v in span}
    if span != {sum(1 << i for i in s) for s in want}:
        problems.append(f"generators {kernel['generators']} do not span the kernel")
    return problems


def check_report(doc, a, lam, depth) -> list[str]:
    """A whole verify report: every instance verified, R11 signs, kernel."""
    problems = check_head(doc, lam, depth)
    for found in check_relations(doc["relations"], a).values():
        problems += found
    return problems + check_kernel(doc["kernel"], a, lam)


def check_signs(doc, a, lam, depth) -> list[str]:
    n = len(a)
    sign = oracles.r11_sign()
    want = [[i + 1, j + 1] for i in range(n) for j in range(n) if i != j and a[i][j]]
    problems = check_head(doc, lam, depth)
    if [s["pair"] for s in doc["signs"]] != want:
        problems.append(f"pairs {[s['pair'] for s in doc['signs']]}, expected {want}")
    problems += [f"pair {s['pair']}: sign {s['sign']}, SL3 gives {sign}"
                 for s in doc["signs"] if s["sign"] != sign]
    return problems


def check_word(doc, a, lam, depth, value, mult) -> list[str]:
    """The word equals prod_{i in value} h_i(-1), which acts on the weight
    space mu by (-1)^sum <mu, alpha_i^vee>; every column up to the window
    must be listed."""
    problems = check_head(doc, lam, depth)
    window = doc["window"]
    if window < 0:
        return problems + ["window empty"]
    listed = defaultdict(int)
    for col in doc["columns"]:
        k = tuple(col["source"]["depth_vector"])
        c = col["source"]["index"]
        listed[k] += 1
        eps = (-1) ** sum(oracles.pairing(a, lam, k, i) for i in value)
        unit = [eps if t == c else 0 for t in range(mult[k])]
        if col["image"] != [{"depth_vector": list(k), "entries": unit}]:
            problems.append(f"column {c} of {k}: image {col['image']}")
    for k, m in mult.items():
        if sum(k) <= window and listed[k] != m:
            problems.append(f"slice {k} inside the window lists {listed[k]} of {m} columns")
    return problems
