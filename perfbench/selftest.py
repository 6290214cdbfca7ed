"""Self-tests of the benchmark's checkers: python3 perfbench/run.py --selftest

1. The Weyl-Kac oracle agrees with the Weyl dimension formula on A2, A3.
2. Each checker accepts a real program output and rejects it after one
   deliberate corruption: an operator entry, a slice rank, an R11 sign, a
   kernel member, a word image, a commutator sign.
3. Every variant of every cli-sweep pool job runs and passes its checks,
   so no seed can draw a job that fails.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

import checks
import oracles
import worker
import workloads
from workloads import Job


def _weyl_kac_cases():
    for name, lams in (("A2", [(1, 1), (2, 1), (0, 3), (3, 2)]),
                       ("A3", [(1, 1, 1), (2, 0, 1), (0, 2, 0), (1, 2, 1)])):
        a = oracles.cartan_matrix(name)
        for lam in lams:
            # ht(lambda - w0 lambda) <= 4 sum(lambda) for A2 and A3
            mult = oracles.weight_multiplicities(a, lam, 4 * sum(lam))
            yield f"Weyl-Kac dim {name} {lam}", sum(mult.values()) == oracles.weyl_dimension_a(lam)
    mult = oracles.weight_multiplicities(oracles.cartan_matrix("A2"), (1, 1), 4)
    yield "Weyl-Kac A2 adjoint zero weight has multiplicity 2", mult[1, 1] == 2
    yield "SL3 sign of R11 is +1", oracles.r11_sign() == 1


def _run(mods, directory, job):
    worker.prepare([job], directory)
    code = mods["kmgroups.cli"].main(job.argv)
    return code, json.loads(Path(job.out).read_text())


def _corruption_cases(mods, directory):
    def args(job):
        return oracles.cartan_matrix(job.diagram), job.lam, job.depth

    job = Job("module", "A2", (1, 1), 4)
    code, doc = _run(mods, directory, job)
    mult = oracles.weight_multiplicities(*args(job))
    yield "module A2 passes", code == 0 and not checks.check_module(doc, *args(job), mult)
    bad = copy.deepcopy(doc)
    op = next(o for o in bad["operators"]
              if o["op"] == "f" and o["power"] == 1 and not any(o["source"]))
    op["entries"][0][2] += 1
    yield "changed operator entry is caught", bool(checks.check_commutators(bad, args(job)[0]))
    bad = copy.deepcopy(doc)
    bad["weights"][-1]["rank"] += 1
    yield "changed slice rank is caught", bool(checks.check_ranks(bad, mult))

    job = Job("verify", "A3", (1, 1, 1), 4)
    code, doc = _run(mods, directory, job)
    yield "verify A3 passes", code == 0 and not checks.check_report(doc, *args(job))
    bad = copy.deepcopy(doc)
    r11 = next(r for r in bad["relations"] if r["id"] == "R11" and r.get("sign"))
    r11["sign"] = -r11["sign"]
    yield "flipped R11 sign is caught", bool(checks.check_report(bad, *args(job)))

    job = Job("kernel", "D4", (1, 1, 1, 1), 3)
    code, doc = _run(mods, directory, job)
    a = args(job)[0]
    yield "kernel D4 passes", code == 0 and not checks.check_kernel(doc["kernel"], a, job.lam)
    bad = copy.deepcopy(doc["kernel"])
    bad["members"][-1] = [0, 1]
    yield "wrong kernel member is caught", bool(checks.check_kernel(bad, a, job.lam))

    job = Job("commutator-signs", "A3", (1, 1, 1), 4)
    code, doc = _run(mods, directory, job)
    yield "commutator-signs A3 passes", code == 0 and not checks.check_signs(doc, *args(job))
    doc["signs"][0]["sign"] *= -1
    yield "flipped commutator sign is caught", bool(checks.check_signs(doc, *args(job)))

    job = Job("word", "A3", (1, 1, 1), 4, "S2^2", (1,))
    code, doc = _run(mods, directory, job)
    mult = oracles.weight_multiplicities(*args(job))
    yield "word S2^2 passes", code == 0 and not checks.check_word(doc, *args(job), (1,), mult)
    yield "word S2^2 is not the identity", bool(checks.check_word(doc, *args(job), (), mult))
    doc["columns"].pop(0)
    yield "missing word column is caught", bool(checks.check_word(doc, *args(job), (1,), mult))


def _pool_cases(mods, directory):
    jobs = []
    for command, diagram, lam, depth, variants in workloads.POOL:
        for word, value in variants or [(None, ())]:
            jobs.append(Job(command, diagram, lam, depth, word, value))
    worker.prepare(jobs, directory)
    per_op, _ = worker.check_sweep(jobs, worker.run_jobs(mods, jobs))
    for job, problems in zip(jobs, per_op):
        yield f"pool: {job.command} {job.diagram} {job.argv[4]} d{job.depth} {job.word or ''}", not problems


def main() -> int:
    mods = worker.import_program()
    failures = 0
    (worker.HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=worker.HERE / "out") as tmp:
        directory = Path(tmp)
        for cases in (_weyl_kac_cases(), _corruption_cases(mods, directory),
                      _pool_cases(mods, directory)):
            for name, ok in cases:
                failures += not ok
                print(f"{'ok  ' if ok else 'FAIL'} {name}")
    print(f"selftest: {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
