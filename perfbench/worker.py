"""One round of one workload, run in a fresh process by run.py.

Set-up (imports, input files, a tiny build that pulls in sympy's lazy
import) is timed from the moment the parent spawned this process.  Then the
timed part runs, the process's peak resident memory is read, and the
outputs are checked against oracles.py.  The last line of stdout is a JSON
object for run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

import checks  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Job, lam_text  # noqa: E402

MODULES = ("cartan", "cli", "weightmod", "groupgen", "verifier", "linalg")


def import_program() -> dict:
    """Import kmgroups from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import importlib

    mods = {f"kmgroups.{m}": importlib.import_module(f"kmgroups.{m}") for m in MODULES}
    where = Path(mods["kmgroups.cli"].__file__).resolve().parent
    if where != SRC / "kmgroups":
        raise ImportError(f"kmgroups was imported from {where}, not {SRC}")
    return mods


class BuildTimer:
    """Times every build_module call the CLI makes; optionally keeps the
    module for the checks and for the verification that follows."""

    def __init__(self, cli, keep: bool):
        self.seconds = 0.0
        self.modules = []
        build = cli.build_module

        def timed(*args, **kwargs):
            t = time.perf_counter()
            module = build(*args, **kwargs)
            self.seconds += time.perf_counter() - t
            if keep:
                self.modules.append(module)
            return module

        cli.build_module = timed


def write_gcm(directory: Path, name: str) -> str:
    path = directory / f"{name}.json"
    if not path.exists():
        path.write_text(json.dumps({"matrix": oracles.cartan_matrix(name)}))
    return str(path)


def make_jobs(workload: str, seed: int, directory: Path) -> list[Job]:
    if workload == "rank4-d6":
        jobs = [Job("verify", *workloads.RANK4)]
    elif workload == "e10-d4":
        jobs = [Job("kernel", *workloads.E10)]
    else:
        jobs = workloads.cli_sweep_jobs(seed)
    return prepare(jobs, directory)


def prepare(jobs: list[Job], directory: Path) -> list[Job]:
    """Write the GCM files and fill in each job's argv and output path."""
    for n, job in enumerate(jobs):
        job.out = str(directory / f"job{n:02d}-{job.command}-{job.diagram}.json")
        job.argv = [
            job.command, "--gcm", write_gcm(directory, job.diagram),
            "--lambda", lam_text(job.lam), "--depth", str(job.depth),
            "--out", job.out,
        ]
        if job.word:
            job.argv += ["--word", job.word]
    return jobs


# -- timed part ---------------------------------------------------------------


def run_jobs(mods, jobs) -> list:
    """Run each job through cli.main; returns its exit code or the error."""
    main = mods["kmgroups.cli"].main
    outcomes = []
    for job in jobs:
        try:
            outcomes.append(main(job.argv))
        except Exception:  # a crash fails this job; the sweep goes on
            outcomes.append(traceback.format_exc(limit=2))
    return outcomes


def verify_sample(mods, module, instances, kernel_path: Path, report_path: Path):
    """e10-d4 after its kernel job: verify the sampled instances on the
    module the job built and write them with the kernel as one report."""
    verifier = mods["kmgroups.verifier"]
    results = [verifier.verify_relation(module, rid, nodes) for rid, nodes in instances]
    results.sort(key=lambda r: (int(r.id[1:]), r.nodes))  # the program's order
    kernel = json.loads(kernel_path.read_text())["kernel"]
    report = verifier.VerificationReport(
        module.gcm, module.lam, module.depth, results, kernel
    )
    report_path.write_text(json.dumps(report.to_json(), indent=2) + "\n")


# -- checks ---------------------------------------------------------------------


def _load(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        return exc


def check_job(job: Job, outcome, doc, mult) -> list[str]:
    if outcome != 0:
        return [f"exit {outcome}"]
    if isinstance(doc, Exception):
        return [f"no output: {doc}"]
    a = oracles.cartan_matrix(job.diagram)
    args = (a, job.lam, job.depth)
    if job.command == "verify":
        return checks.check_report(doc, *args)
    if job.command == "module":
        return checks.check_module(doc, *args, mult)
    if job.command == "kernel":
        return checks.check_head(doc, job.lam, job.depth) + checks.check_kernel(
            doc["kernel"], a, job.lam
        )
    if job.command == "commutator-signs":
        return checks.check_signs(doc, *args)
    return checks.check_word(doc, *args, job.word_value, mult)


def check_pipeline(mods, jobs, outcomes, timer, report_path, instances):
    """rank4-d6 and e10-d4: one operation for the module, one per relation
    instance, one for the kernel and the rest of the report."""
    job = jobs[0]
    a = oracles.cartan_matrix(job.diagram)
    keys = instances if instances is not None else oracles.relation_instances(a)
    doc = _load(report_path)
    if outcomes[0] != 0 or isinstance(doc, Exception) or not timer.modules:
        failure = [f"pipeline: exit {outcomes[0]}, report {doc!r:.200}"]
        return [failure] * (len(keys) + 2), 0
    module_doc = mods["kmgroups.weightmod"].module_to_json(timer.modules[-1])
    mult = oracles.weight_multiplicities(a, job.lam, job.depth)
    per_op = [checks.check_module(module_doc, a, job.lam, job.depth, mult)]
    by_instance = checks.check_relations(doc["relations"], a, keys)
    per_op += [by_instance[key] for key in keys]
    per_op.append(
        by_instance[None]
        + checks.check_head(doc, job.lam, job.depth)
        + checks.check_kernel(doc["kernel"], a, job.lam)
    )
    return per_op, sum(r.get("columns", 0) for r in doc["relations"])


def check_sweep(jobs, outcomes):
    per_op, columns = [], 0
    mults = {}
    for job, outcome in zip(jobs, outcomes):
        doc = _load(job.out)
        key = (job.diagram, job.lam, job.depth)
        if key not in mults and job.command in ("module", "word"):
            mults[key] = oracles.weight_multiplicities(
                oracles.cartan_matrix(job.diagram), job.lam, job.depth
            )
        try:
            problems = check_job(job, outcome, doc, mults.get(key))
        except (KeyError, TypeError, ValueError) as exc:
            problems = [f"malformed output: {exc!r}"]
        label = f"{job.command} {job.diagram} {lam_text(job.lam)} d{job.depth}"
        per_op.append([f"{label}: {p}" for p in problems])
        if job.command == "verify" and not problems:
            columns += sum(r.get("columns", 0) for r in doc["relations"])
    return per_op, columns


# -- main ------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True, help="directory for this round's files")
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() in the parent just before the spawn")
    p.add_argument("--trace", default=None, help="write spans and layer metrics here")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    mods = import_program()
    directory = Path(args.dir)
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    jobs = make_jobs(args.workload, args.seed, directory)
    instances = workloads.e10_instances(args.seed) if args.workload == "e10-d4" else None
    weightmod = mods["kmgroups.weightmod"]
    weightmod.build_module(  # sympy is imported on the first HNF
        mods["kmgroups.cartan"].gcm_from_json({"matrix": oracles.cartan_matrix("A2")}),
        weightmod.DominantWeight((1, 1)), 2,
    )
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    pipeline = args.workload != "cli-sweep"
    timer = BuildTimer(mods["kmgroups.cli"], keep=pipeline)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(mods)
    report_path = directory / "report.json"

    t0 = time.perf_counter()
    outcomes = run_jobs(mods, jobs)
    if instances is not None and outcomes[0] == 0:
        verify_sample(mods, timer.modules[-1], instances, Path(jobs[0].out), report_path)
    run_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if pipeline:
        path = report_path if instances is not None else Path(jobs[0].out)
        per_op, columns = check_pipeline(mods, jobs, outcomes, timer, path, instances)
    else:
        per_op, columns = check_sweep(jobs, outcomes)
    failed = [p for p in per_op if p]
    for problems in failed[:10]:
        print("FAILED: " + "; ".join(problems[:3]), file=sys.stderr)
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "module_s": timer.seconds,
        "peak_rss_mb": peak_rss_mb,
        "columns_compared": columns,
        "attempted": len(per_op),
        "failed": len(failed),
    }
    if tracer is not None:
        result["layers"] = tracer.write(
            args.trace, {"workload": args.workload, "seed": args.seed, **result}
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
