"""Benchmark of the kmgroups pipeline.  See perfbench/README.md.

    python3 perfbench/run.py --workload rank4-d6 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --selftest

Each round of a workload runs in a fresh single-threaded worker process
(worker.py).  Rounds repeat while one more would end within --seconds of
timed work, and until their number is odd.  Extra set-up-only workers make at least SETUPS
set-up samples.  The last stdout line is one JSON object: with --trace 0
the end-to-end metrics (medians over rounds), with --trace 1 the per-layer
metrics from a traced run.  The exit code is non-zero if any operation
failed its check or a worker could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import UNITS as LAYER_UNITS

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUPS = 5
WORKER_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "module_s": "s",
    "peak_rss_mb": "MB",
    "columns_compared": "count",
}


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, directory: Path, *extra: str) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--dir", str(directory),
           "--spawned-at", repr(time.monotonic()), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{workload} worker ran over {WORKER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def _more(rounds: list, seconds: float) -> bool:
    """Start another round while one more of the mean length still ends
    within the budget, and always to an odd count, so that each median is
    a measured value."""
    done = sum(r["run_s"] for r in rounds)
    return len(rounds) % 2 == 0 or done + done / len(rounds) <= seconds


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    base = OUT / workload
    shutil.rmtree(base, ignore_errors=True)
    rounds = []
    while _more(rounds, seconds):
        n = len(rounds)
        extra = ["--trace", str(base / f"trace-seed{seed}-round{n}.json")] if trace else []
        rounds.append(spawn(workload, seed, base / f"round{n}", *extra))
    setups = [r["setup_s"] for r in rounds]
    while not trace and len(setups) < SETUPS:
        setup = spawn(workload, seed, base / f"setup{len(setups)}", "--setup-only")
        setups.append(setup["setup_s"])
    if trace:
        metrics = {m: statistics.median(r["layers"][m] for r in rounds) for m in LAYER_UNITS}
        units = LAYER_UNITS
    else:
        metrics = {m: statistics.median(r[m] for r in rounds) for m in END_TO_END}
        metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END
    return {
        "correct": all(r["failed"] == 0 for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        "rounds": len(rounds),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=workloads.NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="check the checkers and run every pool variant once")
    args = p.parse_args(argv)
    if args.selftest:
        import selftest

        return selftest.main()
    if not args.workload:
        p.error("--workload or --selftest is required")
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        res = results[name]
        print(f"{name}: {res['rounds']} round(s), attempted {res['attempted']}, "
              f"failed {res['failed']}")
        for m, v in res["metrics"].items():
            print(f"  {m:34s} {v['value']:>14.6g} {v['unit']}")
    for name in names:
        res = results[name]
        line = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
        if len(names) > 1:
            line = {"workload": name, **line}
        print(json.dumps(line))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
