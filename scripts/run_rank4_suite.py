#!/usr/bin/env python3
"""Run the full verification suite for the rank-4 hyperbolic diagram
(triangle with a pendant vertex), lambda = (1,1,1,1), at depths 4-7.

Writes one verification report JSON per depth (rank4_depth{4,5,6,7}.json)
and prints one status line per depth; exits 3 if any relation fails.

Usage: python3 scripts/run_rank4_suite.py [output_dir]
"""

import json
import pathlib
import sys
import time

from kmgroups.cartan import triangle_with_pendant_gcm
from kmgroups.verifier import verify_all
from kmgroups.weightmod import DominantWeight, build_module


def main() -> int:
    out_dir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "artifacts")
    out_dir.mkdir(parents=True, exist_ok=True)
    gcm = triangle_with_pendant_gcm()
    lam = DominantWeight((1, 1, 1, 1))
    ok = True
    for depth in (4, 5, 6, 7):
        t0 = time.time()
        module = build_module(gcm, lam, depth)
        report = verify_all(module)
        payload = report.to_json()
        payload["elapsed_seconds"] = round(time.time() - t0, 2)
        path = out_dir / f"rank4_depth{depth}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        status = "ok" if report.all_verified else "FAILED"
        print(
            f"depth {depth}: {len(report.results)} instances, {status}, "
            f"{payload['elapsed_seconds']}s -> {path}"
        )
        ok = ok and report.all_verified
    return 0 if ok else 3


if __name__ == "__main__":
    sys.exit(main())
