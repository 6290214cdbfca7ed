#!/usr/bin/env python3
"""Run the full verification suite for the rank-10 diagram (E10 shape),
lambda = all-ones, at depth 4, and write a JSON artifact.

Usage: python3 scripts/run_e10_suite.py [output_dir]
"""

import json
import pathlib
import sys
import time

from kmgroups.cartan import e_gcm
from kmgroups.verifier import verify_all
from kmgroups.weightmod import DominantWeight, build_module


def main() -> int:
    out_dir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "artifacts")
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    module = build_module(e_gcm(10), DominantWeight((1,) * 10), 4)
    report = verify_all(module)
    payload = report.to_json()
    payload["elapsed_seconds"] = round(time.time() - t0, 2)
    path = out_dir / "e10_depth4.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    status = "ok" if report.all_verified else "FAILED"
    print(
        f"E10 depth 4: {len(report.results)} instances, {status}, "
        f"{payload['elapsed_seconds']}s -> {path}"
    )
    return 0 if report.all_verified else 3


if __name__ == "__main__":
    sys.exit(main())
