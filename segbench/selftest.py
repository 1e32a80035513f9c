#!/usr/bin/env python3
"""Checks that the benchmark's inputs are a function of the seed.

Run from the repository root:

    python3 segbench/selftest.py

For each workload it runs the seeded setup twice with one seed and once
with another, and fails unless the first two input digests are equal and
the third differs. The digest covers every file setup writes: captures
or binlog, history stores, label sets, ground truth and reference
digests. Exits 0 when every check holds.
"""

import shutil
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (build and setup helpers of run.py)

SEED = 1
OTHER_SEED = 2


def main():
    binary = run.build(Path.cwd())
    if binary is None:
        print("selftest: build failed", file=sys.stderr)
        return 1
    failures = 0
    for workload in run.WORKLOADS:
        data_dir = (run.BUILD_DIR / "data" / ("selftest-" + workload)).resolve()
        digests = []
        try:
            for seed in (SEED, SEED, OTHER_SEED):
                shutil.rmtree(data_dir, ignore_errors=True)
                digests.append(run.setup(binary, workload, seed, data_dir)[1])
        finally:
            shutil.rmtree(data_dir, ignore_errors=True)
        ok = digests[0] == digests[1] and digests[0] != digests[2]
        failures += 0 if ok else 1
        print("%-12s seed %d: %s %s  seed %d: %s  %s" % (
            workload, SEED, digests[0], digests[1], OTHER_SEED, digests[2],
            "ok" if ok else "FAIL"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
