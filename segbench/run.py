#!/usr/bin/env python3
"""Seeded Segugio benchmark: build, set up, replay, report.

Run from the repository root:

    python3 segbench/run.py --workload wire-stream --seed 7 --seconds 10 --trace 0

It builds the benchmark binary (and the Segugio libraries it links) from
source into .bench_build/, runs the seeded setup several times (setup_s is
the fastest of them), replays the generated inputs for --seconds through
the program, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ledger.
segbench/README.md defines every workload and metric.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("wire-stream", "oocore-day")
DEFAULT_SEED = 20150622  # sim::ScenarioConfig::bench().seed
SETUP_REPEATS = 3
BUILD_DIR = Path(".bench_build")


def log(message):
    print(message, file=sys.stderr, flush=True)


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env(data_dir):
    env = dict(os.environ)
    # Knobs the program reads from the environment would change what is
    # measured; the benchmark pins its own settings instead.
    for knob in ("SEG_THREADS", "SEG_GRAPH_BACKING", "SEG_NUMA_POLICY"):
        env.pop(knob, None)
    env["TMPDIR"] = str(data_dir)
    return env


def build(root):
    """Configures and builds the benchmark binary; returns its path."""
    bench_dir = Path(__file__).resolve().parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        log("segbench: no Segugio sources (src/CMakeLists.txt) under " + str(root))
        return None
    build_dir = BUILD_DIR / "segbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    compile_cmd = ["cmake", "--build", str(build_dir), "--target", "segbench",
                   "-j", str(usable_cpus())]
    if subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return (build_dir / "segbench").resolve()


def setup(binary, workload, seed, data_dir):
    """One seeded setup; returns (seconds, input digest)."""
    # Flush earlier writes first, so their write-back does not land in
    # this setup's time.
    os.sync()
    start = time.perf_counter()
    done = subprocess.run(
        [str(binary), "setup", "--workload", workload, "--seed", str(seed),
         "--dir", str(data_dir)],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=150,
        env=child_env(data_dir))
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError("setup exited with %d" % done.returncode)
    digest = next(line.split()[1] for line in done.stdout.splitlines()
                  if line.startswith("input_digest "))
    return seconds, digest


def replay(binary, workload, data_dir, seconds, trace):
    done = subprocess.run(
        [str(binary), "run", "--workload", workload, "--dir", str(data_dir),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=seconds + 150,
        env=child_env(data_dir))
    if done.returncode != 0:
        raise RuntimeError("workload exited with %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    binary = build(root)
    if binary is None:
        log("segbench: build failed")
        return 1

    data_dir = (BUILD_DIR / "data" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid())))
    data_dir = data_dir.resolve()
    shutil.rmtree(data_dir, ignore_errors=True)
    try:
        setups = [setup(binary, args.workload, args.seed, data_dir)
                  for _ in range(SETUP_REPEATS)]
        os.sync()
        result = replay(binary, args.workload, data_dir, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, StopIteration, ValueError) as error:
        log("segbench: %s" % error)
        return 1
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    setup_seconds = [s for s, _ in setups]
    digests = {d for _, d in setups}
    print("# setup_s samples: " + " ".join("%.3f" % s for s in setup_seconds))
    print("# input_digest: " + " ".join(sorted(digests)))
    if len(digests) != 1:
        log("segbench: one seed gave different inputs across setups")
        result["correct"] = False
    if args.trace == 0:
        # Like the timing figures of the replay, the fastest repeat: the
        # host's other tenants only ever slow a setup down.
        result["metrics"]["setup_s"] = {"value": min(setup_seconds), "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
