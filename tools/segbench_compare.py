#!/usr/bin/env python3
"""Alternating parent/change pairs of segbench runs, judged by the gain and bound rules.

    python3 tools/segbench_compare.py PARENT_TREE CHANGE_TREE \\
        --workload wire-stream [--pairs 10] [--seconds 25] [--seed N]
    python3 tools/segbench_compare.py --selftest

Each tree is a source checkout; the parent can be a `git worktree` or a
`git archive` copy. Pair i runs `python3 segbench/run.py --workload W
--seconds S --trace 0 [--seed N]` in both trees, the parent first in even
pairs and the change first in odd ones, so a drift of the host lands on
both sides alike. A run that exits non-zero, is not `correct` or reports
`failed` > 0 is listed, left out of the statistics, and makes the tool
exit 1.

For each end-to-end metric of the parent's BENCHMARK.json it prints:
  - each side's median and quartiles over its counted runs
    (statistics.quantiles, method="inclusive");
  - "better in k/n" over the pairs whose two runs both count, where a tie
    counts for neither side;
  - whether the gain rule holds: k >= 0.9 n, and the change's median
    better than the parent's by more than the parent's interquartile
    spread;
  - whether the change's median is worse than the parent's by more than
    the metric's `bound`, a share of the parent's median.

--selftest checks these rules on fixed numbers and runs nothing.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

GAIN_SHARE = 0.9


def quartiles(values):
    """(first quartile, median, third quartile) of `values`."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def is_better(change, parent, higher):
    return change > parent if higher else change < parent


def judge(parent_runs, change_runs, pairs, higher, bound):
    """The rules for one metric. `parent_runs` and `change_runs` are each
    side's counted values, `pairs` the (parent, change) values of the pairs
    whose two runs both count."""
    p_q1, p_median, p_q3 = quartiles(parent_runs)
    c_q1, c_median, c_q3 = quartiles(change_runs)
    wins = sum(1 for parent, change in pairs if is_better(change, parent, higher))
    spread = p_q3 - p_q1
    gain = (len(pairs) > 0 and wins >= GAIN_SHARE * len(pairs)
            and is_better(c_median, p_median, higher) and abs(c_median - p_median) > spread)
    limit = p_median * (1 - bound if higher else 1 + bound)
    over_bound = c_median < limit if higher else c_median > limit
    return {
        "parent": (p_q1, p_median, p_q3),
        "change": (c_q1, c_median, c_q3),
        "wins": wins,
        "pairs": len(pairs),
        "gain": gain,
        "over_bound": over_bound,
    }


def run_problem(returncode, result):
    """Why a run is left out of the statistics, or None when it counts."""
    if returncode != 0:
        return "exited with %d" % returncode
    if result is None:
        return "printed no JSON result"
    if not result.get("correct", False):
        return "not correct"
    if result.get("failed", 0) > 0:
        return "failed %s" % result["failed"]
    return None


def run_once(tree, args):
    command = [sys.executable, "segbench/run.py", "--workload", args.workload,
               "--seconds", str(args.seconds), "--trace", "0"]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    result = None
    lines = done.stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return run_problem(done.returncode, result), result


def fmt(value):
    return "%.6g" % value


def fmt_quartiles(q1_median_q3):
    q1, median, q3 = q1_median_q3
    return "%s [%s, %s]" % (fmt(median), fmt(q1), fmt(q3))


def metric_value(result, name):
    """A counted run's value of `name`; None for a run left out."""
    if result is None:
        return None
    return result["metrics"].get(name, {}).get("value")


def compare(args):
    trees = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    metrics = json.loads((trees["parent"] / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"parent": [], "change": []}  # per pair: the result, or None when left out
    problems = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            problem, result = run_once(trees[side], args)
            if problem is not None:
                problems.append("pair %d %s: %s" % (i + 1, side, problem))
                result = None
            runs[side].append(result)
            values = "" if result is None else " ".join(
                "%s=%s" % (m["name"], fmt(result["metrics"][m["name"]]["value"]))
                for m in metrics if m["name"] in result["metrics"])
            print("pair %d %s: %s" % (i + 1, side, problem or values), file=sys.stderr, flush=True)

    print("workload %s, %d pairs of %s s, seed %s" %
          (args.workload, args.pairs, args.seconds, args.seed if args.seed is not None else "default"))
    print("%-18s %-40s %-40s %-8s %-5s %s" %
          ("metric", "parent median [q1, q3]", "change median [q1, q3]", "better", "gain", "over bound"))
    for metric in metrics:
        name = metric["name"]
        parent = [metric_value(r, name) for r in runs["parent"]]
        change = [metric_value(r, name) for r in runs["change"]]
        parent_runs = [v for v in parent if v is not None]
        change_runs = [v for v in change if v is not None]
        if not parent_runs or not change_runs:
            print("%-18s no counted runs on one side" % name)
            continue
        pairs = [(p, c) for p, c in zip(parent, change) if p is not None and c is not None]
        verdict = judge(parent_runs, change_runs, pairs, metric["better"] == "higher",
                        metric["bound"])
        print("%-18s %-40s %-40s %-8s %-5s %s" %
              (name, fmt_quartiles(verdict["parent"]), fmt_quartiles(verdict["change"]),
               "%d/%d" % (verdict["wins"], verdict["pairs"]), "yes" if verdict["gain"] else "no",
               "YES (bound %s)" % metric["bound"] if verdict["over_bound"] else "no"))
    if problems:
        print("runs left out of the statistics:")
        for problem in problems:
            print("  " + problem)
        return 1
    return 0


def check(ok):
    if not ok:
        line = sys._getframe(1).f_lineno
        raise SystemExit("segbench_compare selftest: the check on line %d failed" % line)


def selftest():
    # Quartiles, inclusive method: 1..9 -> 3, 5, 7.
    check(quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9]) == (3.0, 5.0, 7.0))
    check(quartiles([4.0]) == (4.0, 4.0, 4.0))

    # A clear gain on a lower-better metric: better in 10/10, medians 20
    # apart against a parent spread of 4.5.
    parent = [100.0 + i for i in range(10)]
    change = [80.0 + i for i in range(10)]
    verdict = judge(parent, change, list(zip(parent, change)), False, 0.25)
    check((verdict["wins"], verdict["pairs"]) == (10, 10))
    check(verdict["gain"] and not verdict["over_bound"])

    # Ties count for neither side.
    parent = [5.0] * 10
    change = [5.0] * 9 + [4.0]
    verdict = judge(parent, change, list(zip(parent, change)), False, 0.25)
    check(verdict["wins"] == 1 and not verdict["gain"])

    # Better in 9/10 meets the share; medians closer than the parent's
    # interquartile spread do not.
    parent = [100.0, 110.0, 120.0, 130.0, 140.0, 150.0, 160.0, 170.0, 180.0, 190.0]
    change = [p - 1.0 for p in parent[:9]] + [200.0]
    verdict = judge(parent, change, list(zip(parent, change)), False, 0.25)
    check(verdict["wins"] == 9 and not verdict["gain"])
    change = [p - 60.0 for p in parent[:9]] + [200.0]
    check(judge(parent, change, list(zip(parent, change)), False, 0.25)["gain"])
    # Better in 8/10 misses it, however far apart the medians.
    change = [p - 60.0 for p in parent[:8]] + [200.0, 200.0]
    check(not judge(parent, change, list(zip(parent, change)), False, 0.25)["gain"])

    # A higher-better metric: the change must read higher.
    parent = [1.0e6 + 1.0e3 * i for i in range(10)]
    change = [p * 1.2 for p in parent]
    verdict = judge(parent, change, list(zip(parent, change)), True, 0.25)
    check(verdict["gain"] and not verdict["over_bound"])
    verdict = judge(change, parent, list(zip(change, parent)), True, 0.25)
    check(verdict["wins"] == 0 and not verdict["gain"] and not verdict["over_bound"])

    # The bound is a share of the parent's median, in the metric's worse
    # direction: 100 -> 126 is over a 0.25 bound, 100 -> 124 is not.
    check(judge([100.0], [126.0], [(100.0, 126.0)], False, 0.25)["over_bound"])
    check(not judge([100.0], [124.0], [(100.0, 124.0)], False, 0.25)["over_bound"])
    check(judge([100.0], [74.0], [(100.0, 74.0)], True, 0.25)["over_bound"])
    check(not judge([100.0], [76.0], [(100.0, 76.0)], True, 0.25)["over_bound"])

    # Runs left out: a non-zero exit, no result, not correct, failed > 0.
    good = {"correct": True, "failed": 0}
    check(run_problem(0, good) is None)
    check(run_problem(1, good) == "exited with 1")
    check(run_problem(0, None) == "printed no JSON result")
    check(run_problem(0, {"correct": False, "failed": 0}) == "not correct")
    check(run_problem(0, {"correct": True, "failed": 2}) == "failed 2")
    print("segbench_compare selftest ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", help="source tree of the parent commit")
    parser.add_argument("change", nargs="?", help="source tree of the change")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.parent is None or args.change is None or args.workload is None:
        parser.error("PARENT_TREE, CHANGE_TREE and --workload are required")
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
