#!/usr/bin/env python3
"""Compare perfbench/run.py results of a parent and a change commit.

Usage (run from the repository root):

    python3 tools/bench_compare.py --workload paper parent.jsonl change.jsonl \\
        [--workload large parent2.jsonl change2.jsonl] [--benchmark BENCHMARK.json]

Each file holds the stdout of repeated `run.py` runs of one commit on one
workload; lines that are not a run.py JSON object are skipped, so the
stdout of every run can be appended to the file as it is. Run the two
commits alternately: the i-th parent run and the i-th change run form a
pair.

Per workload and metric it prints each side's median and quartiles
(Q1..Q3), the change in the median, and wins/pairs (pairs where the
change reads better; ties count for neither). Metrics, their direction
and the end-to-end bounds come from BENCHMARK.json. Flags:

  gain         the change wins at least 9 of 10 pairs and its median is
               better by more than the parent's IQR (the claim rule)
  worse        the same rule the other way: the change loses at least 9
               of 10 pairs and its median is worse by more than the
               parent's IQR
  REGRESSION   the median is worse than the parent's by more than the
               metric's bound
  unresolved   the parent's IQR is wider than the bound, so a change
               within the bound cannot be told from noise

Exits 1 on any REGRESSION or on a run that reported failures, else 0.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path):
    """The run.py result objects in `path`, in file order."""
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and "metrics" in record:
                runs.append(record)
    if not runs:
        raise SystemExit("error: no run.py results in %s" % path)
    return runs


def quartiles(values):
    """(Q1, median, Q3) by the inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def side(median, q1, q3):
    return "%10.4g %-22s" % (median, "[%.4g..%.4g]" % (q1, q3))


def compare(name, parent, change, better, bound):
    """One metric: a printable row and whether it is a regression."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    sign = -1 if better == "lower" else 1  # > 0: the change is better
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    gap = sign * (cm - pm)
    iqr = p3 - p1
    flags = []
    if wins >= 0.9 * len(pairs) and gap > iqr:
        flags.append("gain")
    if losses >= 0.9 * len(pairs) and -gap > iqr:
        flags.append("worse")
    regression = bound is not None and -gap > bound * abs(pm)
    if regression:
        flags.append("REGRESSION")
    elif bound is not None and iqr > bound * abs(pm):
        flags.append("unresolved")
    delta = (cm - pm) / abs(pm) * 100 if pm else float("nan")
    row = "  %-22s %s  %s  %+7.1f%%  %2d/%-2d  %s" % (
        name, side(pm, p1, p3), side(cm, c1, c3), delta, wins, len(pairs),
        " ".join(flags))
    return row, regression


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", nargs=3, action="append", required=True,
                        metavar=("NAME", "PARENT", "CHANGE"))
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as f:
        benchmark = json.load(f)
    specs = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}

    failed = False
    for name, parent_path, change_path in args.workload:
        parent, change = load_runs(parent_path), load_runs(change_path)
        print("%s: %d parent runs, %d change runs" % (name, len(parent), len(change)))
        for label, runs in (("parent", parent), ("change", change)):
            bad = sum(r.get("failed", 0) for r in runs)
            if bad or not all(r.get("correct", True) for r in runs):
                print("  %s: %d failed operations" % (label, bad))
                failed = True
        print("  %-22s %10s %-22s  %10s %-22s  %8s  %5s" % (
            "metric", "parent", "[Q1..Q3]", "change", "[Q1..Q3]", "median", "wins"))
        for metric, spec in specs.items():
            p = [r["metrics"][metric]["value"] for r in parent if metric in r["metrics"]]
            c = [r["metrics"][metric]["value"] for r in change if metric in r["metrics"]]
            if not p or not c:
                continue
            row, regression = compare(metric, p, c, spec["better"], spec.get("bound"))
            print(row)
            failed |= regression
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
