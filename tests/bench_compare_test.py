#!/usr/bin/env python3
"""Gate for tools/bench_compare.py on fixed run.py-shaped results.

Two sets of runs of one commit must not be flagged; a planted +10% in
align_ms must be flagged as worse (it loses every pair, by more than the
parent's IQR, but inside the 25% bound, so the exit stays 0); +30% is a
REGRESSION and exits 1, as does a run that reported a failure; a -29%
change winning every pair is a gain.
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "bench_compare.py")

# align_ms of ten runs of one commit, and ten more of the same commit.
RUNS_A = [1800, 1790, 1810, 1780, 1820, 1795, 1805, 1815, 1785, 1800]
RUNS_B = [1805, 1795, 1790, 1812, 1798, 1788, 1808, 1802, 1818, 1792]


def run_lines(align_ms, failed=0):
    lines = ["build output that is not JSON"]
    for ms in align_ms:
        metrics = {"align_ms": {"value": ms, "unit": "ms"},
                   "align_cpu_ms": {"value": 3 * ms, "unit": "ms"},
                   "peak_rss_mb": {"value": 23.0, "unit": "MiB"},
                   "setup_s": {"value": 0.05, "unit": "s"}}
        lines.append(json.dumps({"correct": failed == 0, "attempted": 12,
                                 "failed": failed, "metrics": metrics}))
    return "\n".join(lines) + "\n"


def compare(tmp, parent, change):
    paths = []
    for side, text in (("parent", parent), ("change", change)):
        path = os.path.join(tmp, side + ".jsonl")
        with open(path, "w") as f:
            f.write(text)
        paths.append(path)
    out = subprocess.run([sys.executable, TOOL, "--workload", "paper"] + paths,
                         capture_output=True, text=True)
    # metric name -> the flags after its wins/pairs column
    rows = {}
    for line in out.stdout.splitlines():
        tokens = line.split()
        wins = [i for i, t in enumerate(tokens) if t[0].isdigit() and "/" in t]
        if line.startswith("  ") and wins:
            rows[tokens[0]] = tokens[wins[-1]:]
    return out.returncode, rows, out.stdout + out.stderr


def main():
    errors = []

    def check(cond, what, output):
        if not cond:
            errors.append("%s\n%s" % (what, output))

    with tempfile.TemporaryDirectory() as tmp:
        code, rows, out = compare(tmp, run_lines(RUNS_A), run_lines(RUNS_B))
        check(code == 0, "same commit: exit 0", out)
        check(len(rows) == 4 and all(len(f) == 1 for f in rows.values()),
              "same commit: nothing flagged", out)

        planted = [round(ms * 1.10) for ms in RUNS_B]
        code, rows, out = compare(tmp, run_lines(RUNS_A), run_lines(planted))
        check(code == 0, "+10%: inside the bound, exit 0", out)
        check("worse" in rows["align_ms"], "+10%: align_ms flagged", out)
        check("0/10" in rows["align_ms"], "+10%: no pair won", out)

        slow = [round(ms * 1.30) for ms in RUNS_B]
        code, rows, out = compare(tmp, run_lines(RUNS_A), run_lines(slow))
        check(code == 1, "+30%: exit 1", out)
        check("REGRESSION" in rows["align_ms"], "+30%: REGRESSION", out)

        fast = [round(ms * 0.71) for ms in RUNS_B]
        code, rows, out = compare(tmp, run_lines(RUNS_A), run_lines(fast))
        check(code == 0, "-29%: exit 0", out)
        check("gain" in rows["align_ms"] and "10/10" in rows["align_ms"],
              "-29%: a gain winning every pair", out)

        code, rows, out = compare(tmp, run_lines(RUNS_A), run_lines(RUNS_B, failed=1))
        check(code == 1, "failed run: exit 1", out)

    for error in errors:
        print("FAIL:", error)
    print("%d checks failed" % len(errors))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
