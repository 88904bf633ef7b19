#!/usr/bin/env python3
"""Repeat the benchmark and report how steady each end-to-end metric is.

Usage (from the repository root):

    python3 perfbench/steady.py WORKLOAD [RUNS] [FIRST_SEED]

Runs `perfbench/run.py --workload WORKLOAD --trace 0` RUNS times (default
10), each with the next seed from FIRST_SEED (default 1), at the
`run_seconds` of BENCHMARK.json. For every end-to-end metric it prints
the median, the quartiles (`statistics.quantiles(values, n=4)`), their
distance as a share of the median, and that share against the metric's
bound.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    workload = sys.argv[1]
    runs = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    first = int(sys.argv[3]) if len(sys.argv) > 3 else 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(first, first + runs):
        cmd = ["python3", os.path.join("perfbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stdout}{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output\n{done.stdout}", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()),
              flush=True)
    print(f"\n{workload}: {runs} runs")
    print(f"{'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}{'iqr/med':>10}{'bound':>8}")
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        share = (q3 - q1) / med
        print(f"{m['name']:<14}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{share:>10.4f}{m['bound']:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
