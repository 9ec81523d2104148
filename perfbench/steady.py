"""Run workloads repeatedly and show how steady each metric is.

    python3 perfbench/steady.py --runs 10 [--workloads catalogue,cli] [--first-seed 1]

Runs ``run.py`` once per seed (first-seed, first-seed + 1, ...) for each
workload, one run at a time, and prints for every end-to-end metric its
median, first and third quartiles and the spread (third minus first
quartile, as a share of the median), next to the metric's bound from
``BENCHMARK.json``, plus the share of failed operations.  Raw results go to
``perfbench/out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import harness


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(harness.WORKLOADS))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(harness.OUT, exist_ok=True)
    worst = 0.0
    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(harness.HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, cwd=harness.ROOT,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        with open(os.path.join(harness.OUT, f"steady-{workload}.json"), "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: {args.runs} runs, correct {all(r['correct'] for r in results)}, failed share {sorted(shares)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:12s} median {q2:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  spread {spread:6.3f}  bound {bound}")
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
