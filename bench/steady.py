"""Run one workload with seeds 1 to --runs, each run as long as
BENCHMARK.json's run_seconds, and show how far each end-to-end metric spreads.

    python3 bench/steady.py --workload exact-ladder --runs 10

For every metric it prints the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`), the spread (q3 - q1) / median and the
metric's bound from BENCHMARK.json. A spread under a third of the bound is
the target the bounds were set against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    results = []
    for seed in range(1, args.runs + 1):
        result = run_once(args.workload, seed, spec["run_seconds"], 0)
        results.append(result)
        share = result["failed"] / result["attempted"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} ({share:.6f})", flush=True)

    print(f"\n{'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s} {'ok':>4s}")
    worst = 0.0
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        ok = spread <= metric["bound"] / 3
        if metric["name"] != "setup_s":
            worst = max(worst, spread / metric["bound"])
        print(f"{metric['name']:16s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {metric['bound']:6.2f} {'yes' if ok else 'NO':>4s}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"\nfailed shares: {sorted(shares)}; all correct: "
          f"{all(r['correct'] for r in results)}; worst spread/bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
