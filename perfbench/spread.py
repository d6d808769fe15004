#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--runs 10] [--first-seed 1]

Runs `perfbench/run.py` once per seed on each workload (untraced) and
prints, per metric, the median of the runs and the distance between the
first and third quartile as a share of the median (Python's
`statistics.quantiles(values, n=4)`), next to the metric's bound from
BENCHMARK.json.  A spread above a third of its bound is flagged.  Every
result line is also appended to `.perfbench/spread.ndjson`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", help="comma-separated (default: all)")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(".perfbench", exist_ok=True)
    worst = 0.0
    for name in names:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {r.returncode}")
                continue
            with open(os.path.join(".perfbench", "spread.ndjson"), "a",
                      encoding="utf-8") as f:
                f.write(json.dumps({"workload": name, "seed": seed,
                                    "result": json.loads(lines[-1])}) + "\n")
            for k, m in json.loads(lines[-1])["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        print(f"{name} ({args.runs} runs)")
        for k, v in values.items():
            med = statistics.median(v)
            if len(v) < 2 or med == 0:
                continue
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med
            flag = ""
            if k != "setup_s" and spread > bounds[k] / 3:
                flag = "  <-- above a third of its bound"
                worst = max(worst, spread / bounds[k])
            print(f"  {k:22s} median {med:<14.6g} spread {spread:7.4f}"
                  f"  bound {bounds[k]}{flag}")
    return 1 if worst > 0 else 0


if __name__ == "__main__":
    sys.exit(main())
