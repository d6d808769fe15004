#!/usr/bin/env python3
"""Paired benchmark runs of the working tree against a git base.

    python3 scripts/pairs.py BASE [--workloads a,b] [--pairs 10] [--first-seed 1]

Extracts BASE (any git revision) with `git archive` into a temporary
directory, then runs `perfbench/run.py` (untraced, BENCHMARK.json's
`run_seconds`) in alternating pairs, one per seed: on odd seeds the
base runs first, on even seeds the working tree.  Every run's end-to-end
metrics are printed as they come, and per workload and metric the
medians and quartiles (Python's `statistics.quantiles(values, n=4)`) of
both sides, the change of the medians, and in how many pairs the working
tree did better, next to the metric's bound from BENCHMARK.json.

Run it from the root of the checkout.  Both sides build from source in
their own directory; the base's is removed at the end.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile


def run(cwd, workload, seed, seconds):
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=cwd, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit(f"pairs: {workload} seed {seed} in {cwd}: exit {r.returncode}")
    return {k: m["value"] for k, m in json.loads(lines[-1])["metrics"].items()}


def summary(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return statistics.median(values), q[0], q[2]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("base", help="git revision to compare against")
    p.add_argument("--workloads", help="comma-separated (default: all)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base_dir = tempfile.mkdtemp(prefix="stenso-pairs-")
    try:
        archive = subprocess.run(["git", "archive", args.base],
                                 stdout=subprocess.PIPE, check=True).stdout
        subprocess.run(["tar", "-x", "-C", base_dir], input=archive,
                       check=True)
        for name in names:
            runs = {"base": [], "change": []}
            seeds = range(args.first_seed, args.first_seed + args.pairs)
            for seed in seeds:
                order = (["base", "change"] if seed % 2 == 1
                         else ["change", "base"])
                for side in order:
                    cwd = base_dir if side == "base" else "."
                    r = run(cwd, name, seed, spec["run_seconds"])
                    runs[side].append(r)
                    print(f"{name} seed {seed} {side:6s} "
                          + " ".join(f"{k}={v:.6g}" for k, v in r.items()),
                          flush=True)
            print(f"{name} ({args.pairs} pairs, seeds {seeds[0]}-{seeds[-1]})")
            print(f"  {'metric':20s} {'base median [q1, q3]':>32s}"
                  f" {'change median [q1, q3]':>32s} {'change':>8s}"
                  f" {'won':>5s} {'bound':>6s}")
            for k, m in metrics.items():
                b = [r[k] for r in runs["base"]]
                c = [r[k] for r in runs["change"]]
                bm, bq1, bq3 = summary(b)
                cm, cq1, cq3 = summary(c)
                lower = m["better"] == "lower"
                won = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
                rel = (cm - bm) / bm if bm else 0.0
                bs = f"{bm:.6g} [{bq1:.6g}, {bq3:.6g}]"
                cs = f"{cm:.6g} [{cq1:.6g}, {cq3:.6g}]"
                print(f"  {k:20s} {bs:>32s} {cs:>32s} {rel:+8.1%}"
                      f" {won:>2d}/{len(b):<2d} {m['bound']:>6g}")
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
