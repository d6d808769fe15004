#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --smoke

It builds the benchmark executable and the `stenso` CLI from source with
dune (into `_build`, dune's shared cache disabled, temporary files kept
in the checkout), runs one workload and relays its output.  The last line of standard output is the JSON result
(`correct`, `attempted`, `failed`, `metrics`): the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
The exit code is 0 only when the build succeeded, every output passed its
correctness check and the result carries exactly the declared metrics.
`--workload all` runs every workload untraced and then traced, printing
every end-to-end and per-layer metric.

`--smoke` is the benchmark's own test: every workload, traced and
untraced, on a few items for one second each, checking that every
declared metric is printed with its unit and that perfbench/manifest.json
describes every workload and per-layer metric.

Scratch files and cross-run state (the untraced run's exact results,
which the traced run and the next run compare against, and the traced
runs' NDJSON span files) live in `.perfbench/` in the checkout.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading

BENCH_EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
CLI_EXE = os.path.join("_build", "default", "bin", "stenso_cli.exe")
STATE = ".perfbench"
RUN_TIMEOUT = 170.0
BUILD_TIMEOUT = 850.0

# A few fast items per workload for the smoke mode.
SMOKE_ONLY = {
    "synth_cold": "log_exp_1,sum_sum,softmax_vec",
    "tiered_cold": "log_exp_1,sum_sum,synth_12",
    "serve_warm": "log_exp_1,sum_sum,softmax_vec",
    "vm_kernels": "saxpy,sum_sq,softmax_vec",
}


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def sandbox_env():
    """The environment for the build and the benchmark: temporary files
    (the compiler's included), caches and the stenso store default all
    point into the checkout's state directory."""
    root = os.path.abspath(STATE)
    for d in ("tmp", "cache"):
        os.makedirs(os.path.join(root, d), exist_ok=True)
    return dict(os.environ, DUNE_CACHE="disabled",
                TMPDIR=os.path.join(root, "tmp"),
                XDG_CACHE_HOME=os.path.join(root, "cache"),
                STENSO_CACHE_DIR=os.path.join(root, "cache", "stenso"))


def build():
    """Build the benchmark and the CLI; exit 1 if that is impossible."""
    for need in ("dune-project", os.path.join("lib", "core", "dune")):
        if not os.path.exists(need):
            die(f"{need} not found: run from the root of a repository checkout")
    dune = shutil.which("dune")
    if dune is None:
        die("dune not found on PATH")
    env = sandbox_env()
    try:
        r = subprocess.run(
            [dune, "build", "--root", ".", "--display", "quiet",
             "./perfbench/bench.exe", "./bin/stenso_cli.exe"],
            env=env, timeout=BUILD_TIMEOUT, stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if r.returncode != 0:
        die(f"build failed (exit {r.returncode})")


def run_bench(args, state, echo=True):
    """Run the benchmark executable in its own process group (it may
    start a daemon) and relay its output.  Returns (exit code, lines)."""
    cmd = [BENCH_EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state", state, "--cli", CLI_EXE]
    if args.only:
        cmd += ["--only", args.only]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=sandbox_env(), start_new_session=True)

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    timer = threading.Timer(RUN_TIMEOUT, kill_group)
    timer.start()
    lines = []
    try:
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
            if echo:
                sys.stdout.write(line)
                sys.stdout.flush()
        code = proc.wait()
    finally:
        timer.cancel()
        kill_group()  # anything the benchmark left behind
    return code, lines


def check_result(line, declared):
    """Problems with a result line against the declared metrics."""
    try:
        res = json.loads(line)
    except (json.JSONDecodeError, TypeError):
        return ["last line is not a JSON result"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(res)}")
        return problems
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    metrics = res["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    for name in sorted(set(want) - set(metrics)):
        problems.append(f"missing metric {name}")
    for name in sorted(set(metrics) - set(want)):
        problems.append(f"undeclared metric {name}")
    for name, m in metrics.items():
        if name in want and m.get("unit") != want[name]:
            problems.append(f"{name}: unit {m.get('unit')!r}, want {want[name]!r}")
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name}: value is not a number")
    return problems


def declared_metrics(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def main_run(args):
    spec = load_json("BENCHMARK.json")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        die(f"unknown workload {args.workload}")
    build()
    # "all": every workload untraced then traced, i.e. every end-to-end
    # and every per-layer metric, from one command.
    runs = ([(args.workload, args.trace)] if args.workload != "all"
            else [(n, t) for n in names for t in (0, 1)])
    status = 0
    for name, trace in runs:
        run_args = argparse.Namespace(workload=name, seed=args.seed,
                                      seconds=args.seconds, trace=trace,
                                      only=None)
        code, lines = run_bench(run_args, STATE)
        last = lines[-1] if lines else ""
        problems = check_result(last, declared_metrics(spec, trace))
        if problems:
            print("perfbench: invalid result: " + "; ".join(problems))
            code = code or 1
        status = status or code
    return status


def main_smoke(args):
    spec = load_json("BENCHMARK.json")
    manifest = load_json(os.path.join("perfbench", "manifest.json"))
    failures = []
    for w in spec["workloads"]:
        if w["name"] not in manifest["workloads"]:
            failures.append(f"manifest.json does not describe workload {w['name']}")
    for m in spec["per_layer"]:
        if m["name"] not in manifest["per_layer"]:
            failures.append(f"manifest.json does not map per-layer metric {m['name']}")
    build()
    state = os.path.join(STATE, "smoke")
    for w in spec["workloads"]:
        for trace in (0, 1):
            run_args = argparse.Namespace(
                workload=w["name"], seed=args.seed, seconds=1, trace=trace,
                only=SMOKE_ONLY.get(w["name"]))
            code, lines = run_bench(run_args, state, echo=False)
            last = lines[-1] if lines else ""
            problems = check_result(last, declared_metrics(spec, trace))
            if code != 0:
                problems.append(f"exit code {code}")
            if trace and not any(l.startswith("ledger ") for l in lines):
                problems.append("no ledger line")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"smoke {w['name']} trace={trace}: {status}")
            failures += [f"{w['name']} trace={trace}: {p}" for p in problems]
    if failures:
        print(f"smoke: {len(failures)} problems")
        return 1
    print("smoke: every workload printed every declared metric with its unit")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="a workload of BENCHMARK.json, or all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=5)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every workload briefly and check its metrics")
    args = p.parse_args()
    if args.smoke:
        return main_smoke(args)
    if not args.workload:
        p.error("--workload is required (or --smoke)")
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
