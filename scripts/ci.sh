#!/bin/sh
# CI entry point: build, run the full test suite, then smoke-check that
# the parallel engine is byte-identical to the sequential one on four
# benchmarks through the actual CLI (sum_stack and synth_8 go deep
# enough that the specs on the search path matter).
set -eu
cd "$(dirname "$0")/.."

dune build
dune runtest

smoke() {
  dune exec --no-build bin/stenso_cli.exe -- suite \
    --benchmarks diag_dot,common_factor,sum_stack,synth_8 \
    --cost-estimator flops --jobs "$1" --quiet
}

seq_out=$(smoke 1)
par_out=$(smoke 4)
if [ "$seq_out" != "$par_out" ]; then
  echo "FAIL: parallel suite output differs from sequential" >&2
  printf 'jobs=1:\n%s\njobs=4:\n%s\n' "$seq_out" "$par_out" >&2
  exit 1
fi
echo "parallel-vs-sequential smoke check passed"

# Telemetry smoke check: a traced suite run must produce a suite report
# that validates against the stenso.suite-report/1 schema (the format
# the BENCH_*.json performance trajectory is archived in), and a traced
# optimize must produce parseable NDJSON.
report=$(mktemp)
scratch=$(mktemp -d)
trap 'rm -f "$report"; rm -rf "$scratch"; [ -n "${serve_pid:-}" ] && kill "$serve_pid" 2>/dev/null || true' EXIT
dune exec --no-build bin/stenso_cli.exe -- suite \
  --benchmarks diag_dot,common_factor,sum_stack --cost-estimator flops \
  --report "$report" --quiet > /dev/null
dune exec --no-build bin/stenso_cli.exe -- report "$report"
echo "suite-report smoke check passed"

# Usage-error smoke check: each of these is a CLI usage error (exit 124,
# not an uncaught exception, and no work done): a directory where a file
# is expected, an unknown bench section (instead of silently running
# nothing), a bench --report naming two sections whose reports would
# overwrite each other, and execution flags stenso does not have (the
# VM with its fixed plan is the only execution path, so a script that
# asks for another engine or plan must fail, not run the default).  The
# run check names a real program so only the flag can fail it.
usage_error() {
  rc=0
  dune exec --no-build bin/stenso_cli.exe -- "$@" 2> /dev/null > /dev/null \
    || rc=$?
  if [ "$rc" -ne 124 ]; then
    echo "FAIL: stenso $* exited $rc, want 124" >&2
    exit 1
  fi
}
usage_error report "$scratch"
usage_error bench nosuchsection
usage_error bench vm lift --report "$scratch/two_sections.json"
usage_error bench fig5 --report "$scratch/no_report.json"
usage_error optimize --engine vm
usage_error suite --exec-tile 8
printf 'input A : f32[2,2]\nreturn A + A\n' > "$scratch/run.tdsl"
usage_error run "$scratch/run.tdsl" --exec-no-fusion
usage_error suite --exec-no-reduction-fusion
echo "usage-error smoke check passed"

# Archive regression check: the full 33-benchmark flops suite must pick
# the same program at the same cost for every benchmark as the committed
# BENCH_suite_flops.json, so a change to spec keying, hashing or stub
# ordering that alters a chosen program fails here.  No benchmark may
# expand more search nodes than the archive records either, so a search
# change that keeps every program but explores more fails too (each
# benchmark's search is sequential, so its node count is deterministic).
# Each benchmark's stub library must keep the archived size: an
# enumeration shortcut that drops or adds a stub fails here even when the
# chosen program survives.
dune exec --no-build bin/stenso_cli.exe -- suite --cost-estimator flops \
  --jobs 4 --quiet --report "$scratch/suite_flops.json" > /dev/null
python3 - "$scratch/suite_flops.json" BENCH_suite_flops.json <<'PY'
import json
import sys

new, old = (json.load(open(p))["benchmarks"] for p in sys.argv[1:])
new = {r["name"]: r for r in new}
bad = [
    f"{r['name']}: {f} {r[f]!r} -> {new.get(r['name'], {}).get(f)!r}"
    for r in old
    for f in ("optimized", "cost_after")
    if new.get(r["name"], {}).get(f) != r[f]
]
bad += [
    f"{r['name']}: search.nodes {r['search']['nodes']} -> {n}"
    for r in old
    if (n := new.get(r["name"], {}).get("search", {}).get("nodes", 0))
    > r["search"]["nodes"]
]
bad += [
    f"{r['name']}: search.library_size {r['search']['library_size']} -> {n}"
    for r in old
    if (n := new.get(r["name"], {}).get("search", {}).get("library_size"))
    != r["search"]["library_size"]
]
if bad or len(new) != len(old):
    sys.exit("FAIL: flops suite differs from BENCH_suite_flops.json\n"
             + "\n".join(bad))
PY
echo "flops-suite archive check passed"

# Serve smoke check: a daemon against a fresh store directory must
# answer the same request twice, the second time from the store
# (cache_hit:true), and shut down cleanly on SIGTERM.  Its answer must be
# the program `stenso optimize --no-store` writes for the same request:
# the daemon's cached and stored path against the CLI's uncached one.
# The same program reformatted is a store hit with the same answer, and
# `A + B`, which shares the program's spec and so its store entry, is
# priced as itself: no improvement, equal costs.
# The daemon runs from the built binary directly so the signal reaches
# it, not a dune wrapper.
stenso=_build/default/bin/stenso_cli.exe
socket="$scratch/stenso.sock"
printf 'input A : f32[2,2]\ninput B : f32[2,2]\nreturn np.exp(np.log(A + B))\n' \
  > "$scratch/prog.tdsl"
"$stenso" serve \
  --socket "$socket" --store-dir "$scratch/store" \
  --cost-estimator flops --timeout 60 --workers 2 > /dev/null &
serve_pid=$!
i=0
while [ ! -S "$socket" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "FAIL: serve daemon never bound its socket" >&2
    exit 1
  fi
  sleep 0.1
done
first=$("$stenso" request \
  --socket "$socket" --program "$scratch/prog.tdsl" --id ci-1)
second=$("$stenso" request \
  --socket "$socket" --program "$scratch/prog.tdsl" --id ci-2)
printf '# reformatted\ninput A : f32[2, 2]\ninput B : f32[2, 2]\nreturn np.exp(np.log(np.add(A, B)))\n' \
  > "$scratch/prog_fmt.tdsl"
third=$("$stenso" request \
  --socket "$socket" --program "$scratch/prog_fmt.tdsl" --id ci-3)
printf 'input A : f32[2,2]\ninput B : f32[2,2]\nreturn A + B\n' \
  > "$scratch/plain.tdsl"
plain=$("$stenso" request \
  --socket "$socket" --program "$scratch/plain.tdsl" --id ci-4)
case "$first" in
  *'"ok":true'*) ;;
  *) echo "FAIL: first serve request did not succeed: $first" >&2; exit 1 ;;
esac
case "$second" in
  *'"cache_hit":true'*) ;;
  *) echo "FAIL: second serve request was not a cache hit: $second" >&2
     exit 1 ;;
esac
case "$third" in
  *'"cache_hit":true'*) ;;
  *) echo "FAIL: reformatted serve request was not a cache hit: $third" >&2
     exit 1 ;;
esac
if ! printf '%s' "$plain" | python3 -c '
import json, sys
r = json.load(sys.stdin)
sys.exit(not (r["ok"] and r["improved"] is False
              and r["cost_before"] == r["cost_after"]))
'; then
  echo "FAIL: A + B was not priced as itself: $plain" >&2
  exit 1
fi
"$stenso" optimize --program "$scratch/prog.tdsl" --no-store \
  --cost-estimator flops --timeout 60 --synth-out "$scratch/prog.opt.tdsl" \
  > /dev/null
for answer in "$first" "$second" "$third"; do
  if ! printf '%s' "$answer" | python3 -c '
import json, sys
sys.exit(json.load(sys.stdin)["optimized"] != open(sys.argv[1]).read())
' "$scratch/prog.opt.tdsl"; then
    echo "FAIL: serve answered differently from optimize --no-store:" >&2
    echo "$answer" >&2
    cat "$scratch/prog.opt.tdsl" >&2
    exit 1
  fi
done
kill -TERM "$serve_pid"
wait "$serve_pid"
serve_pid=""
if [ -S "$socket" ]; then
  echo "FAIL: serve daemon left its socket behind" >&2
  exit 1
fi
echo "serve smoke check passed"

# Exec-domains determinism smoke check: VM results are bitwise
# independent of the lane count, so a suite whose concrete validation
# runs the VM on one lane must print byte-identical output to one that
# runs it on four.  Under flops the exec options only drive that
# validation.
domains_smoke() {
  dune exec --no-build bin/stenso_cli.exe -- suite \
    --benchmarks diag_dot,common_factor,sum_stack,synth_8 \
    --cost-estimator flops --exec-domains "$1" --quiet
}
one_out=$(domains_smoke 1)
four_out=$(domains_smoke 4)
if [ "$one_out" != "$four_out" ]; then
  echo "FAIL: suite output differs between --exec-domains 1 and 4" >&2
  printf 'domains=1:\n%s\ndomains=4:\n%s\n' "$one_out" "$four_out" >&2
  exit 1
fi
echo "exec-domains determinism smoke check passed"

# Tiered-optimizer smoke check: mine the depth-2 rule database for one
# environment, then optimize the matching program twice through the
# tiered path.  The first request must be answered without entering the
# search (tier 2: optima lookup + saturation with the mined rules) and
# name the candidate source that answered; the repeat must be served by
# tier 1, the outcome the first process left in the store (its queued
# write lands before it exits).
tstore="$scratch/tstore"
printf 'input A : f32[3,3]\ninput B : f32[3,3]\nreturn np.exp(np.log(A + B))\n' \
  > "$scratch/tiers_prog.tdsl"
"$stenso" mine --depth 2 --benchmarks log_exp_1 --cost-estimator flops \
  --store-dir "$tstore" --quiet
tiered() {
  "$stenso" optimize --program "$scratch/tiers_prog.tdsl" --rules-depth 2 \
    --cost-estimator flops --store-dir "$tstore" --trace "$1" > /dev/null
}
tiered "$scratch/trace1.ndjson"
tiered "$scratch/trace2.ndjson"
if ! grep -F '"tier.serve"' "$scratch/trace1.ndjson" | grep -qF '"tier":2'
then
  echo "FAIL: first tiered request was not served by tier 2" >&2
  grep -F '"tier.serve"' "$scratch/trace1.ndjson" >&2 || true
  exit 1
fi
if ! grep -F '"tier.serve"' "$scratch/trace1.ndjson" \
    | grep -qE '"source":"(optimum|saturation)"'; then
  echo "FAIL: first tiered request does not name its tier-2 source" >&2
  grep -F '"tier.serve"' "$scratch/trace1.ndjson" >&2 || true
  exit 1
fi
if ! grep -F '"tier.serve"' "$scratch/trace2.ndjson" \
    | grep -qF '"tier":1'; then
  echo "FAIL: repeated tiered request was not served from the store" >&2
  grep -F '"tier.serve"' "$scratch/trace2.ndjson" >&2 || true
  exit 1
fi
echo "tiered-optimizer smoke check passed"

# Tier-3 feedback smoke check: diag_dot's optimum lies outside the
# depth-2 mined space, so its first tiered request is answered by the
# search (tier 3), which feeds its optimum back into the rules database
# through the database's journal, leaving the mined entry file's bytes
# as they were.  A new process then optimizing a program with the same
# spec but another outcome-store key (its constants change the stub
# fingerprint) is answered at tier 2 from that fed-back optimum.
fstore="$scratch/fstore"
"$stenso" mine --depth 2 --benchmarks diag_dot --cost-estimator flops \
  --store-dir "$fstore" --quiet
mined_entry=$(find "$fstore/objects" -name '*.json')
cp "$mined_entry" "$scratch/mined_entry.json"
printf 'input A : f32[3,4]\ninput B : f32[4,3]\nreturn np.diag(np.dot(A, B))\n' \
  > "$scratch/diag.tdsl"
printf 'input A : f32[3,4]\ninput B : f32[4,3]\nreturn np.diag(np.dot(A, B)) * 2.0 / 2.0\n' \
  > "$scratch/diag_scaled.tdsl"
fed() {
  "$stenso" optimize --program "$1" --rules-depth 2 --cost-estimator flops \
    --store-dir "$fstore" --trace "$2" > /dev/null
}
fed "$scratch/diag.tdsl" "$scratch/fed1.ndjson"
if ! grep -F '"tier.serve"' "$scratch/fed1.ndjson" | grep -qF '"tier":3'; then
  echo "FAIL: diag_dot was not answered by the search (tier 3)" >&2
  grep -F '"tier.serve"' "$scratch/fed1.ndjson" >&2 || true
  exit 1
fi
if ! cmp -s "$mined_entry" "$scratch/mined_entry.json"; then
  echo "FAIL: tier-3 feedback rewrote the mined rules entry" >&2
  exit 1
fi
fed "$scratch/diag_scaled.tdsl" "$scratch/fed2.ndjson"
if ! grep -F '"tier.serve"' "$scratch/fed2.ndjson" \
    | grep -F '"tier":2' | grep -qF '"source":"optimum"'; then
  echo "FAIL: the fed-back optimum did not answer at tier 2" >&2
  grep -F '"tier.serve"' "$scratch/fed2.ndjson" >&2 || true
  exit 1
fi
echo "tier-3 feedback smoke check passed"

# Exec-bench archive check: the interp-vs-VM microbenchmark report
# must regenerate as a well-formed stenso.exec-bench/1 document with a
# geomean (the committed trajectory point is BENCH_exec_vm.json), and
# the VM must never lose to the interpreter: `report --min-speedup 1.0`
# fails if any benchmark's speedup dips below 1.0x or any
# reduction-rooted benchmark stopped fusing ops (ops_fused = 0 with
# expects_fused_reduction), so a planner fusion regression cannot hide
# behind a still-passing geomean.  The VM runs on one lane, as the
# single-threaded interpreter does: on a shared 2-vCPU host a stalled
# second lane once sank `normalize` to 0.73x although it reads 2.4-6.3x
# alone.  Multi-lane runs are covered by the bitwise determinism test
# and the --exec-domains 1 vs 4 smoke above.
exec_report="$scratch/exec_vm.json"
dune exec --no-build bin/stenso_cli.exe -- bench vm --exec-domains 1 \
  --report "$exec_report" > /dev/null
for needle in '"schema":"stenso.exec-bench/1"' '"geomean_speedup"'; do
  if ! grep -qF "$needle" "$exec_report"; then
    echo "FAIL: exec-bench report is missing $needle" >&2
    exit 1
  fi
done
dune exec --no-build bin/stenso_cli.exe -- report "$exec_report" \
  --min-speedup 1.0
echo "exec-bench report smoke check passed"

# Serving-at-scale smoke check: a TCP daemon (ephemeral port) under a
# short closed-loop replay must produce a valid stenso.serve-load/1
# report with zero protocol errors and at least one coalesced request
# (identical in-flight requests deduplicating onto one synthesis), and
# drain cleanly on SIGTERM.
serve_log="$scratch/serve.log"
lg_report="$scratch/serve_load.json"
"$stenso" serve --tcp 127.0.0.1:0 --socket "" \
  --store-dir "$scratch/lstore" --cost-estimator flops --timeout 60 \
  --workers 2 > "$serve_log" &
serve_pid=$!
port=""
i=0
while [ -z "$port" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "FAIL: serve daemon never reported its TCP port" >&2
    cat "$serve_log" >&2
    exit 1
  fi
  sleep 0.1
  port=$(sed -n 's#.*listening on tcp://127\.0\.0\.1:\([0-9][0-9]*\).*#\1#p' \
    "$serve_log" | head -n 1)
done
"$stenso" loadgen --endpoints "tcp://127.0.0.1:$port" \
  --benchmarks log_exp_1,elem_square --concurrency 8 --duration 2 \
  --cost-estimator flops --report "$lg_report" --quiet
dune exec --no-build bin/stenso_cli.exe -- report "$lg_report"
if ! grep -qF '"n_protocol_errors":0' "$lg_report"; then
  echo "FAIL: serve-load replay saw protocol errors" >&2
  exit 1
fi
if grep -qF '"n_coalesced":0' "$lg_report"; then
  echo "FAIL: no request was coalesced during the replay" >&2
  exit 1
fi
kill -TERM "$serve_pid"
wait "$serve_pid"
serve_pid=""
echo "serve-load smoke check passed"

# ML-suite smoke check, three parts.  (1) The ML-kernel tier must run
# end-to-end through the suite and produce a valid suite report.
# (2) The mlsuite benchmark section must regenerate as a well-formed
# stenso.mlsuite/1 document (the committed trajectory point is
# BENCH_mlsuite.json) whose exec half keeps every kernel at or above
# 1.0x VM-vs-interp with its expected fusions intact (one VM lane, as
# in the exec-bench check above).  (3) The
# truncated-enumeration regression tests must hold: a capped library is
# never cached and never mints optima (the full runtest above already
# ran them; re-run the two groups here so a future test-suite split
# cannot silently drop them).
ml_report="$scratch/ml_suite.json"
dune exec --no-build bin/stenso_cli.exe -- suite \
  --benchmarks ml --cost-estimator flops --timeout 30 --jobs 4 \
  --report "$ml_report" --quiet > /dev/null
dune exec --no-build bin/stenso_cli.exe -- report "$ml_report"
mlsuite_report="$scratch/mlsuite.json"
dune exec --no-build bin/stenso_cli.exe -- bench mlsuite --jobs 4 \
  --exec-domains 1 --report "$mlsuite_report" > /dev/null
dune exec --no-build bin/stenso_cli.exe -- report "$mlsuite_report" \
  --min-speedup 1.0
./_build/default/test/main.exe test stub > /dev/null
./_build/default/test/main.exe test tiers > /dev/null
echo "ml-suite smoke check passed"

# Lift smoke check: a bundled scalar kernel must lift through the CLI,
# the emitted DSL must re-parse and execute (`stenso run` on the
# synthesized program), and the regenerated stenso.lift/1 report must
# validate with a 100% success floor.  A loop-language parse error must
# exit 65 (EX_DATAERR) with a line/column diagnostic, and so must
# `optimize` on a malformed or an ill-typed program and `run` on an
# ill-typed one.
"$stenso" lift --bench lift_dot --no-store --cost-estimator flops \
  --synth-out "$scratch/dot.tdsl" --report "$scratch/lift.json" --quiet
"$stenso" run "$scratch/dot.tdsl" > /dev/null
"$stenso" report "$scratch/lift.json" --min-success 1.0
printf 'kernel broken(in float x[4], out float y) {\n  y = x[0]\n}\n' \
  > "$scratch/broken.loop"
lift_rc=0
lift_err=$("$stenso" lift "$scratch/broken.loop" --no-store 2>&1) \
  || lift_rc=$?
if [ "$lift_rc" -ne 65 ]; then
  echo "FAIL: lift of a malformed loop exited $lift_rc, want 65" >&2
  exit 1
fi
case "$lift_err" in
  *'line '*'column '*) ;;
  *) echo "FAIL: lift parse error lacks line/column: $lift_err" >&2
     exit 1 ;;
esac
printf 'input A : f32[3,4]\nreturn np.trace(A @@ A)\n' > "$scratch/bad.tdsl"
printf 'input A : f32[3,4]\ninput B : f32[4,3]\nreturn np.trace(A @ B.T)\n' \
  > "$scratch/ill.tdsl"
for cmd in "optimize --no-store --program $scratch/bad.tdsl" \
  "optimize --no-store --program $scratch/ill.tdsl" "run $scratch/ill.tdsl"; do
  rc=0
  "$stenso" $cmd > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 65 ]; then
    echo "FAIL: stenso $cmd exited $rc, want 65" >&2
    exit 1
  fi
done
echo "lift smoke check passed"

# Benchmark smoke check: every perfbench workload, traced and untraced,
# on a few items must build against the library, pass its correctness
# checks and print every metric BENCHMARK.json declares — so a library
# API change that breaks the benchmark fails here, not in a benchmark run.
python3 perfbench/run.py --smoke
echo "perfbench smoke check passed"

# Source size (informational, not a gate): `scripts/loc.sh BASE` adds
# the net change against a git base.
scripts/loc.sh
