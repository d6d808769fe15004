(* The benchmark executable: runs one workload and prints its metrics.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--state DIR] [--cli PATH] [--only a,b,c]

   Workloads: synth_cold, tiered_cold, serve_warm, vm_kernels (see
   perfbench/README.md).  With --trace 0 the result line carries the
   end-to-end metrics; with --trace 1 the run records spans and the
   result line carries the per-layer metrics.  The last line of standard
   output is the JSON result; the exit code is 1 when any output failed
   its correctness check. *)

let medians (w : Workload.t) = List.map (fun (_, l) -> Util.median l) w.items

(* The end-to-end metrics: those that stay within their bounds from run
   to run on a shared machine (see README.md). *)
let end_to_end (w : Workload.t) =
  Util.
    [
      m "setup_s" "s" w.setup;
      m "peak_rss_mb" "MB" w.rss_mb;
      m "success_rate" "ratio" (1. -. ratio w.failed w.attempted);
      m "latency_geomean_ms" "ms" (1000. *. geomean (medians w));
      m "cost_ratio_geomean" "ratio"
        (if w.cost_ratios = [] then 1. else geomean w.cost_ratios);
    ]

(* Whole-workload figures too noisy run to run to carry a bound; the
   traced run reports them with the per-layer metrics. *)
let unbounded (w : Workload.t) =
  [
    ("latency_total_s", Util.sum (medians w));
    ("latency_p50_ms", 1000. *. Util.percentile w.samples 50.);
    ("latency_p99_ms", 1000. *. Util.percentile w.samples 99.);
    ( "throughput_per_s",
      if w.busy > 0. then float_of_int w.completed /. w.busy else 0. );
  ]

(* Every per-layer metric with its unit, in BENCHMARK.json order.  A
   layer a workload does not load reads 0 on it. *)
let per_layer_units =
  [
    ("latency_total_s", "s"); ("latency_p50_ms", "ms"); ("latency_p99_ms", "ms");
    ("throughput_per_s", "1/s"); ("dsl.parse_ms", "ms"); ("sexec.ms", "ms"); ("stub.enum_ms", "ms");
    ("search.ms", "ms"); ("verify.symbolic_ms", "ms");
    ("verify.concrete_ms", "ms"); ("cost.ms", "ms"); ("store.lookup_ms", "ms");
    ("store.write_ms", "ms"); ("spec.key_ms", "ms");
    ("spec.key_builds", "count"); ("spec.key_hit_ratio", "ratio");
    ("stub.attempts", "count"); ("stub.library_size", "count");
    ("search.nodes", "count"); ("search.decomps", "count");
    ("search.pruned_simp", "count"); ("search.pruned_bnb", "count");
    ("search.memo_hit_ratio", "ratio"); ("invert.solved_ratio", "ratio");
    ("unaccounted_ms", "ms"); ("trace.overhead_ms", "ms"); ("mine.s", "s");
    ("rules_db.find_ms", "ms"); ("tier2.rules_ms", "ms");
    ("tier2.saturate_ms", "ms"); ("tier2.egraph_nodes", "count");
    ("tier2.rules_applied", "count"); ("tier2.answered_ratio", "ratio");
    ("tier3.search_ms", "ms"); ("serve.handle_us", "us");
    ("serve.decode_us", "us"); ("serve.parse_us", "us"); ("serve.key_us", "us");
    ("serve.lookup_us", "us"); ("serve.encode_us", "us");
    ("net.overhead_us", "us"); ("serve.coalesced", "count");
    ("serve.busy", "count"); ("exec.compile_us", "us");
    ("exec.ops_fused", "count"); ("exec.arena_bytes", "B");
  ]
  @ List.concat_map
      (fun k ->
        [
          (Printf.sprintf "vm.%s.us" k, "us");
          (Printf.sprintf "vm.%s.gbps" k, "GB/s");
          (Printf.sprintf "vm.%s.gflops" k, "GFLOP/s");
        ])
      (Vm.names ())

let per_layer (w : Workload.t) =
  let values = unbounded w @ w.layers in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer_units) then
        Printf.printf "warning: unlisted per-layer metric %s\n" name)
    values;
  List.map
    (fun (name, unit_) ->
      Util.m name unit_ (Option.value ~default:0. (List.assoc_opt name values)))
    per_layer_units

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and state = ref ".perfbench" and cli = ref "" in
  let only = ref None in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 traced run");
      ("--state", Arg.Set_string state, "DIR scratch and cross-run state");
      ("--cli", Arg.Set_string cli, "PATH built stenso binary (serve_warm)");
      ( "--only",
        Arg.String (fun s -> only := Some (String.split_on_char ',' s)),
        "A,B,... restrict to these items (smoke mode)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let opts =
    {
      Workload.seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      state = !state;
      cli = !cli;
      only = !only;
    }
  in
  Util.mkdir_p opts.state;
  let run =
    match !workload with
    | "synth_cold" -> Synth.run Synth.Cold
    | "tiered_cold" -> Synth.run Synth.Tiered
    | "serve_warm" -> Serve_warm.run
    | "vm_kernels" -> Vm.run
    | w ->
        Printf.eprintf "unknown workload %S\n" w;
        exit 2
  in
  Printf.printf "workload %s, seed %d, %g s, trace %d (nproc %d, OCaml %s)\n%!"
    !workload !seed !seconds !trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version;
  let steal0 = Util.steal_s () and t0 = Util.now () in
  let w = run opts in
  Printf.printf "run took %.1f s; cpu steal during it %.2f s\n"
    (Util.now () -. t0)
    (Util.steal_s () -. steal0);
  Printf.printf "%d attempted, %d failed, error_rate %s\n" w.attempted w.failed
    (Util.float_str (Util.ratio w.failed w.attempted));
  let n = List.length w.samples in
  Printf.printf
    "latency p50 %.3f ms (n=%d), p99 %.3f ms (n=%d, %d beyond), total %.6g s, \
     throughput %.6g /s\n"
    (1000. *. Util.percentile w.samples 50.) n
    (1000. *. Util.percentile w.samples 99.) n (Util.beyond n 99.)
    (Util.sum (medians w))
    (List.assoc "throughput_per_s" (unbounded w));
  let metrics = if opts.trace then per_layer w else end_to_end w in
  Util.print_metric_table
    (if opts.trace then "per-layer metrics" else "end-to-end metrics")
    metrics;
  let correct = w.failed = 0 in
  print_endline
    (Util.result_line ~correct ~attempted:w.attempted ~failed:w.failed metrics);
  exit (if correct then 0 else 1)
