type bench_result = {
  bench : Benchmarks.t;
  outcome : Stenso.Superopt.outcome;
  elapsed : float;
  tel : Stenso.Telemetry.t;
}

type t = { results : bench_result list; elapsed : float }

let run ?(config = Stenso.Config.default) ?model ?store ?(jobs = 1)
    ?(trace = false) ?on_result benches =
  let model =
    match model with Some m -> m | None -> Stenso.Config.model config
  in
  (* Benchmarks are the unit of parallelism here: each search runs
     single-domain so [jobs] bounds total concurrency, and each honours
     its own timeout, isolating slow benchmarks to their worker. *)
  let run_config = Stenso.Config.with_jobs 1 config in
  (* Benchmarks sharing an input environment (and stub grammar) share
     one enumerated library instead of re-enumerating per benchmark. *)
  let stub_cache = Stenso.Stub.Cache.create () in
  let emit =
    match on_result with
    | None -> fun _ -> ()
    | Some f ->
        let lock = Mutex.create () in
        fun r -> Mutex.protect lock (fun () -> f r)
  in
  let started = Unix.gettimeofday () in
  let one (b : Benchmarks.t) =
    let t0 = Unix.gettimeofday () in
    let tel =
      if trace then Stenso.Telemetry.create () else Stenso.Telemetry.null
    in
    let outcome =
      Stenso.Superopt.optimize ~tel ~config:run_config ?store ~stub_cache
        ~model ~env:b.env b.program
    in
    let r =
      { bench = b; outcome; elapsed = Unix.gettimeofday () -. t0; tel }
    in
    emit r;
    r
  in
  let results = Stenso.Par.map ~jobs one benches in
  { results; elapsed = Unix.gettimeofday () -. started }

let run_tiers ?(on_pass = ignore) ~config ~store benches =
  let pass name config store =
    on_pass name;
    run ~config ?store ~jobs:(Stenso.Config.jobs config) benches
  in
  let baseline =
    pass "baseline (full search)" (Stenso.Config.with_rules_depth 0 config)
      None
  in
  let cold = pass "tiered, cold" config (Some store) in
  let warm = pass "tiered, warm" config (Some store) in
  (baseline, cold, warm)

(* ------------------------------------------------------------------ *)
(* Suite report                                                        *)
(* ------------------------------------------------------------------ *)

module Json = Stenso.Telemetry.Json

let bench_json (r : bench_result) : Json.t =
  let o = r.outcome in
  let speedup =
    if o.optimized_cost > 0. then o.original_cost /. o.optimized_cost else 1.
  in
  let ast_str a = Format.asprintf "%a" Dsl.Ast.pp a in
  let trajectory =
    Json.List
      (List.map
         (fun (ts, v) -> Json.List [ Json.Float ts; Json.Float v ])
         (Stenso.Telemetry.series r.tel "search.bound"))
  in
  Json.Obj
    [
      ("name", Json.Str r.bench.name);
      ( "source",
        Json.Str
          (match r.bench.source with
          | `Github -> "github"
          | `Synthetic -> "synthetic") );
      ("klass", Json.Str (Stenso.Classify.klass_name r.bench.klass));
      ("tier", Json.Int o.tier);
      ("improved", Json.Bool o.improved);
      ("verified", Json.Bool o.verified);
      ("cost_before", Json.Float o.original_cost);
      ("cost_after", Json.Float o.optimized_cost);
      ("speedup", Json.Float speedup);
      ("synthesis_time", Json.Float r.elapsed);
      ("original", Json.Str (ast_str o.original));
      ("optimized", Json.Str (ast_str o.optimized));
      ("search", Stenso.Store.stats_json o.search.stats);
      ("bound_trajectory", trajectory);
    ]

let report ?(config = Stenso.Config.default) t : Json.t =
  let improved =
    List.length (List.filter (fun r -> r.outcome.Stenso.Superopt.improved)
                   t.results)
  in
  Json.Obj
    [
      ("schema", Json.Str Report.suite_report);
      ("version", Json.Str Stenso.Version.current);
      ( "estimator",
        Json.Str (Stenso.Config.estimator_name (Stenso.Config.estimator config))
      );
      ("jobs", Json.Int (Stenso.Config.jobs config));
      ("timeout", Json.Float (Stenso.Config.timeout config));
      ("elapsed", Json.Float t.elapsed);
      ("n_benchmarks", Json.Int (List.length t.results));
      ("n_improved", Json.Int improved);
      ("benchmarks", Json.List (List.map bench_json t.results));
    ]

(* ------------------------------------------------------------------ *)
(* Tiered-serving report                                               *)
(* ------------------------------------------------------------------ *)

let tier_counts (t : t) =
  List.fold_left
    (fun (t1, t2, t3) r ->
      match r.outcome.Stenso.Superopt.tier with
      | 1 -> (t1 + 1, t2, t3)
      | 2 -> (t1, t2 + 1, t3)
      | _ -> (t1, t2, t3 + 1))
    (0, 0, 0) t.results

let pass_json (t : t) =
  let t1, t2, t3 = tier_counts t in
  let n = List.length t.results in
  let frac =
    if n = 0 then 0. else float_of_int (t1 + t2) /. float_of_int n
  in
  Json.Obj
    [
      ("tier1", Json.Int t1);
      ("tier2", Json.Int t2);
      ("tier3", Json.Int t3);
      ("tier12_fraction", Json.Float frac);
      ("elapsed", Json.Float t.elapsed);
    ]

(* The tiered-serving comparison document: one [baseline] run (plain
   full search, no store), one [cold] tiered run (pre-mined rule
   database, empty outcome store) and one [warm] tiered run (repeat of
   the same requests against the now-populated store).  All three runs
   must cover the same benchmarks in the same order. *)
let tiers_report ?(config = Stenso.Config.default) ~baseline ~cold ~warm () :
    Json.t =
  let speedup_over tiered =
    if tiered.elapsed > 0. then baseline.elapsed /. tiered.elapsed else 1.
  in
  let mismatches =
    List.fold_left2
      (fun acc (b : bench_result) (c : bench_result) ->
        let bc = b.outcome.Stenso.Superopt.optimized_cost in
        let cc = c.outcome.Stenso.Superopt.optimized_cost in
        if Float.abs (bc -. cc) > 1e-9 *. (1. +. Float.abs bc) then acc + 1
        else acc)
      0 baseline.results cold.results
  in
  let row (b : bench_result) (c : bench_result) (w : bench_result) =
    let o = c.outcome in
    Json.Obj
      [
        ("name", Json.Str c.bench.name);
        ("tier_cold", Json.Int o.tier);
        ("tier_warm", Json.Int w.outcome.Stenso.Superopt.tier);
        ("improved", Json.Bool o.improved);
        ("verified", Json.Bool o.verified);
        ("cost_before", Json.Float o.original_cost);
        ("cost_after", Json.Float o.optimized_cost);
        ( "baseline_cost_after",
          Json.Float b.outcome.Stenso.Superopt.optimized_cost );
        ("latency_baseline", Json.Float b.elapsed);
        ("latency_cold", Json.Float c.elapsed);
        ("latency_warm", Json.Float w.elapsed);
      ]
  in
  let rows =
    List.map2 (fun (b, c) w -> row b c w)
      (List.combine baseline.results cold.results)
      warm.results
  in
  Json.Obj
    [
      ("schema", Json.Str Report.tiers);
      ("version", Json.Str Stenso.Version.current);
      ( "estimator",
        Json.Str (Stenso.Config.estimator_name (Stenso.Config.estimator config))
      );
      ( "rules_depth",
        Json.Int (Option.value ~default:0 (Stenso.Config.rules_depth config))
      );
      ("n_benchmarks", Json.Int (List.length cold.results));
      ("baseline_elapsed", Json.Float baseline.elapsed);
      ("cold", pass_json cold);
      ("warm", pass_json warm);
      ("cold_speedup", Json.Float (speedup_over cold));
      ("warm_speedup", Json.Float (speedup_over warm));
      ("n_cost_mismatches", Json.Int mismatches);
      ("benchmarks", Json.List rows);
    ]

(* ------------------------------------------------------------------ *)
(* ML-suite report                                                     *)
(* ------------------------------------------------------------------ *)

let mlsuite_report ~exec ~tiers () =
  Json.Obj
    [
      ("schema", Json.Str Report.mlsuite);
      ("version", Json.Str Stenso.Version.current);
      ("exec", exec);
      ("tiers", tiers);
    ]

(* ------------------------------------------------------------------ *)
(* Serve-load report                                                   *)
(* ------------------------------------------------------------------ *)

(* The load generator is protocol-agnostic; this is where its integer
   response classes are defined for the serve protocol.  Successful
   responses encode (tier, coalesced, refined) in one small integer so
   the stats machinery needs no protocol knowledge; the two failure
   classes sit above every success class. *)
let class_busy = 100
let class_protocol_error = 101

let classify_serve_response line =
  match Json.of_string (String.trim line) with
  | Error _ -> class_protocol_error
  | Ok doc -> (
      let bool name =
        Option.value ~default:false
          (Option.bind (Json.member name doc) Json.to_bool_opt)
      in
      match bool "ok" with
      | false -> (
          match
            Option.bind (Json.member "error" doc) Json.to_string_opt
          with
          | Some "busy" -> class_busy
          | _ -> class_protocol_error)
      | true ->
          let tier =
            Option.value ~default:0
              (Option.bind (Json.member "tier" doc) Json.to_int_opt)
          in
          if tier < 1 || tier > 3 then class_protocol_error
          else
            tier
            + (if bool "coalesced" then 10 else 0)
            + if bool "refined" then 20 else 0)

let class_is_ok c = c < class_busy
let class_tier c = c mod 10
let class_coalesced c = class_is_ok c && c / 10 land 1 = 1
let class_refined c = class_is_ok c && c >= 20

(* Nearest-rank percentiles over one latency population. *)
let latency_json lats =
  Array.sort compare lats;
  let n = Array.length lats in
  let pct p = Stenso.Net.Loadgen.percentile lats p in
  let mean =
    if n = 0 then 0. else Array.fold_left ( +. ) 0. lats /. float_of_int n
  in
  Json.Obj
    [
      ("n", Json.Int n);
      ("mean", Json.Float mean);
      ("p50", Json.Float (pct 50.));
      ("p95", Json.Float (pct 95.));
      ("p99", Json.Float (pct 99.));
    ]

let serve_load_report ?(config = Stenso.Config.default) ~endpoints
    ~concurrency ~duration ~benchmarks (stats : Stenso.Net.Loadgen.stats) =
  let samples = stats.samples in
  let count pred =
    Array.fold_left (fun acc (_, c) -> if pred c then acc + 1 else acc) 0
      samples
  in
  let lats_of pred =
    Array.of_seq
      (Seq.filter_map
         (fun (l, c) -> if pred c then Some l else None)
         (Array.to_seq samples))
  in
  let n_ok = count class_is_ok in
  let throughput =
    if stats.elapsed > 0. then float_of_int n_ok /. stats.elapsed else 0.
  in
  let tier_json t =
    let lats = lats_of (fun c -> class_is_ok c && class_tier c = t) in
    match latency_json lats with
    | Json.Obj fields -> Json.Obj (("tier", Json.Int t) :: fields)
    | j -> j
  in
  Json.Obj
    [
      ("schema", Json.Str Report.serve_load);
      ("version", Json.Str Stenso.Version.current);
      ( "estimator",
        Json.Str
          (Stenso.Config.estimator_name (Stenso.Config.estimator config)) );
      ("endpoints", Json.List (List.map (fun e -> Json.Str e) endpoints));
      ("concurrency", Json.Int concurrency);
      ("duration", Json.Float duration);
      ("elapsed", Json.Float stats.elapsed);
      ( "benchmarks",
        Json.List (List.map (fun b -> Json.Str b) benchmarks) );
      ("n_requests", Json.Int (Array.length samples));
      ("n_ok", Json.Int n_ok);
      ("throughput_rps", Json.Float throughput);
      ("n_transport_errors", Json.Int stats.n_transport_errors);
      ("n_protocol_errors", Json.Int (count (( = ) class_protocol_error)));
      ("n_busy", Json.Int (count (( = ) class_busy)));
      ("n_coalesced", Json.Int (count class_coalesced));
      ("n_refined", Json.Int (count class_refined));
      ("latency", latency_json (lats_of class_is_ok));
      ("tiers", Json.List (List.map tier_json [ 1; 2; 3 ]));
    ]

(* ------------------------------------------------------------------ *)
(* Lift report                                                         *)
(* ------------------------------------------------------------------ *)

type lift_entry = {
  lift_name : string;
  lifted : bool;
  lifted_program : string;
  optimized_program : string;
  lift_improved : bool;
  lift_stats : Stenso.Lift.stats;
  lift_speedup : float option;
}

let lift_entry_of ?speedup name = function
  | Ok ((l : Stenso.Lift.lifted), (o : Stenso.Superopt.outcome)) ->
      {
        lift_name = name;
        lifted = true;
        lifted_program = Dsl.Ast.to_string l.prog;
        optimized_program = Dsl.Ast.to_string o.optimized;
        lift_improved = o.improved;
        lift_stats = l.stats;
        lift_speedup = speedup;
      }
  | Error e ->
      {
        lift_name = name;
        lifted = false;
        lifted_program = "";
        optimized_program = "";
        lift_improved = false;
        lift_stats = Stenso.Lift.error_stats e;
        lift_speedup = speedup;
      }

let lift_entry_json (e : lift_entry) =
  Json.Obj
    ([
       ("name", Json.Str e.lift_name);
       ("lifted", Json.Bool e.lifted);
       ("program", Json.Str e.lifted_program);
       ("optimized", Json.Str e.optimized_program);
       ("improved", Json.Bool e.lift_improved);
       ("sketches", Json.Int e.lift_stats.sketches);
       ("pruned_by_value", Json.Int e.lift_stats.pruned_by_value);
       ("certified", Json.Int e.lift_stats.certified);
       ("library", Json.Int e.lift_stats.library_size);
       ("lift_ms", Json.Float (1000. *. e.lift_stats.lift_s));
       ("verify_ms", Json.Float (1000. *. e.lift_stats.verify_s));
     ]
    @
    match e.lift_speedup with
    | None -> []
    | Some s -> [ ("speedup", Json.Float s) ])

let lift_report ?(config = Stenso.Config.default) ~elapsed entries : Json.t =
  let n = List.length entries in
  let n_lifted = List.length (List.filter (fun e -> e.lifted) entries) in
  let rate =
    if n = 0 then 0. else float_of_int n_lifted /. float_of_int n
  in
  Json.Obj
    [
      ("schema", Json.Str Report.lift);
      ("version", Json.Str Stenso.Version.current);
      ( "estimator",
        Json.Str
          (Stenso.Config.estimator_name (Stenso.Config.estimator config)) );
      ("elapsed", Json.Float elapsed);
      ("n_kernels", Json.Int n);
      ("n_lifted", Json.Int n_lifted);
      ("success_rate", Json.Float rate);
      ("kernels", Json.List (List.map lift_entry_json entries));
    ]
