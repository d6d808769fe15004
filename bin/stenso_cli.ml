(* Command-line entry point.

     stenso optimize --program original.tdsl --synth-out optimized.tdsl
     stenso suite --jobs 8 --cost-estimator flops
     stenso profile --cost-cache ops.cache
     stenso serve --socket /tmp/stenso.sock --workers 4
     stenso request --socket /tmp/stenso.sock --program original.tdsl
     stenso bench fig4 fig8 --jobs 4

   The bare legacy invocation (mirroring the artifact's
   `stenso/main.py`) still works as an alias of [optimize]:

     stenso --program original.tdsl --cost-estimator measured

   Program files declare typed inputs and return one expression; see
   `examples/` and the README for the surface syntax. *)

open Common

(* Emit the same surface syntax the parser accepts, so outputs can be
   fed back in — the same rendering the persistent store serves, so
   cached and fresh runs are byte-identical. *)
let render_program = Dsl.Parser.unparse

let open_store ~tel store_dir =
  let dir =
    match store_dir with Some d -> d | None -> Stenso.Store.default_dir ()
  in
  Stenso.Store.open_store ~tel ~dir ()

(* [Config.default] under the named estimator, with each given option
   applied over it. *)
let config_of ?exec ?timeout ?jobs ?(no_bnb = false)
    ?(no_simplification = false) ?(extended_ops = false) ?cost_cache
    ?(rules_depth = 0) estimator =
  let module C = Stenso.Config in
  let apply f = Option.fold ~none:Fun.id ~some:f in
  C.default
  |> C.with_estimator
       (match C.estimator_of_string estimator with
       | Ok e -> e
       | Error msg -> die "%s" msg)
  |> apply C.with_exec_options exec
  |> apply C.with_timeout timeout
  |> apply C.with_jobs jobs
  |> C.with_bnb (not no_bnb)
  |> C.with_simplification (not no_simplification)
  |> C.with_extended_ops extended_ops
  |> C.with_rules_depth rules_depth
  |> apply C.with_cost_cache cost_cache

(* Run [f] with a recording telemetry sink when [--trace FILE] is given
   (the null sink otherwise), then write the trace to FILE as NDJSON. *)
let with_trace trace f =
  let tel =
    if Option.is_some trace then Stenso.Telemetry.create ()
    else Stenso.Telemetry.null
  in
  let result = f tel in
  Option.iter
    (fun path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> Stenso.Telemetry.write_ndjson tel oc))
    trace;
  result

(* ------------------------------------------------------------------ *)
(* stenso optimize                                                     *)
(* ------------------------------------------------------------------ *)

let optimize_run program_path synth_out estimator exec timeout jobs no_bnb
    no_simplification extended_ops cost_cache rules_depth no_store store_dir
    trace verbose =
  let env, prog =
    match program_path with
    | Some p -> load_program p
    | None -> die "--program is required"
  in
  let config =
    config_of ~rules_depth ~exec ~timeout ~jobs ~no_bnb ~no_simplification
      ~extended_ops ?cost_cache estimator
  in
  let outcome =
    with_trace trace (fun tel ->
        let store =
          if no_store then None else Some (open_store ~tel store_dir)
        in
        Stenso.Superopt.optimize ~tel ~config ?store ~env prog)
  in
  if verbose then begin
    if outcome.tier = 1 then
      Format.printf "# served from the persistent store (tier 1 cache hit)@\n"
    else if outcome.tier = 2 then
      Format.printf
        "# served from the mined rule database (tier 2, no search)@\n"
    else begin
      let s = outcome.search.stats in
      Format.printf
        "# search: %d nodes, %d candidates built (%d cut by \
         simplification), %d bnb-pruned,@\n\
         # %.2fs, library of %d stubs%s@\n"
        s.nodes s.decomps s.pruned_simp s.pruned_bnb s.elapsed s.library_size
        (if s.timed_out then " (timed out)" else "")
    end
  end;
  Format.printf "# original  (cost %.6g): %a@\n" outcome.original_cost
    Dsl.Ast.pp outcome.original;
  if outcome.improved then
    Format.printf "# optimized (cost %.6g): %a@\n" outcome.optimized_cost
      Dsl.Ast.pp outcome.optimized
  else Format.printf "# no cheaper equivalent found; keeping the original@\n";
  (match synth_out with
  | Some path ->
      write_file path (render_program env outcome.optimized);
      Format.printf "# written to %s@\n" path
  | None ->
      Format.printf "%s" (render_program env outcome.optimized));
  if outcome.improved && not outcome.verified then exit 2

(* ------------------------------------------------------------------ *)
(* stenso suite                                                        *)
(* ------------------------------------------------------------------ *)

(* Group tokens expand to whole tiers; anything else must be a
   benchmark name.  A token matching neither is fatal — a typo must
   not quietly shrink the selection. *)
let benchmark_groups =
  [
    ("github", Suite.Benchmarks.github);
    ("synthetic", Suite.Benchmarks.synthetic);
    ("masking", Suite.Benchmarks.masking);
    ("ml", Suite.Benchmarks.ml);
    ("lifted", Suite.Benchmarks.lifted);
  ]

let select_benchmarks names =
  match names with
  | [] -> Suite.Benchmarks.all
  | names ->
      List.concat_map
        (fun name ->
          match List.assoc_opt name benchmark_groups with
          | Some tier -> tier
          | None -> (
              match Suite.Benchmarks.find_opt name with
              | Some b -> [ b ]
              | None ->
                  die
                    "unknown benchmark or group %S (groups: %s; see `stenso \
                     suite --list')"
                    name
                    (String.concat ", " (List.map fst benchmark_groups))))
        names

(* The three-pass tiered-serving comparison behind [--tiers-report]:
   baseline (full search, no store), cold tiered (mined rules, empty
   outcome store), warm tiered (repeat — now also hitting the outcome
   store).  All passes cover the same benchmarks with the same jobs. *)
let tiers_run ~config ~benches ~store_dir ~quiet path =
  (match Stenso.Config.rules_depth config with
  | Some _ -> ()
  | None -> die "--tiers-report requires --rules-depth");
  let baseline, cold, warm =
    Suite.Driver.run_tiers ~config
      ~on_pass:(fun name ->
        if not quiet then Printf.printf "%s pass...\n%!" name)
      ~store:(open_store ~tel:Stenso.Telemetry.null store_dir)
      benches
  in
  write_report ~quiet ~label:"tiers" (Some path)
    (Suite.Driver.tiers_report ~config ~baseline ~cold ~warm ());
  if not quiet then begin
    let count (t : Suite.Driver.t) tier =
      List.length
        (List.filter
           (fun (r : Suite.Driver.bench_result) ->
             r.outcome.Stenso.Superopt.tier = tier)
           t.results)
    in
    Printf.printf
      "cold: %d tier-1, %d tier-2, %d tier-3 (%.1fs); warm: %d/%d \
       without search (%.1fs); baseline %.1fs\n"
      (count cold 1) (count cold 2) (count cold 3) cold.elapsed
      (count warm 1 + count warm 2)
      (List.length warm.results)
      warm.elapsed baseline.elapsed
  end

let suite_run list_only names jobs timeout estimator exec cost_cache
    rules_depth use_store store_dir out report tiers_report quiet =
  if list_only then
    List.iter
      (fun (group, benches) ->
        Printf.printf "# %s\n" group;
        List.iter
          (fun (b : Suite.Benchmarks.t) ->
            Printf.printf "%-16s %s\n" b.name
              (Dsl.Ast.to_string b.program))
          benches)
      benchmark_groups
  else begin
    let benches = select_benchmarks names in
    let config =
      config_of ~rules_depth ~exec ~timeout ~jobs ?cost_cache estimator
    in
    match tiers_report with
    | Some path -> tiers_run ~config ~benches ~store_dir ~quiet path
    | None ->
    let on_result (r : Suite.Driver.bench_result) =
      if not quiet then
        Printf.printf "  %-16s %6.1fs  %s\n%!" r.bench.name r.elapsed
          (if r.outcome.improved then Dsl.Ast.to_string r.outcome.optimized
           else "(no cheaper variant)")
    in
    if not quiet then
      Printf.printf
        "Superoptimizing %d benchmarks (%s estimator, %d jobs)...\n%!"
        (List.length benches)
        (Stenso.Config.estimator_name (Stenso.Config.estimator config))
        jobs;
    (* Off by default: the suite is the determinism yardstick, and a
       store warmed by a previous run would skew timing comparisons. *)
    let store =
      if use_store then
        Some (open_store ~tel:Stenso.Telemetry.null store_dir)
      else None
    in
    let ({ Suite.Driver.results; elapsed } as run_result) =
      Suite.Driver.run ~config ?store ~jobs ~trace:(Option.is_some report)
        ~on_result benches
    in
    Option.iter
      (fun path ->
        write_report ~quiet ~label:"suite" (Some path)
          (Suite.Driver.report ~config run_result))
      report;
    (* The deterministic result table: no timings, stable formatting, so
       parallel and sequential runs of a deterministic estimator can be
       compared byte for byte. *)
    let table =
      String.concat ""
        (List.map
           (fun (r : Suite.Driver.bench_result) ->
             Printf.sprintf "%s\t%s\t%.9g\t%s\n" r.bench.name
               (if r.outcome.improved then "improved" else "kept")
               r.outcome.optimized_cost
               (Dsl.Ast.to_string r.outcome.optimized))
           results)
    in
    (match out with
    | Some path ->
        write_file path table;
        if not quiet then
          Printf.printf "wrote %d results to %s (%.1fs total)\n"
            (List.length results) path elapsed
    | None -> print_string table);
    if not quiet then
      let improved =
        List.length
          (List.filter
             (fun (r : Suite.Driver.bench_result) -> r.outcome.improved)
             results)
      in
      Printf.printf "# %d/%d improved, %.1fs wall clock\n" improved
        (List.length results) elapsed
  end

(* ------------------------------------------------------------------ *)
(* stenso mine                                                         *)
(* ------------------------------------------------------------------ *)

let mine_run names depth jobs estimator cost_cache store_dir quiet =
  (* Offline rule mining: batch-superoptimize the bounded stub space of
     each benchmark environment and persist the discovered rewrite
     rules and per-spec optima into the store, where tiered serving
     ([--rules-depth]) picks them up. *)
  if depth < 1 then die "--depth must be at least 1";
  let benches = select_benchmarks names in
  let model = Stenso.Config.model (config_of ?cost_cache estimator) in
  let store = open_store ~tel:Stenso.Telemetry.null store_dir in
  if not quiet then
    Printf.printf
      "Mining depth-%d rules over %d benchmark environments (%s \
       estimator) into %s...\n\
       %!"
      depth (List.length benches) model.Cost.Model.name
      (Stenso.Store.dir store);
  let on_env (s : Stenso.Mine.env_stats) =
    if not quiet then
      Printf.printf
        "  %-16s %6d stubs, %6d dups -> %4d rules, %6d optima  %6.1fs\n%!"
        s.label s.stubs s.dups s.rules s.optima s.elapsed
  in
  let envs =
    List.map (fun (b : Suite.Benchmarks.t) -> (b.name, b.env)) benches
  in
  let stats = Stenso.Mine.mine ~jobs ~on_env ~depth ~model ~store envs in
  let total f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  Printf.printf
    "# mined %d environments (%d shared): %d rules, %d optima\n"
    (List.length stats)
    (List.length benches - List.length stats)
    (total (fun (s : Stenso.Mine.env_stats) -> s.rules))
    (total (fun (s : Stenso.Mine.env_stats) -> s.optima))

(* ------------------------------------------------------------------ *)
(* stenso run                                                          *)
(* ------------------------------------------------------------------ *)

let run_run program_path exec seed trace verbose =
  (* Execute a program on random seeded inputs through the VM — a quick
     way to exercise the compiled path and inspect its fusion/arena
     statistics on a concrete program. *)
  let env, prog = load_program program_path in
  let st = Random.State.make [| seed |] in
  let inputs = Dsl.Interp.random_inputs st env in
  let lookup n = List.assoc n inputs in
  let t0 = Unix.gettimeofday () in
  with_trace trace @@ fun tel ->
  let options = Stenso.Exec.Options.with_telemetry tel exec in
  let compiled = Stenso.Exec.compile ~options ~env prog in
  let result = Stenso.Exec.run compiled lookup in
  let elapsed = Unix.gettimeofday () -. t0 in
  if verbose then begin
    let s = Stenso.Exec.stats compiled in
    Format.printf
      "# engine vm, seed %d, %.6fs@\n\
       # plan: %d IR nodes, %d steps, %d ops fused, %d consts folded,@\n\
       # %d buffers reused, %d parallel strips, arena %d slots / %d bytes@\n\
       # exec options: %s@\n"
      seed elapsed s.ir_nodes s.steps s.ops_fused s.consts_folded
      s.buffers_reused s.parallel_strips s.arena_slots s.arena_bytes
      (Stenso.Exec.Options.fingerprint exec)
  end;
  Format.printf "%a@." Tensor.Ftensor.pp result

(* ------------------------------------------------------------------ *)
(* stenso lift                                                         *)
(* ------------------------------------------------------------------ *)

let lift_run file benches estimator exec timeout jobs cost_cache
    no_store store_dir samples seed synth_out report trace quiet =
  (* Lift scalar loop-nest kernels into the DSL and superoptimize the
     result: FILE is a kernel in the loop language, [--bench] names a
     bundled kernel from the lifted tier (or [all]). *)
  let sources =
    (match file with
    | Some p ->
        [ (Filename.remove_extension (Filename.basename p), read_file p) ]
    | None -> [])
    @ List.concat_map
        (fun name ->
          if String.equal name "all" then
            List.map
              (fun (k : Suite.Lifted.t) -> (k.name, k.source))
              Suite.Lifted.all
          else
            match Suite.Lifted.find_opt name with
            | Some k -> [ (k.name, k.source) ]
            | None ->
                die "unknown bundled kernel %S (kernels: %s)" name
                  (String.concat ", "
                     (List.map
                        (fun (k : Suite.Lifted.t) -> k.name)
                        Suite.Lifted.all)))
        benches
  in
  if sources = [] then die "nothing to lift: pass a kernel FILE or --bench";
  (match synth_out with
  | Some _ when List.length sources > 1 ->
      die "--synth-out applies to a single kernel"
  | _ -> ());
  let config = config_of ~exec ~timeout ~jobs ?cost_cache estimator in
  let t0 = Unix.gettimeofday () in
  let entries, failures =
    with_trace trace @@ fun tel ->
    let store =
      if no_store then None else Some (open_store ~tel store_dir)
    in
    let stub_cache = Stenso.Stub.Cache.create () in
    List.fold_left
      (fun (entries, failures) (name, source) ->
        let kernel =
          try Stenso.Lift.Loop_parser.kernel source
          with Stenso.Lift.Loop_parser.Parse_error msg ->
            die_dataerr name msg
        in
        let result =
          Stenso.Lift.optimize ~tel ~config ?store ~stub_cache ~samples ~seed
            kernel
        in
        match result with
        | Ok (l, outcome) ->
            if not quiet then
              Printf.printf
                "# %s: lifted (%d sketches, %d value-pruned, library %d, \
                 %.2fs + %.2fs verify)%s\n\
                 %!"
                name l.stats.sketches l.stats.pruned_by_value
                l.stats.library_size l.stats.lift_s l.stats.verify_s
                (if outcome.Stenso.Superopt.improved then
                   "; superoptimized"
                 else "");
            let rendered =
              render_program l.env outcome.Stenso.Superopt.optimized
            in
            (match synth_out with
            | Some path ->
                write_file path rendered;
                if not quiet then Printf.printf "# written to %s\n" path
            | None -> print_string rendered);
            (Suite.Driver.lift_entry_of name result :: entries, failures)
        | Error e ->
            Printf.eprintf "stenso: %s: %s\n%!" name
              (Stenso.Lift.error_message e);
            (Suite.Driver.lift_entry_of name result :: entries, failures + 1))
      ([], 0) sources
  in
  Option.iter
    (fun path ->
      write_report ~quiet ~label:"lift" (Some path)
        (Suite.Driver.lift_report ~config
           ~elapsed:(Unix.gettimeofday () -. t0)
           (List.rev entries)))
    report;
  if failures > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* stenso profile                                                      *)
(* ------------------------------------------------------------------ *)

let cache_entries file =
  match open_in file with
  | exception Sys_error _ -> 0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let n = ref 0 in
          (try
             while true do
               ignore (input_line ic);
               incr n
             done
           with End_of_file -> ());
          !n)

let profile_run names cost_cache extended_ops =
  (* The measured estimator's offline phase, run ahead of time: stub
     enumeration over each benchmark's inputs requests the cost of every
     operation the synthesis search will consider, and the table persists
     to [--cost-cache] for later `optimize`/`suite` runs to load. *)
  let benches = select_benchmarks names in
  let model = Cost.Model.measured ~cache_file:cost_cache () in
  let before = cache_entries cost_cache in
  List.iter
    (fun (b : Suite.Benchmarks.t) ->
      let t0 = Unix.gettimeofday () in
      let stub_config =
        { Stenso.Stub.default_config with extended_ops }
      in
      ignore
        (Stenso.Stub.enumerate ~config:stub_config ~model
           ~consts:(Stenso.Superopt.consts_of b.program)
           b.env);
      ignore (Cost.Model.program_cost model b.env b.program);
      Printf.printf "  %-16s %6.1fs\n%!" b.name
        (Unix.gettimeofday () -. t0))
    benches;
  Printf.printf "%s: %d entries (%d new)\n" cost_cache
    (cache_entries cost_cache)
    (cache_entries cost_cache - before)

(* ------------------------------------------------------------------ *)
(* stenso report                                                       *)
(* ------------------------------------------------------------------ *)

let report_run file min_speedup min_success =
  (* Validate an archived report and print its one-line summary; the
     schemas, their gates and summaries all live in [Suite.Report].  CI
     runs this on freshly generated reports so the BENCH_*.json
     trajectory keeps a stable shape. *)
  match Stenso.Telemetry.Json.of_string (read_file file) with
  | Error msg -> die "%s: invalid JSON: %s" file msg
  | Ok doc -> (
      match Suite.Report.validate ?min_speedup ?min_success doc with
      | Ok (schema, summary) ->
          Printf.printf "%s: valid %s (%s)\n" file schema summary
      | Error msg -> die "%s: %s" file msg)

(* ------------------------------------------------------------------ *)
(* stenso serve / stenso request                                       *)
(* ------------------------------------------------------------------ *)

let default_socket =
  Filename.concat (Filename.get_temp_dir_name ()) "stenso.sock"

let parse_tcp spec =
  match Stenso.Net.Endpoint.parse spec with
  | Ok (Stenso.Net.Endpoint.Tcp _ as e) -> e
  | Ok (Stenso.Net.Endpoint.Unix_sock _) ->
      die "--tcp expects HOST:PORT, got %S" spec
  | Error msg -> die "--tcp: %s" msg

let parse_endpoints s =
  match Stenso.Net.Endpoint.parse_list s with
  | Ok eps -> eps
  | Error msg -> die "--endpoints: %s" msg

let serve_run socket tcp workers queue_capacity max_conns read_deadline
    write_deadline no_refine estimator exec timeout no_bnb no_simplification
    extended_ops cost_cache rules_depth no_store store_dir trace =
  let config =
    config_of ~rules_depth ~exec ~timeout ~no_bnb ~no_simplification
      ~extended_ops ?cost_cache estimator
  in
  with_trace trace @@ fun tel ->
  let store = if no_store then None else Some (open_store ~tel store_dir) in
  let listeners =
    (if String.equal socket "" then []
     else [ Stenso.Net.Endpoint.Unix_sock socket ])
    @ List.map parse_tcp tcp
  in
  if listeners = [] then die "nothing to listen on (--socket \"\" and no --tcp)";
  Printf.printf "stenso %s serving (%d workers, queue %d, %d conns max%s%s)\n%!"
    Stenso.Version.current workers queue_capacity max_conns
    (match store with
    | Some s -> ", store " ^ Stenso.Store.dir s
    | None -> ", no store")
    (if no_refine then ", refinement off" else "");
  Stenso.Net.serve ~tel ?store ~workers ~queue_capacity ~max_conns
    ~read_deadline ~write_deadline ~background:(not no_refine)
    ~on_bound:(fun eps ->
      (* One line per listener with the *bound* address — a TCP
         listener requested on port 0 reports its real ephemeral port
         here, which scripts grep for. *)
      List.iter
        (fun e ->
          Printf.printf "listening on %s\n%!"
            (Stenso.Net.Endpoint.to_string e))
        eps)
    ~base:config ~listeners ()

(* Exit codes: 0 ok, 1 protocol [ok:false] or transport failure, 75
   (EX_TEMPFAIL) when every replica shed the request even after jittered
   retries — transient by definition, scripts may re-run later. *)
let ex_tempfail = 75

let request_run endpoints socket program_path id estimator timeout io_timeout
    busy_retries =
  let module J = Stenso.Telemetry.Json in
  let source =
    match program_path with
    | Some p -> read_file p
    | None -> die "--program is required"
  in
  let endpoints =
    match endpoints with
    | Some s -> parse_endpoints s
    | None -> [ Stenso.Net.Endpoint.Unix_sock socket ]
  in
  let overrides =
    List.filter_map Fun.id
      [
        Option.map (fun e -> ("cost_estimator", J.Str e)) estimator;
        Option.map (fun t -> ("timeout", J.Float t)) timeout;
      ]
  in
  let fields =
    (match id with Some i -> [ ("id", J.Str i) ] | None -> [])
    @ [ ("program", J.Str source) ]
    @ (match overrides with [] -> [] | o -> [ ("config", J.Obj o) ])
  in
  match
    Stenso.Serve.request ~timeout:io_timeout ~busy_retries ~endpoints
      (J.to_string (J.Obj fields))
  with
  | Stenso.Serve.Transport msg -> die "%s" msg
  | Stenso.Serve.Busy ->
      prerr_endline
        "stenso: all endpoints busy (retries exhausted); try again later";
      exit ex_tempfail
  | Stenso.Serve.Reply resp ->
      print_endline resp;
      let ok =
        match J.of_string resp with
        | Ok doc ->
            Option.value ~default:false
              (Option.bind (J.member "ok" doc) J.to_bool_opt)
        | Error _ -> false
      in
      if not ok then exit 1

(* ------------------------------------------------------------------ *)
(* stenso loadgen                                                      *)
(* ------------------------------------------------------------------ *)

let loadgen_run endpoints names concurrency duration timeout no_warmup
    warmup_timeout settle estimator report quiet =
  let endpoints =
    match endpoints with
    | Some s -> parse_endpoints s
    | None -> [ Stenso.Net.Endpoint.Unix_sock default_socket ]
  in
  if concurrency < 1 then die "--concurrency must be at least 1";
  if duration <= 0. then die "--duration must be positive";
  let benches = select_benchmarks names in
  let module J = Stenso.Telemetry.Json in
  let line_of (b : Suite.Benchmarks.t) =
    J.to_string
      (J.Obj
         [
           ("id", J.Str b.name);
           ("program", J.Str (render_program b.env b.program));
         ])
  in
  let lines = Array.of_list (List.map line_of benches) in
  if not quiet then
    Printf.printf
      "replaying %d benchmarks against %s: %d connections, %.0fs%s\n%!"
      (Array.length lines)
      (String.concat ","
         (List.map Stenso.Net.Endpoint.to_string endpoints))
      concurrency duration
      (if no_warmup then "" else " (after warmup)");
  let cfg =
    {
      Stenso.Net.Loadgen.endpoints;
      concurrency;
      duration;
      timeout;
      warmup_lines = (if no_warmup then [] else Array.to_list lines);
      warmup_timeout;
      settle;
      lines;
    }
  in
  let (stats : Stenso.Net.Loadgen.stats) =
    Stenso.Net.Loadgen.run ~classify:Suite.Driver.classify_serve_response cfg
  in
  if Array.length stats.samples = 0 then
    die "no responses at all (%d transport errors) — is the daemon running?"
      stats.n_transport_errors;
  let doc =
    Suite.Driver.serve_load_report ~config:(config_of estimator)
      ~endpoints:(List.map Stenso.Net.Endpoint.to_string endpoints)
      ~concurrency ~duration
      ~benchmarks:(List.map (fun (b : Suite.Benchmarks.t) -> b.name) benches)
      stats
  in
  write_report ~quiet ~label:"serve-load" report doc;
  if report = None then print_endline (J.to_string doc);
  if not quiet then
    Printf.printf "# %d transport errors\n" stats.n_transport_errors

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

open Cmdliner

(* The constructors behind the arguments several commands share. *)
let path_arg ?(docv = "FILE") names doc =
  Arg.(value & opt (some string) None & info names ~docv ~doc)

let report_arg doc = path_arg [ "report" ] doc
let quiet_arg doc = Arg.(value & flag & info [ "quiet" ] ~doc)

let benchmarks_arg =
  Arg.(
    value
    & opt (list string) []
    & info [ "benchmarks" ] ~docv:"NAMES"
        ~doc:
          "Comma-separated benchmark names or group tokens (github, \
           synthetic, masking, ml, lifted); default: the paper's 33.")

let program_arg =
  Arg.(
    value
    & opt (some non_dir_file) None
    & info [ "program" ] ~docv:"FILE" ~doc:"Source program to superoptimize.")

let estimator_arg =
  Arg.(
    value & opt string "measured"
    & info
        [ "cost_estimator"; "cost-estimator" ]
        ~docv:"NAME"
        ~doc:"Cost estimator: $(b,flops), $(b,roofline), or $(b,measured).")

let timeout_arg =
  Arg.(
    value & opt float 600.
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:"Synthesis time budget (per benchmark for $(b,suite)).")

(* One term shared by every command that can reach the compiled VM; it
   applies --exec-domains over [Exec.Options.default], so the options
   record stays the single configuration path. *)
let exec_options_term =
  let build domains =
    let open Stenso.Exec in
    if domains > 0 then Options.with_domains domains Options.default
    else Options.default
  in
  Term.(
    const build
    $ Arg.(
        value & opt int 0
        & info [ "exec-domains" ] ~docv:"N"
            ~doc:
              "Parallel lanes the compiled VM may fan a single step out \
               over (long fused strips, reductions, tiled kernels).  \
               Default: min 8 (recommended domain count).  Results are \
               bitwise independent of N."))

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains.  For $(b,optimize): parallelize stub \
           enumeration and the root of the search.  For $(b,suite) and \
           $(b,bench): superoptimize N benchmarks concurrently.  Results \
           are independent of N.")

let no_bnb_arg =
  Arg.(
    value & flag
    & info [ "no-bnb" ]
        ~doc:"Disable branch-and-bound pruning (simplification only).")

let no_simp_arg =
  Arg.(
    value & flag
    & info [ "no-simplification" ]
        ~doc:"Disable the simplification objective (not recommended).")

let extended_ops_arg =
  Arg.(
    value & flag
    & info [ "extended-ops" ]
        ~doc:
          "Include the masking operations (triu/tril/less/where) in the \
           synthesis grammar.")

let cost_cache_arg =
  path_arg [ "cost-cache" ]
    "Persist the measured cost model's profiling table, amortizing the \
     offline phase across runs (see $(b,stenso profile))."

let rules_depth_arg =
  Arg.(
    value & opt int 0
    & info [ "rules-depth" ] ~docv:"N"
        ~doc:
          "Enable tiered serving against a rule database mined at depth \
           $(docv) (see $(b,stenso mine)): store lookup, then the \
           database's optima table + e-graph saturation with its rules, \
           then the full search only when the database cannot certify an \
           answer.  0 (default) disables tier 2.")

let no_store_arg =
  Arg.(
    value & flag
    & info [ "no-store" ]
        ~doc:
          "Do not consult or update the persistent synthesis store; \
           always run the search.")

let store_dir_arg =
  path_arg ~docv:"DIR" [ "store-dir" ]
    "Persistent synthesis store directory (default: \
     $(b,\\$STENSO_CACHE_DIR), else $(b,~/.cache/stenso))."

let socket_arg =
  Arg.(
    value & opt string default_socket
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path the daemon listens on.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print search statistics.")

let trace_arg =
  path_arg [ "trace" ]
    "Record a synthesis telemetry trace (phase timings, search counters, \
     prune breakdown, bound trajectory) and write it to FILE as NDJSON — \
     one JSON object per line."

let optimize_term =
  Term.(
    const optimize_run $ program_arg
    $ path_arg [ "synth_out"; "synth-out" ]
        "Output file for the synthesized program (stdout if omitted)."
    $ estimator_arg $ exec_options_term $ timeout_arg $ jobs_arg $ no_bnb_arg
    $ no_simp_arg $ extended_ops_arg $ cost_cache_arg $ rules_depth_arg
    $ no_store_arg $ store_dir_arg $ trace_arg $ verbose_arg)

let optimize_cmd =
  Cmd.v
    (Cmd.info "optimize"
       ~doc:
         "Superoptimize one tensor program (the default command).  A \
          malformed or ill-typed program exits 65 ($(b,EX_DATAERR)).")
    optimize_term

let suite_cmd =
  let list_arg =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List the bundled benchmarks and exit.")
  in
  let use_store_arg =
    Arg.(
      value & flag
      & info [ "store" ]
          ~doc:
            "Serve benchmarks cache-first from the persistent synthesis \
             store and record fresh outcomes into it (off by default so \
             suite runs stay comparable).")
  in
  Cmd.v
    (Cmd.info "suite"
       ~doc:
         "Superoptimize the bundled benchmark suite on a bounded worker \
          pool.")
    Term.(
      const suite_run $ list_arg $ benchmarks_arg $ jobs_arg $ timeout_arg
      $ estimator_arg $ exec_options_term $ cost_cache_arg
      $ rules_depth_arg $ use_store_arg $ store_dir_arg
      $ path_arg [ "out" ] "Write the result table to FILE instead of stdout."
      $ report_arg
          "Write a schema-stable JSON suite report \
           ($(b,stenso.suite-report/1)): per-benchmark costs, speedup, \
           synthesis time, search statistics and the branch-and-bound \
           bound trajectory.  Validate with $(b,stenso report FILE)."
      $ path_arg [ "tiers-report" ]
          "Run the tiered-serving comparison instead of a plain suite run \
           — baseline full search, then a cold and a warm tiered pass \
           against the store's mined rule database (requires \
           $(b,--rules-depth)) — and write it as $(b,stenso.tiers/1).  \
           Validate with $(b,stenso report FILE)."
      $ quiet_arg
          "Print only the deterministic result table (no progress or \
           timing lines).")

let mine_cmd =
  let depth_arg =
    Arg.(
      value & opt int 2
      & info [ "depth" ] ~docv:"N"
          ~doc:
            "Mining depth: the stub space enumerated and \
             batch-superoptimized per environment (2 is fast; 3 is much \
             larger but captures deeper optima).  Must match the \
             $(b,--rules-depth) serving uses.")
  in
  Cmd.v
    (Cmd.info "mine"
       ~doc:
         "Batch-superoptimize the bounded stub space of each benchmark \
          environment offline — every semantic duplicate the enumeration \
          collapses is an equivalence proven by construction — and \
          persist the generalized rewrite rules plus the per-spec optima \
          table into the store ($(b,stenso.rules/1)), where \
          $(b,optimize --rules-depth) serves from them.")
    Term.(
      const mine_run $ benchmarks_arg $ depth_arg $ jobs_arg $ estimator_arg
      $ cost_cache_arg $ store_dir_arg
      $ quiet_arg "Print only the final summary line.")

let run_cmd =
  let prog_pos_arg =
    Arg.(
      required
      & pos 0 (some non_dir_file) None
      & info [] ~docv:"PROG" ~doc:"Program file to execute.")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N"
          ~doc:"Random seed for the generated inputs.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Execute one tensor program on random seeded inputs through the \
          compiled VM and print the result.  With $(b,--verbose) it also \
          reports the plan: steps, fused operations, folded constants, \
          and arena reuse.  A malformed or ill-typed program exits 65 \
          ($(b,EX_DATAERR)).")
    Term.(
      const run_run $ prog_pos_arg $ exec_options_term
      $ seed_arg $ trace_arg $ verbose_arg)

let lift_cmd =
  let file_arg =
    Arg.(
      value
      & pos 0 (some non_dir_file) None
      & info [] ~docv:"FILE"
          ~doc:"Scalar loop-nest kernel to lift (the loop language).")
  in
  let bench_arg =
    Arg.(
      value & opt_all string []
      & info [ "bench" ] ~docv:"NAME"
          ~doc:
            "Lift a bundled kernel from the lifted benchmark tier \
             (repeatable; $(b,all) expands to every bundled kernel).")
  in
  let samples_arg =
    Arg.(
      value & opt int 3
      & info [ "samples" ] ~docv:"N"
          ~doc:
            "Input draws forming the value signature candidates are \
             pruned against before symbolic verification.")
  in
  let seed_arg =
    Arg.(
      value & opt int 0x11f7
      & info [ "seed" ] ~docv:"N" ~doc:"Random seed for the input draws.")
  in
  Cmd.v
    (Cmd.info "lift"
       ~doc:
         "Lift a scalar loop-nest kernel into the tensor DSL by \
          sketch-guided synthesis with value-based pruning, certify the \
          result symbolically and differentially against the loop \
          interpreter, then superoptimize it.  Exit status: 0 when every \
          kernel lifts, 1 on a failed lift, 65 ($(b,EX_DATAERR)) on a \
          malformed kernel file.")
    Term.(
      const lift_run $ file_arg $ bench_arg $ estimator_arg
      $ exec_options_term $ timeout_arg $ jobs_arg $ cost_cache_arg
      $ no_store_arg $ store_dir_arg $ samples_arg $ seed_arg
      $ path_arg [ "synth-out" ]
          "Write the lifted-and-optimized DSL program (inputs + \
           expression, re-parseable) to FILE instead of stdout."
      $ report_arg
          "Write a $(b,stenso.lift/1) JSON report: per-kernel sketch, \
           value-pruning and certification counters, lift/verify times, \
           success rate.  Validate with $(b,stenso report --min-success)."
      $ trace_arg
      $ quiet_arg "Print only the emitted DSL programs.")

let profile_cmd =
  let cache_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "cost-cache" ] ~docv:"FILE"
          ~doc:"Profiling table to create or extend.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run the measured cost model's offline profiling phase and \
          persist it to $(b,--cost-cache) for later runs.")
    Term.(const profile_run $ benchmarks_arg $ cache_arg $ extended_ops_arg)

let report_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some non_dir_file) None
      & info [] ~docv:"FILE" ~doc:"Report to validate.")
  in
  let min_speedup_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-speedup" ] ~docv:"X"
          ~doc:
            "For $(b,stenso.exec-bench/1) reports: fail unless every \
             benchmark's VM speedup is at least $(docv) and every \
             reduction-rooted benchmark fused at least one op.")
  in
  let min_success_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-success" ] ~docv:"RATE"
          ~doc:
            "For $(b,stenso.lift/1) reports: fail unless the lift \
             success rate is at least $(docv) (a fraction, e.g. 1.0).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Validate a JSON report — $(b,stenso.suite-report/1), \
          $(b,stenso.exec-bench/1), $(b,stenso.lift/1) and friends, \
          dispatched on its schema field — and print its summary.")
    Term.(const report_run $ file_arg $ min_speedup_arg $ min_success_arg)

let serve_cmd =
  let workers_arg =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker domains serving requests concurrently.")
  in
  let queue_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-capacity" ] ~docv:"N"
          ~doc:
            "Pending-request bound; beyond it requests are shed \
             immediately with a $(b,busy) response.")
  in
  let tcp_arg =
    Arg.(
      value & opt_all string []
      & info [ "tcp" ] ~docv:"HOST:PORT"
          ~doc:
            "Also listen on a TCP endpoint (repeatable).  Port 0 binds \
             an ephemeral port; the daemon prints one $(b,listening on) \
             line per listener with the bound address.")
  in
  let max_conns_arg =
    Arg.(
      value & opt int 1024
      & info [ "max-conns" ] ~docv:"N"
          ~doc:
            "Open-connection bound; beyond it new connections receive \
             the $(b,busy) response and are closed at accept.")
  in
  let read_deadline_arg =
    Arg.(
      value & opt float 30.
      & info [ "read-deadline" ] ~docv:"SECONDS"
          ~doc:
            "Seconds a partial request line may sit without progress \
             before its connection is closed (slow-loris guard); idle \
             connections with no partial line are unaffected.")
  in
  let write_deadline_arg =
    Arg.(
      value & opt float 30.
      & info [ "write-deadline" ] ~docv:"SECONDS"
          ~doc:"Seconds a response write may take before the connection \
                is dropped.")
  in
  let no_refine_arg =
    Arg.(
      value & flag
      & info [ "no-refine" ]
          ~doc:
            "Disable background refinement: tier-1/2 answers are served \
             as-is and never upgraded to the full-search optimum on \
             spare worker capacity.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the long-lived synthesis daemon: NDJSON requests over a \
          Unix-domain socket and/or TCP ($(b,--tcp)), answered \
          cache-first from the persistent store by a bounded worker \
          pool.  Identical in-flight requests coalesce onto one \
          synthesis, and answers served without a full search are \
          refined to the search optimum in the background.  \
          SIGINT/SIGTERM shut it down gracefully.  $(b,--socket \"\") \
          disables the Unix listener.")
    Term.(
      const serve_run $ socket_arg $ tcp_arg $ workers_arg $ queue_arg
      $ max_conns_arg $ read_deadline_arg $ write_deadline_arg
      $ no_refine_arg $ estimator_arg $ exec_options_term $ timeout_arg
      $ no_bnb_arg $ no_simp_arg $ extended_ops_arg $ cost_cache_arg
      $ rules_depth_arg $ no_store_arg $ store_dir_arg $ trace_arg)

let request_cmd =
  let id_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "id" ] ~docv:"ID"
          ~doc:"Request id echoed back in the response.")
  in
  let req_estimator_arg =
    Arg.(
      value
      & opt (some string) None
      & info
          [ "cost_estimator"; "cost-estimator" ]
          ~docv:"NAME" ~doc:"Per-request cost estimator override.")
  in
  let req_timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Per-request synthesis budget override.")
  in
  let io_timeout_arg =
    Arg.(
      value & opt float 30.
      & info [ "io-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Transport deadline for the whole exchange: connecting to \
             the daemon is retried with backoff until it, and the \
             socket reads/writes are bounded by the remaining budget.")
  in
  let endpoints_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "endpoints" ] ~docv:"EP,EP,..."
          ~doc:
            "Comma-separated replica endpoints ($(b,HOST:PORT), \
             $(b,tcp://HOST:PORT) or $(b,unix://PATH)), tried \
             round-robin with failover.  Default: the $(b,--socket) \
             Unix path.")
  in
  let busy_retries_arg =
    Arg.(
      value & opt int 3
      & info [ "busy-retries" ] ~docv:"N"
          ~doc:
            "Extra attempts (with full-jitter exponential backoff) when \
             every replica sheds the request as $(b,busy).")
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Send one program to running $(b,stenso serve) daemon(s) and \
          print the response line.  Exit status: 0 on $(b,ok:true), 1 on \
          $(b,ok:false) or transport failure, 75 ($(b,EX_TEMPFAIL)) when \
          every replica stayed busy through the jittered retries.")
    Term.(
      const request_run $ endpoints_arg $ socket_arg $ program_arg $ id_arg
      $ req_estimator_arg $ req_timeout_arg $ io_timeout_arg
      $ busy_retries_arg)

let loadgen_cmd =
  let endpoints_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "endpoints" ] ~docv:"EP,EP,..."
          ~doc:
            "Comma-separated replica endpoints to spread the load over \
             (default: the default Unix socket).")
  in
  let concurrency_arg =
    Arg.(
      value & opt int 32
      & info [ "c"; "concurrency" ] ~docv:"N"
          ~doc:"Concurrent keep-alive client connections (closed loop).")
  in
  let duration_arg =
    Arg.(
      value & opt float 10.
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Measured-phase length.")
  in
  let timeout_arg =
    Arg.(
      value & opt float 30.
      & info [ "request-timeout" ] ~docv:"SECONDS"
          ~doc:"Per-exchange deadline during the measured phase.")
  in
  let no_warmup_arg =
    Arg.(
      value & flag
      & info [ "no-warmup" ]
          ~doc:
            "Skip the warmup pass (each program once before measuring) \
             — the measured phase then includes cold synthesis times.")
  in
  let warmup_timeout_arg =
    Arg.(
      value & opt float 600.
      & info [ "warmup-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-exchange deadline during warmup (cold requests may run \
             a full synthesis).")
  in
  let settle_arg =
    Arg.(
      value & opt float 0.
      & info [ "settle" ] ~docv:"SECONDS"
          ~doc:
            "Pause between warmup and measurement, letting background \
             refinement drain so the measured phase hits a fully warm \
             store.")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Replay the benchmark suite against running $(b,stenso serve) \
          daemon(s) from a closed-loop pool of keep-alive connections, \
          and report throughput plus p50/p95/p99 latency split by \
          serving tier ($(b,stenso.serve-load/1)).")
    Term.(
      const loadgen_run $ endpoints_arg $ benchmarks_arg $ concurrency_arg
      $ duration_arg $ timeout_arg $ no_warmup_arg $ warmup_timeout_arg
      $ settle_arg $ estimator_arg
      $ report_arg
          "Write the $(b,stenso.serve-load/1) JSON report to FILE \
           (default: stdout).  Validate with $(b,stenso report FILE)."
      $ quiet_arg "Print only the report (no progress lines).")

let bench_cmd =
  let sections_arg =
    let names = List.map (fun (name, _, _) -> (name, name)) Bench.sections in
    Arg.(
      value & pos_all (enum names) []
      & info [] ~docv:"SECTION"
          ~doc:
            ("Sections to run (default: all, in the order listed here); \
              each $(docv) must be "
            ^ doc_alts_enum names ^ "."))
  in
  let full_arg =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:
            "Paper budgets: the 600 s Fig. 5 timeout and longer timing \
             windows and synthesis budgets.")
  in
  let bench_run sections full out report exec jobs =
    let writes_report name =
      List.exists (fun (n, writes, _) -> n = name && writes) Bench.sections
    in
    match (report, sections) with
    | Some _, ([] | _ :: _ :: _) ->
        `Error (true, "--report needs exactly one SECTION")
    | Some _, [ name ] when not (writes_report name) ->
        `Error (true, Printf.sprintf "section %s writes no --report" name)
    | _ ->
        let config = config_of ~exec ~jobs:(max 1 jobs) "measured" in
        `Ok (Bench.run ~config ~full ~out ~report sections)
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Regenerate the paper's evaluation — Tables I–II, Figures 4–8, \
          the Section VII-D rules — plus the ablations, the execution-, \
          ML- and lifting-tier points and real wall-clock timings, under \
          the measured cost model.")
    Term.(
      ret
        (const bench_run $ sections_arg $ full_arg
        $ path_arg ~docv:"DIR" [ "out" ]
            "Also write fig*.csv data files and the synthesized programs \
             to DIR, like the paper artifact's $(b,out/) directory."
        $ report_arg
            "Write the one named SECTION's JSON report to FILE: the suite \
             report for $(b,tables), $(b,fig4), $(b,fig6)-$(b,fig8), \
             $(b,rules), $(b,egraph) and $(b,wallclock); \
             $(b,stenso.exec-bench/1) for $(b,vm), $(b,stenso.mlsuite/1) \
             for $(b,mlsuite), $(b,stenso.lift/1) for $(b,lift).  Any \
             other SECTION, or not exactly one, is a usage error."
        $ exec_options_term $ jobs_arg))

let cmd =
  let doc = "STENSO: tensor-program superoptimization by symbolic synthesis" in
  Cmd.group ~default:optimize_term
    (Cmd.info "stenso" ~doc ~version:Stenso.Version.current)
    [
      optimize_cmd;
      suite_cmd;
      mine_cmd;
      run_cmd;
      lift_cmd;
      profile_cmd;
      report_cmd;
      serve_cmd;
      request_cmd;
      loadgen_cmd;
      bench_cmd;
    ]

let () = exit (Cmd.eval cmd)
