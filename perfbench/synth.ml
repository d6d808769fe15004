(* synth_cold and tiered_cold: cold superoptimization, one
   [Superopt.optimize] call per program against an empty outcome store.

   synth_cold: the paper's 33 programs plus the 9 ML kernels, flops
   estimator, one domain, no rules database.  tiered_cold: the 33 paper
   programs with [rules_depth 2] against a depth-2 rules database that
   [Mine.mine] builds during set-up.

   The untraced run times only the [optimize] calls.  The traced run
   makes the same calls with a recording telemetry sink, re-parents the
   sink's phase spans under each call, and replays the public steps the
   call performs but does not report (cost estimation, verification,
   store key/lookup/write, rules-database lookup, rule rewriting) on the
   same inputs to attribute the rest. *)

module S = Stenso
module B = Suite.Benchmarks
module L = Ledger

type kind = Cold | Tiered

let name = function Cold -> "synth_cold" | Tiered -> "tiered_cold"

let benches = function Cold -> B.all @ B.ml | Tiered -> B.all

(* The programs as source text: the benchmark parses them itself. *)
let sources kind =
  List.map
    (fun (b : B.t) -> (b.name, Dsl.Parser.unparse b.env b.program))
    (benches kind)

let depth = 2

let config kind =
  let c =
    S.Config.default
    |> S.Config.with_estimator `Flops
    |> S.Config.with_jobs 1 |> S.Config.with_timeout 60.
  in
  match kind with Cold -> c | Tiered -> S.Config.with_rules_depth depth c

type program = { pname : string; env : Dsl.Types.env; prog : Dsl.Ast.t }

let parse (pname, text) =
  let env, prog = Dsl.Parser.program text in
  { pname; env; prog }

let rec copy_tree src dst =
  match Unix.lstat src with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Util.mkdir_p dst;
      Array.iter
        (fun e -> copy_tree (Filename.concat src e) (Filename.concat dst e))
        (Sys.readdir src)
  | _ ->
      let ic = open_in_bin src in
      let s =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let oc = open_out_bin dst in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc s)

let cost_ratio (o : S.Superopt.outcome) =
  if o.optimized_cost > 0. then o.original_cost /. o.optimized_cost else 1.

type result = {
  rname : string;
  latencies : float list;  (** the cold call, then any re-timings *)
  outcome : S.Superopt.outcome option;
  key_builds : int;
  error : string option;
}

let exact r =
  match r.outcome with
  | None -> (r.rname, [ ("error", Option.value ~default:"" r.error) ])
  | Some o ->
      ( r.rname,
        [
          ("optimized", Dsl.Ast.to_string o.optimized);
          ("cost_ratio", Util.float_str (cost_ratio o));
          ("tier", string_of_int o.tier);
          ("search.nodes", string_of_int o.search.stats.nodes);
          ("spec.key_builds", string_of_int r.key_builds);
        ] )

(* Judge one outcome: verified, in time, and equal to the original under
   the reference interpreter. *)
let judge ~seed p (o : S.Superopt.outcome) =
  if not o.verified then Some "unverified outcome"
  else if o.search.stats.timed_out then Some "search timed out"
  else
    let st = Random.State.make [| seed; Hashtbl.hash p.pname |] in
    match
      Check.equivalent st ~env:p.env ~original:p.prog ~optimized:o.optimized
    with
    | Ok () -> None
    | Error e -> Some e

(* Per-layer accumulators of the traced run. *)
type acc = (string, float) Hashtbl.t

let bump (acc : acc) k v =
  Hashtbl.replace acc k (v +. Option.value ~default:0. (Hashtbl.find_opt acc k))

let get (acc : acc) k = Option.value ~default:0. (Hashtbl.find_opt acc k)

let sink_count sink name =
  float_of_int
    (Option.value ~default:0 (List.assoc_opt name (S.Telemetry.counters sink)))

let sink_acc sink name =
  Option.value ~default:0. (List.assoc_opt name (S.Telemetry.accs sink))

(* Replay, under [parent], the public steps [optimize] ran internally
   for this program, timing each as a span of its own. *)
let replay led acc ~kind ~config ~model ~store ~probe ~parent
    (p : program) (o : S.Superopt.outcome) =
  let req = p.pname in
  let step name f =
    let r, _, _ = L.span led ~parent ~kind:"replay" ~req name f in
    r
  in
  let env = p.env in
  (* Cost: [optimize] prices the original once, [superoptimize] once
     more plus the synthesized candidate; tier 2 prices the original. *)
  step "cost" (fun () ->
      let n = if o.tier = 3 then 2 else 1 in
      for _ = 1 to n do
        ignore (Cost.Model.program_cost model env p.prog)
      done;
      if o.improved then ignore (Cost.Model.program_cost model env o.optimized));
  if o.improved then begin
    step "verify.symbolic" (fun () ->
        ignore (S.Superopt.robust_equivalent ~env p.prog o.optimized));
    if o.tier = 2 then begin
      let (), _, vid =
        L.span led ~parent ~kind:"replay" ~req "verify.concrete" (fun () ->
            ignore (S.Superopt.validate_concrete ~env p.prog o.optimized))
      in
      (* Its VM compile of the candidate, at synthesis shapes. *)
      ignore
        (L.span led ~parent:vid ~kind:"replay" ~req "exec.compile" (fun () ->
             S.Exec.compile ~env o.optimized))
    end
  end;
  let spec = Dsl.Sexec.exec_env env p.prog in
  let key =
    step "store.lookup" (fun () ->
        let key = S.Superopt.store_key ~config ~model ~env ~spec p.prog in
        ignore (S.Store.find_outcome probe ~key);
        key)
  in
  step "store.write" (fun () ->
      S.Store.record_outcome probe ~key
        {
          S.Store.version = S.Version.current;
          original = Dsl.Parser.unparse env p.prog;
          optimized = Dsl.Parser.unparse env o.optimized;
          improved = o.improved;
          original_cost = o.original_cost;
          optimized_cost = o.optimized_cost;
          stats = o.search.stats;
          refined = o.refined;
        });
  match kind with
  | Cold -> ()
  | Tiered -> (
      let db =
        step "rules_db.find" (fun () ->
            S.Rules_db.find store
              ~key:(S.Rules_db.key ~env ~model_id:model.Cost.Model.name ~depth))
      in
      match db with
      | None -> ()
      | Some db ->
          let rules = List.map (fun r -> r.S.Rules_db.rule) db.S.Rules_db.rules in
          let cost q =
            if Dsl.Types.well_typed env q then
              try Cost.Model.program_cost model env q with _ -> infinity
            else infinity
          in
          step "tier2.rules" (fun () ->
              ignore (S.Rules.apply_fixpoint ~max_steps:64 ~cost rules p.prog));
          (* E-graph size only: saturation time comes from the sink. *)
          (try
             let g = S.Egraph.create env in
             ignore (S.Egraph.add g p.prog);
             let st = S.Egraph.saturate ~rules g in
             bump acc "tier2.egraph_nodes" (float_of_int st.S.Egraph.nodes)
           with S.Egraph.Unsupported _ -> ()))

(* A tier-2 answer changes no shared state but its own outcome-store
   entry, so the same cold request is timed again after invalidating that
   entry: tier-2 answers take milliseconds, too short for one sample to
   be steady. *)
let retimings = 4

let retime ~config ~model ~store ~stub_cache p =
  let spec = Dsl.Sexec.exec_env p.env p.prog in
  let key = S.Superopt.store_key ~config ~model ~env:p.env ~spec p.prog in
  List.init retimings (fun _ ->
      S.Store.invalidate store key;
      snd
        (Util.time (fun () ->
             S.Superopt.optimize ~config ~store ~stub_cache ~model ~env:p.env
               p.prog)))

let run_program ~opts ~kind ~config ~model ~store ~stub_cache ~probe led acc p
    =
  let key_builds () =
    let b, _, _ = S.Spec.key_stats () in
    b
  in
  let b0 = key_builds () in
  let sink =
    if opts.Workload.trace then S.Telemetry.create () else S.Telemetry.null
  in
  let base = Util.now () in
  match
    L.span led ~req:p.pname "superopt.optimize" (fun () ->
        S.Superopt.optimize ~tel:sink ~config ~store ~stub_cache ~model
          ~env:p.env p.prog)
  with
  | exception e ->
      {
        rname = p.pname;
        latencies = [ Util.now () -. base ];
        outcome = None;
        key_builds = 0;
        error = Some ("exception " ^ Printexc.to_string e);
      }
  | o, latency, sid ->
      let key_builds = key_builds () - b0 in
      if opts.trace then begin
        let phases =
          L.import_sink led ~parent:sid ~req:p.pname ~base sink
            ~names:
              [
                ("phase.symbolic_exec", "sexec");
                ("phase.stub_enum", "stub.enum");
                ("phase.search", "search");
              ]
        in
        (* Key building happens inside the search; the sink reports it as
           an accumulated duration. *)
        let key_s = sink_acc sink "spec.key_build_seconds" in
        (match List.assoc_opt "search" phases with
        | Some (search_id, _) when key_s > 0. ->
            ignore
              (L.record led ~parent:search_id ~kind:"sink" ~req:p.pname
                 "spec.key" ~start:base ~dur:key_s)
        | _ -> ());
        let sat_ms = sink_acc sink "tier.saturation_ms" in
        if sat_ms > 0. then
          ignore
            (L.record led ~parent:sid ~kind:"sink" ~req:p.pname
               "tier2.saturate" ~start:base ~dur:(sat_ms /. 1000.));
        List.iter
          (fun n -> bump acc n (sink_count sink n))
          [
            "spec.key_builds"; "spec.key_cache_hits"; "invert.proposed";
            "invert.solved"; "tier.rules_applied";
          ];
        List.iter
          (fun (e : S.Telemetry.event) ->
            if e.name = "stub.library" then
              match List.assoc_opt "attempts" e.fields with
              | Some (S.Telemetry.Int n) -> bump acc "stub.attempts" (float_of_int n)
              | _ -> ())
          (S.Telemetry.events sink);
        if o.tier = 3 then
          List.iter
            (fun (n, (_, dur)) -> if n = "search" then bump acc "tier3.search_s" dur)
            phases;
        replay led acc ~kind ~config ~model ~store ~probe ~parent:sid p o
      end;
      let retimed =
        if kind = Tiered && o.tier = 2 && not opts.trace then
          retime ~config ~model ~store ~stub_cache p
        else []
      in
      {
        rname = p.pname;
        latencies = latency :: retimed;
        outcome = Some o;
        key_builds;
        error = None;
      }

let run kind (opts : Workload.opts) =
  let wname = name kind in
  let srcs = Workload.select opts (sources kind) ~name:fst in
  let config = config kind in
  let tmp = Filename.concat opts.state ("tmp-" ^ wname) in
  Util.rm_rf tmp;
  Util.mkdir_p tmp;
  (* Set-up: parse the programs and instantiate the cost model (repeated;
     the median is reported); for tiered_cold, also mine the rules
     database and load it (below). *)
  let setup () =
    let progs = List.map parse srcs in
    (progs, S.Config.model config)
  in
  let (progs, model), first_setup = Util.time setup in
  (* More set-ups are sampled between the programs (outside their
     latency), so the reported median spans the run instead of one
     short window. *)
  let setup_samples = ref [ first_setup ] in
  let sample_setup () = setup_samples := snd (Util.time setup) :: !setup_samples in
  let mined = Filename.concat tmp "mined" in
  let mine_s =
    match kind with
    | Cold -> 0.
    | Tiered ->
        (* The distinct environments, split in a fixed way (even / odd
           positions) between two domains mining into one store. *)
        let envs =
          List.fold_left
            (fun acc p ->
              let key =
                S.Rules_db.key ~env:p.env ~model_id:model.Cost.Model.name ~depth
              in
              if List.mem_assoc key acc then acc else (key, (p.pname, p.env)) :: acc)
            [] progs
          |> List.rev_map snd
        in
        let half store r =
          ignore
            (S.Mine.mine ~depth ~model ~store
               (List.filteri (fun i _ -> i mod 2 = r) envs))
        in
        (* In a child process, so that mining's memory high-water mark
           (which varies with how the two domains overlap) does not set
           this process's peak_rss_mb. *)
        let _, dt =
          Util.time (fun () ->
              flush_all ();
              match Unix.fork () with
              | 0 -> (
                  try
                    let store = S.Store.open_store ~dir:mined () in
                    let other = Domain.spawn (fun () -> half store 1) in
                    half store 0;
                    Domain.join other;
                    S.Store.flush store;
                    Unix._exit 0
                  with e ->
                    prerr_endline ("mining: " ^ Printexc.to_string e);
                    Unix._exit 1)
              | pid -> (
                  match Unix.waitpid [] pid with
                  | _, Unix.WEXITED 0 -> ()
                  | _ ->
                      Workload.fail "tiered_cold" "mining process failed";
                      exit 1))
        in
        Printf.printf "mined depth-%d rules for %d programs in %.2f s\n%!"
          depth (List.length progs) dt;
        dt
  in

  let load_s = ref 0. in
  let led = L.create ~enabled:opts.trace in
  let acc : acc = Hashtbl.create 32 in
  let seed = opts.seed in
  (* Passes: every program once per pass against a fresh outcome store
     (a copy of the mined database for tiered_cold) and a fresh stub
     cache; at least one pass, more while time remains. *)
  let deadline = Util.now () +. opts.seconds in
  let rec passes k acc_results =
    if k > 0 && Util.now () >= deadline then List.rev acc_results
    else begin
      let dir = Filename.concat tmp (Printf.sprintf "pass%d" k) in
      (match kind with Tiered -> copy_tree mined dir | Cold -> ());
      let store = S.Store.open_store ~dir () in
      (* Load (decode) the rules database of every environment up front,
         as a serving process holding it would have: the one-time decode
         takes longer than most tier-2 answers. *)
      (match kind with
      | Cold -> ()
      | Tiered ->
          let (), dt =
            Util.time (fun () ->
                List.iter
                  (fun p ->
                    ignore
                      (S.Rules_db.find store
                         ~key:
                           (S.Rules_db.key ~env:p.env
                              ~model_id:model.Cost.Model.name ~depth)))
                  progs)
          in
          if k = 0 then load_s := dt);
      let probe =
        S.Store.open_store ~dir:(Filename.concat tmp (Printf.sprintf "probe%d" k)) ()
      in
      let stub_cache = S.Stub.Cache.create () in
      let results =
        List.map
          (fun p ->
            let r =
              run_program ~opts ~kind ~config ~model ~store ~stub_cache ~probe
                led acc p
            in
            if opts.trace then
              ignore
                (L.span led ~req:p.pname "dsl.parse" (fun () ->
                     Dsl.Parser.program (List.assoc p.pname srcs)));
            sample_setup ();
            r)
          progs
      in
      passes (k + 1) (results :: acc_results)
    end
  in
  let all = passes 0 [] in
  let first = List.hd all in
  (* Correctness of every result, and determinism across passes. *)
  let failed = ref 0 in
  List.iter
    (fun results ->
      List.iter2
        (fun p r ->
          let err =
            match (r.error, r.outcome) with
            | Some e, _ -> Some e
            | None, Some o -> judge ~seed p o
            | None, None -> Some "no outcome"
          in
          Option.iter
            (fun e ->
              incr failed;
              Workload.fail p.pname e)
            err)
        progs results)
    all;
  let exact_first = List.map exact first in
  List.iteri
    (fun k results ->
      if k > 0 then
        ignore
          (Workload.compare_exact
             ~label:(Printf.sprintf "pass %d vs pass 0" k)
             ~prev:exact_first (List.map exact results)))
    all;
  let items =
    List.map
      (fun p ->
        ( p.pname,
          List.map
            (fun results ->
              (List.find (fun r -> r.rname = p.pname) results).latencies)
            all
          |> List.concat ))
      progs
  in
  List.iter
    (fun (name, l) ->
      Printf.printf "  %-16s %s ms\n" name
        (String.concat " " (List.map (fun x -> Printf.sprintf "%.1f" (x *. 1000.)) l)))
    items;
  let samples = List.concat_map snd items in
  let total = Util.sum (List.map (fun (_, l) -> List.hd l) items) in
  let layers =
    if not opts.trace then begin
      Workload.untraced_done opts wname ~total exact_first;
      []
    end
    else begin
      let untraced = Workload.traced_done opts wname exact_first in
      let ms n = L.self_ms led n in
      let steps =
        [
          "sexec"; "stub.enum"; "search"; "spec.key"; "verify.symbolic";
          "verify.concrete"; "exec.compile"; "cost"; "store.lookup"; "store.write";
          "rules_db.find"; "tier2.rules"; "tier2.saturate";
        ]
      in
      let npasses = float_of_int (List.length all) in
      let e2e_ms = L.total_ms led "superopt.optimize" /. npasses in
      let steps_ms = Util.sum (List.map ms steps) /. npasses in
      L.print_layers led;
      let unaccounted, overhead =
        Workload.print_ledger_line wname ~e2e_ms ~steps_ms ~traced_total:total
          ~untraced_total:untraced
      in
      let outcomes = List.filter_map (fun r -> r.outcome) first in
      let stat f = float_of_int (List.fold_left (fun a (o : S.Superopt.outcome) -> a + f o.search.stats) 0 outcomes) in
      let memo_h = stat (fun s -> s.S.Search.memo_hits)
      and memo_m = stat (fun s -> s.S.Search.memo_misses) in
      let per_pass n = get acc n /. npasses in
      let builds = per_pass "spec.key_builds" and hits = per_pass "spec.key_cache_hits" in
      let frac a b = if a +. b > 0. then a /. (a +. b) else 0. in
      let n_tier2 =
        List.length (List.filter (fun (o : S.Superopt.outcome) -> o.tier = 2) outcomes)
      in
      [
        ("dsl.parse_ms", L.total_ms led "dsl.parse" /. npasses);
        ("sexec.ms", ms "sexec" /. npasses);
        ("stub.enum_ms", ms "stub.enum" /. npasses);
        ("search.ms", ms "search" /. npasses);
        ("verify.symbolic_ms", ms "verify.symbolic" /. npasses);
        ("verify.concrete_ms", ms "verify.concrete" /. npasses);
        ("cost.ms", ms "cost" /. npasses);
        ("store.lookup_ms", ms "store.lookup" /. npasses);
        ("store.write_ms", ms "store.write" /. npasses);
        ("spec.key_ms", ms "spec.key" /. npasses);
        ("spec.key_builds", builds);
        ("spec.key_hit_ratio", frac hits builds);
        ("stub.attempts", per_pass "stub.attempts");
        ("stub.library_size", stat (fun s -> s.S.Search.library_size));
        ("search.nodes", stat (fun s -> s.S.Search.nodes));
        ("search.decomps", stat (fun s -> s.S.Search.decomps));
        ("search.pruned_simp", stat (fun s -> s.S.Search.pruned_simp));
        ("search.pruned_bnb", stat (fun s -> s.S.Search.pruned_bnb));
        ("search.memo_hit_ratio", frac memo_h memo_m);
        ( "invert.solved_ratio",
          let p = get acc "invert.proposed" in
          if p > 0. then get acc "invert.solved" /. p else 0. );
        ("unaccounted_ms", unaccounted);
        ("trace.overhead_ms", Option.value ~default:0. overhead);
        ("mine.s", mine_s);
        ("rules_db.find_ms", ms "rules_db.find" /. npasses);
        ("tier2.rules_ms", ms "tier2.rules" /. npasses);
        ("tier2.saturate_ms", ms "tier2.saturate" /. npasses);
        ("tier2.egraph_nodes", per_pass "tier2.egraph_nodes");
        ("tier2.rules_applied", per_pass "tier.rules_applied");
        ( "tier2.answered_ratio",
          Util.ratio n_tier2 (List.length outcomes) );
        ("tier3.search_ms", per_pass "tier3.search_s" *. 1000.);
        ( "exec.compile_us",
          match List.assoc_opt "exec.compile" (L.layers led) with
          | Some (n, total, _) -> 1e6 *. total /. float_of_int n
          | None -> 0. );
      ]
    end
  in
  if opts.trace then
    L.write_ndjson led
      (Filename.concat opts.state
         (Printf.sprintf "trace-%s-%d.ndjson" wname opts.seed));
  Util.rm_rf tmp;
  let n = List.length progs * List.length all in
  {
    Workload.setup = Util.median !setup_samples +. mine_s +. !load_s;
    items;
    samples;
    completed = List.length samples;
    busy = Util.sum samples;
    cost_ratios =
      List.filter_map (fun r -> Option.map cost_ratio r.outcome) first;
    rss_mb = Util.peak_rss_mb ();
    attempted = n;
    failed = !failed;
    layers;
  }
