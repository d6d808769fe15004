(* Tiered serving end to end: offline mining into the store
   ([stenso.rules/1]), tier-2 certification (optima lookup + e-graph
   saturation with the mined rules, fully re-verified, attributed to its
   source), tier-1 repeats, and the tier-3 fallback with database
   feedback. *)
open Dsl
open Stenso

let p = Parser.expression
let model = Cost.Model.flops

let config =
  Config.default
  |> Config.with_estimator `Flops
  |> Config.with_rules_depth 2

let bench name =
  match Suite.Benchmarks.find_opt name with
  | Some b -> b
  | None -> Alcotest.failf "unknown benchmark %s" name

(* A fresh store directory per call; tests must not share state. *)
let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "stenso-tiers-%d-%d" (Unix.getpid ()) !n)
    in
    dir

let env2 =
  [ ("A", Types.float_t [| 3; 3 |]); ("B", Types.float_t [| 3; 3 |]) ]

let test_mine_env () =
  let db, stats = Mine.mine_env ~depth:2 ~model env2 in
  Alcotest.(check bool) "rules mined" true (stats.rules > 0);
  Alcotest.(check bool) "optima recorded" true (stats.optima > 0);
  (* every mined rule is closed and strictly gainful *)
  List.iter
    (fun (r : Rules_db.rule) ->
      if not (Rules.closed r.rule) then
        Alcotest.failf "open rule mined: %s" (Rules.to_string r.rule);
      if r.gain <= 0. then
        Alcotest.failf "gainless rule mined: %s" (Rules.to_string r.rule))
    db.rules;
  (* exp(log(X)) ⇒ X is minable at depth 2 and applies to fresh terms *)
  let target = p "np.exp(np.log(np.add(P, Q)))" in
  let eliminates (r : Rules_db.rule) =
    match Rules.apply_once r.rule target with
    | Some r -> Ast.equal r (p "np.add(P, Q)")
    | None -> false
  in
  Alcotest.(check bool) "exp∘log eliminated by some mined rule" true
    (List.exists eliminates db.rules);
  (* the optima table knows the cheapest implementation of this spec *)
  let concrete = p "np.exp(np.log(np.add(A, B)))" in
  let spec = Sexec.exec_env env2 concrete in
  match Rules_db.lookup_optimum db (Rules_db.spec_digest (Spec.key spec)) with
  | Some (cost, prog) ->
      Alcotest.(check (float 1e-9)) "optimum cost" 9. cost;
      Alcotest.(check bool) "optimum is equivalent" true
        (Sexec.equivalent env2 concrete prog)
  | None -> Alcotest.fail "spec missing from the optima table"

let test_truncated_mine () =
  (* A capped enumeration must stamp the entry truncated and refuse to
     mint optima from the partial library — a "cheapest known program"
     claim over a space the miner never finished exploring would let
     tier 2 certify beatable answers. *)
  let db, stats = Mine.mine_env ~max_stubs:5 ~depth:2 ~model env2 in
  Alcotest.(check bool) "stats flag truncation" true stats.truncated;
  Alcotest.(check bool) "entry stamped truncated" true db.truncated;
  Alcotest.(check int) "no optima from a truncated library" 0
    (Rules_db.optima_count db);
  (* the flag survives the store round-trip *)
  let dir = fresh_dir () in
  let key =
    Rules_db.key ~env:env2 ~model_id:model.Cost.Model.name ~depth:2
  in
  let store = Store.open_store ~dir () in
  Rules_db.record store ~key db;
  let store' = Store.open_store ~dir () in
  (match Rules_db.find store' ~key with
  | Some db' ->
      Alcotest.(check bool) "truncated flag round-trips" true db'.truncated
  | None -> Alcotest.fail "recorded entry not found");
  (* tier-3 feedback grows the entry without clearing the mark *)
  Rules_db.record_feedback store' ~key ~model_id:model.Cost.Model.name
    ~depth:2 ~spec_digest:"deadbeef" ~cost:1. ~prog:"A" ();
  (match Rules_db.find store' ~key with
  | Some db' ->
      Alcotest.(check bool) "feedback preserves truncation" true
        db'.truncated;
      Alcotest.(check int) "feedback optimum recorded" 1
        (Rules_db.optima_count db')
  | None -> Alcotest.fail "entry lost after feedback");
  (* an uncapped mine of the same environment is complete *)
  let db_full, stats_full = Mine.mine_env ~depth:2 ~model env2 in
  Alcotest.(check bool) "uncapped mine not truncated" false
    stats_full.truncated;
  Alcotest.(check bool) "uncapped mine publishes optima" true
    (Rules_db.optima_count db_full > 0)

let test_db_roundtrip_and_corruption () =
  let dir = fresh_dir () in
  let db, _ = Mine.mine_env ~depth:2 ~model env2 in
  let key =
    Rules_db.key ~env:env2 ~model_id:model.Cost.Model.name ~depth:2
  in
  let store = Store.open_store ~dir () in
  Rules_db.record store ~key db;
  (* The entry is streamed, not built as a tree: its file must still be
     exactly what [Json.to_string] prints for it, optima in digest
     order, so copies of one database stay byte-identical. *)
  let path = Store.entry_path store key in
  let contents = Option.get (Store.read_file path) in
  (match Obs.Telemetry.Json.of_string contents with
  | Ok doc ->
      Alcotest.(check string) "file is canonical JSON" contents
        (Obs.Telemetry.Json.to_string doc ^ "\n")
  | Error e -> Alcotest.failf "entry does not parse: %s" e);
  let digests =
    match Store.decode_entry ~schema:Rules_db.schema ~key contents with
    | Ok payload ->
        Obs.Telemetry.Json.(
          Option.bind (member "optima" payload) to_list_opt
          |> Option.get
          |> List.map (function
               | List (Str d :: _) -> d
               | _ -> Alcotest.fail "malformed optimum"))
    | Error e -> Alcotest.failf "envelope: %s" e
  in
  Alcotest.(check (list string)) "optima in digest order"
    (List.sort compare digests) digests;
  (* a fresh handle decodes the entry from disk *)
  let store' = Store.open_store ~dir () in
  (match Rules_db.find store' ~key with
  | Some db' ->
      Alcotest.(check int) "rules survive the round-trip"
        (List.length db.rules) (List.length db'.rules);
      Alcotest.(check bool) "optima survive the round-trip" true
        (Rules_db.optima_sorted db = Rules_db.optima_sorted db');
      Alcotest.(check int) "depth preserved" db.depth db'.depth
  | None -> Alcotest.fail "recorded entry not found");
  (* corrupt the on-disk payload: a fresh handle must treat it as a
     miss (and delete it), never raise *)
  let oc = open_out path in
  output_string oc "{ definitely not a rules payload";
  close_out oc;
  let store'' = Store.open_store ~dir () in
  Alcotest.(check bool) "corrupt entry reads as a miss" true
    (Rules_db.find store'' ~key = None);
  Alcotest.(check bool) "corrupt entry deleted" false (Sys.file_exists path)

(* The decode cache keeps one decode per entry's bytes and one view per
   key: a store over a copy of the same entry reuses the decode instead
   of parsing it again (and sees none of the other store's feedback),
   and a feedback releases the previous view, so a process that opens
   store after store does not accumulate databases. *)
let test_db_decode_per_key () =
  let key =
    Rules_db.key ~env:env2 ~model_id:model.Cost.Model.name ~depth:2
  in
  let store = Store.open_store ~dir:(fresh_dir ()) () in
  Rules_db.record store ~key (fst (Mine.mine_env ~depth:2 ~model env2));
  let copy = Store.open_store ~dir:(fresh_dir ()) () in
  Store.write_atomic (Store.entry_path copy key)
    (Option.get (Store.read_file (Store.entry_path store key)));
  let base =
    match (Rules_db.find store ~key, Rules_db.find copy ~key) with
    | Some a, Some b ->
        Alcotest.(check bool) "copy shares the decode" true (a == b);
        a
    | _ -> Alcotest.fail "recorded entry not found"
  in
  let feedback digest =
    Rules_db.record_feedback store ~key ~model_id:model.Cost.Model.name
      ~depth:2 ~spec_digest:digest ~cost:1. ~prog:"A" ();
    Option.get (Rules_db.find store ~key)
  in
  let view = Weak.create 1 in
  let first = feedback "deadbeef" in
  Alcotest.(check bool) "feedback shares the base's optima" true
    (Rules_db.optimum first "deadbeef" = Some (1., "A")
    && Rules_db.optima_count first = Rules_db.optima_count base + 1);
  Weak.set view 0 (Some first);
  ignore (feedback "feedbeef");
  (match Rules_db.find copy ~key with
  | Some b ->
      Alcotest.(check bool) "copy keeps the base decode" true (b == base);
      Alcotest.(check bool) "copy sees no other store's feedback" true
        (Rules_db.optimum b "deadbeef" = None)
  | None -> Alcotest.fail "copy lost its entry");
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "feedback releases the previous view" false
    (Weak.check view 0)

(* Feedback goes to an append-only journal beside the entry: visible at
   once in this process and to any handle on the directory, the entry
   file untouched, a torn last line skipped, compaction lossless, and
   the journal gone once the entry is re-mined or invalidated. *)
let test_feedback_journal () =
  let key =
    Rules_db.key ~env:env2 ~model_id:model.Cost.Model.name ~depth:2
  in
  let dir = fresh_dir () in
  let store = Store.open_store ~dir () in
  ignore (Mine.mine ~depth:2 ~model ~store [ ("env2", env2) ]);
  let entry = Store.entry_path store key in
  let journal = Store.journal_path store key in
  let mined = Option.get (Store.read_file entry) in
  let rule =
    Rules.generalize
      (p "np.triu(np.tril(np.triu(A + B)))")
      (p "np.diag(np.diag(A + B))")
  in
  let rule_id (r : Rules.t) = Rules.to_string r in
  let feedback ?rule ?(cost = 1.) digest =
    Rules_db.record_feedback store ~key ~model_id:model.Cost.Model.name
      ~depth:2 ?rule ~spec_digest:digest ~cost ~prog:"A" ()
  in
  let db store =
    match Rules_db.find store ~key with
    | Some db -> db
    | None -> Alcotest.fail "rules entry vanished"
  in
  let has_rule (db : Rules_db.t) r =
    List.exists (fun (e : Rules_db.rule) -> rule_id e.rule = rule_id r) db.rules
  in
  let check_fed what store =
    let db = db store in
    Alcotest.(check bool) (what ^ ": optimum") true
      (Rules_db.optimum db "deadbeef" = Some (1., "A"));
    Alcotest.(check bool) (what ^ ": rule") true (has_rule db rule)
  in
  feedback ~rule:(rule, 1e6) "deadbeef";
  check_fed "in process" store;
  check_fed "fresh handle" (Store.open_store ~dir ());
  Alcotest.(check bool) "entry bytes unchanged" true
    (Store.read_file entry = Some mined);
  Alcotest.(check bool) "journal written" true (Sys.file_exists journal);
  (* A copy of both files decodes the entry anew and folds the whole
     journal, as a fresh process does. *)
  let copy = Store.open_store ~dir:(fresh_dir ()) () in
  Store.write_atomic (Store.entry_path copy key) mined;
  Store.write_atomic (Store.journal_path copy key)
    (Option.get (Store.read_file journal));
  check_fed "copy of the files" copy;
  (* A torn last line is skipped, and the next line survives it. *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 journal in
  output_string oc {|{"digest":"cafe","cost":0.5,"pr|};
  close_out oc;
  Alcotest.(check bool) "torn line skipped" true
    (Rules_db.optimum (db store) "cafe" = None);
  check_fed "after a torn line" store;
  feedback "f00d";
  Alcotest.(check bool) "line after a torn one" true
    (Rules_db.optimum (db store) "f00d" = Some (1., "A"));
  (* Not cheaper, no new rule: nothing to append. *)
  let size () = (Unix.stat journal).st_size in
  let before = size () in
  feedback ~rule:(rule, 1e6) ~cost:2. "deadbeef";
  Alcotest.(check int) "no-op feedback appends nothing" before (size ());
  (* Compaction: the journal line that makes it 256 lines long is
     folded into a rewritten entry that keeps every optimum and rule. *)
  let rec fill i =
    if i > 300 then Alcotest.fail "the journal was never compacted";
    let expected : Rules_db.t = db store in
    let digest = Printf.sprintf "d%03d" i in
    feedback digest;
    if Sys.file_exists journal then fill (i + 1)
    else (expected, digest)
  in
  let expected, last = fill 0 in
  let compacted : Rules_db.t = db (Store.open_store ~dir ()) in
  Alcotest.(check bool) "compaction rewrote the entry" true
    (Store.read_file entry <> Some mined);
  Alcotest.(check (list string)) "compaction keeps every rule"
    (List.map (fun (r : Rules_db.rule) -> rule_id r.rule) expected.rules)
    (List.map (fun (r : Rules_db.rule) -> rule_id r.rule) compacted.rules);
  Alcotest.(check bool) "compaction keeps every optimum" true
    (Rules_db.optima_sorted compacted
    = List.sort compare
        ((last, (1., "A")) :: Rules_db.optima_sorted expected));
  (* Re-mining replaces the entry and drops the journal. *)
  feedback "beef";
  Alcotest.(check bool) "journal before re-mining" true
    (Sys.file_exists journal);
  ignore (Mine.mine ~depth:2 ~model ~store [ ("env2", env2) ]);
  Alcotest.(check bool) "re-mining drops the journal" false
    (Sys.file_exists journal);
  Alcotest.(check bool) "re-mined entry has no feedback" true
    (Rules_db.optimum (db store) "beef" = None
    && not (has_rule (db store) rule));
  (* Two domains feeding one key both land. *)
  let feed prefix =
    for i = 0 to 19 do
      feedback (Printf.sprintf "%s%02d" prefix i)
    done
  in
  let other = Domain.spawn (fun () -> feed "x") in
  feed "y";
  Domain.join other;
  let fed = db store in
  for i = 0 to 19 do
    List.iter
      (fun prefix ->
        let d = Printf.sprintf "%s%02d" prefix i in
        if Rules_db.optimum fed d = None then Alcotest.failf "%s lost" d)
      [ "x"; "y" ]
  done;
  (* Invalidation deletes the journal with the entry. *)
  Store.invalidate store key;
  Alcotest.(check bool) "invalidated entry gone" false (Sys.file_exists entry);
  Alcotest.(check bool) "invalidated journal gone" false
    (Sys.file_exists journal)

(* The [source] field of the trace's one [tier.serve] event. *)
let served_source tel =
  match
    List.filter
      (fun (e : Telemetry.event) -> e.name = "tier.serve")
      (Telemetry.events tel)
  with
  | [ e ] -> (
      match List.assoc_opt "source" e.fields with
      | Some (Telemetry.Str s) -> Some s
      | _ -> None)
  | es -> Alcotest.failf "%d tier.serve events, expected one" (List.length es)

let test_tier2_then_tier1 () =
  let b = bench "log_exp_1" in
  let store = Store.open_store ~dir:(fresh_dir ()) () in
  ignore (Mine.mine ~depth:2 ~model ~store [ (b.name, b.env) ]);
  let tel = Telemetry.create () in
  let o1 = Superopt.optimize ~tel ~config ~store ~model ~env:b.env b.program in
  Alcotest.(check int) "first request answered by tier 2" 2 o1.tier;
  Alcotest.(check bool) "improved" true o1.improved;
  Alcotest.(check bool) "verified" true o1.verified;
  Alcotest.(check bool) "reaches the known optimum" true
    (Sexec.equivalent b.env o1.optimized b.expected_opt);
  (* the served answer stands up to the same scrutiny as a search
     result: symbolic robustness and VM differential validation *)
  Alcotest.(check bool) "robustly equivalent" true
    (Superopt.robust_equivalent ~env:b.env o1.original o1.optimized);
  Alcotest.(check bool) "validates concretely" true
    (Superopt.validate_concrete ~env:b.env o1.original o1.optimized);
  let counters = Telemetry.counters tel in
  Alcotest.(check (option int)) "tier2.hits counted" (Some 1)
    (List.assoc_opt "tier2.hits" counters);
  Alcotest.(check (option int)) "tier.hit counted" (Some 1)
    (List.assoc_opt "tier.hit" counters);
  (* the certified answer was recorded: the repeat is a tier-1 hit *)
  let o2 = Superopt.optimize ~config ~store ~model ~env:b.env b.program in
  Alcotest.(check int) "repeat answered by tier 1" 1 o2.tier;
  Alcotest.(check (float 1e-9)) "same cost" o1.optimized_cost
    o2.optimized_cost

(* A tiered request answered by tier 2 keys its spec exactly once: the
   outcome-store key and the optima-table digest share one spec key. *)
let test_tier2_request_keys_once () =
  let b = bench "log_exp_1" in
  let store = Store.open_store ~dir:(fresh_dir ()) () in
  ignore (Mine.mine ~depth:2 ~model ~store [ (b.name, b.env) ]);
  let h = Serve.handler ~store ~base:config () in
  let module Json = Telemetry.Json in
  let req =
    Json.(to_string (Obj [ ("program", Str (Parser.unparse b.env b.program)) ]))
  in
  let c = Spec.fresh_counters () in
  let resp = Spec.with_counters c (fun () -> Serve.handle_line h req) in
  Alcotest.(check (option int)) "answered by tier 2" (Some 2)
    (Option.bind
       (Result.to_option (Json.of_string resp))
       (fun doc -> Option.bind (Json.member "tier" doc) Json.to_int_opt));
  Alcotest.(check int) "one spec key built" 1 (fst (Spec.counters_stats c))

let test_tier3_feedback () =
  (* diag_dot's true optimum is depth 3 — outside the depth-2 mined
     space — so the first request must fall through to the search (no
     degraded tier-2 certification), whose result then feeds the
     database: a second store sharing the rules entry can replay it. *)
  let b = bench "diag_dot" in
  let store = Store.open_store ~dir:(fresh_dir ()) () in
  ignore (Mine.mine ~depth:2 ~model ~store [ (b.name, b.env) ]);
  let tel = Telemetry.create () in
  let o1 =
    Superopt.optimize ~tel ~config ~store ~model ~env:b.env b.program
  in
  Alcotest.(check int) "deep optimum forces tier 3" 3 o1.tier;
  Alcotest.(check (option string)) "no tier-2 candidate bounded the search"
    None (served_source tel);
  Alcotest.(check bool) "search improved it" true o1.improved;
  Alcotest.(check bool) "matches the expected optimum" true
    (Sexec.equivalent b.env o1.optimized b.expected_opt);
  (* the fed-back optimum is now in the rules database *)
  let key =
    Rules_db.key ~env:b.env ~model_id:model.Cost.Model.name ~depth:2
  in
  let db =
    match Rules_db.find store ~key with
    | Some db -> db
    | None -> Alcotest.fail "rules entry vanished"
  in
  let spec = Sexec.exec_env b.env b.program in
  (match Rules_db.lookup_optimum db (Rules_db.spec_digest (Spec.key spec)) with
  | Some (cost, prog) ->
      Alcotest.(check (float 1e-9)) "fed-back optimum cost"
        o1.optimized_cost cost;
      Alcotest.(check bool) "fed-back program equivalent" true
        (Sexec.equivalent b.env prog b.program)
  | None -> Alcotest.fail "tier-3 result was not fed back");
  (* The fed-back rule rewrites sum_diag_dot's inner diag(dot) in the
     same environment: saturation now reaches a certified answer that
     the optima table (whose entry costs more than the original) does
     not, so tier 2 serves it and names saturation as its source. *)
  let b = bench "sum_diag_dot" in
  let tel = Telemetry.create () in
  let o = Superopt.optimize ~tel ~config ~store ~model ~env:b.env b.program in
  Alcotest.(check int) "sum_diag_dot answered by tier 2" 2 o.tier;
  Alcotest.(check bool) "sum_diag_dot improved" true o.improved;
  Alcotest.(check (option string)) "served from saturation"
    (Some "saturation") (served_source tel)

(* log_exp_2's answer comes from the optima table: saturation only
   returns the original program there.  synth_5's spec has no optimum
   in the table, so it falls through to the search, bounded by the
   cheaper program saturation extracted. *)
let test_tier2_sources () =
  let serve name =
    let b = bench name in
    let store = Store.open_store ~dir:(fresh_dir ()) () in
    ignore (Mine.mine ~depth:2 ~model ~store [ (b.name, b.env) ]);
    let tel = Telemetry.create () in
    let o =
      Superopt.optimize ~tel ~config ~store ~model ~env:b.env b.program
    in
    (b, o, served_source tel)
  in
  let b, o, source = serve "log_exp_2" in
  Alcotest.(check int) "log_exp_2 answered by tier 2" 2 o.tier;
  Alcotest.(check bool) "log_exp_2 reaches the known optimum" true
    (Sexec.equivalent b.env o.optimized b.expected_opt);
  Alcotest.(check (option string)) "log_exp_2 served from the optimum"
    (Some "optimum") source;
  let _, o, source = serve "synth_5" in
  Alcotest.(check int) "synth_5 answered by tier 3" 3 o.tier;
  Alcotest.(check bool) "synth_5 improved" true o.improved;
  Alcotest.(check (option string)) "synth_5 search bounded by saturation"
    (Some "saturation") source

(* Mined-rule saturation alone (no optima lookup, no search) strictly
   improves these suite benchmarks all the way to the known optimum. *)
let saturation_benches =
  [ "log_exp_1"; "synth_3"; "synth_5"; "synth_11"; "synth_12" ]

let test_saturation_reaches_optimum () =
  List.iter
    (fun name ->
      let b = bench name in
      let db, _ = Mine.mine_env ~depth:2 ~model b.env in
      let rules = List.map (fun r -> r.Rules_db.rule) db.rules in
      let g = Egraph.create b.env in
      let cls = Egraph.add g b.program in
      ignore (Egraph.saturate ~rules g);
      let best = Egraph.extract g ~model cls in
      let got = Cost.Model.program_cost model b.env best in
      let opt = Cost.Model.program_cost model b.env b.expected_opt in
      let orig = Cost.Model.program_cost model b.env b.program in
      if got >= orig then
        Alcotest.failf "%s: saturation did not improve (%.6g)" name got;
      if got > opt +. 1e-6 then
        Alcotest.failf "%s: saturation reached %.6g, optimum is %.6g (%s)"
          name got opt (Ast.to_string best);
      if not (Sexec.equivalent b.env b.program best) then
        Alcotest.failf "%s: extraction broke equivalence" name)
    saturation_benches

let test_tiers_report () =
  let benches = [ bench "log_exp_1"; bench "dot_trans_2" ] in
  let store = Store.open_store ~dir:(fresh_dir ()) () in
  ignore
    (Mine.mine ~depth:2 ~model ~store
       (List.map (fun (b : Suite.Benchmarks.t) -> (b.name, b.env)) benches));
  let baseline, cold, warm = Suite.Driver.run_tiers ~config ~store benches in
  let doc = Suite.Driver.tiers_report ~config ~baseline ~cold ~warm () in
  (match Suite.Report.validate doc with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "invalid tiers report: %s" e);
  let tiers (t : Suite.Driver.t) =
    List.map
      (fun (r : Suite.Driver.bench_result) -> r.outcome.Superopt.tier)
      t.results
  in
  Alcotest.(check (list int)) "cold pass never searches" [ 2; 2 ]
    (tiers cold);
  Alcotest.(check (list int)) "warm pass is all store hits" [ 1; 1 ]
    (tiers warm);
  (* tiered answers must agree with the baseline search *)
  List.iter2
    (fun (bl : Suite.Driver.bench_result) (cd : Suite.Driver.bench_result) ->
      Alcotest.(check (float 1e-9))
        (bl.bench.name ^ ": tiered cost equals baseline")
        bl.outcome.Superopt.optimized_cost cd.outcome.Superopt.optimized_cost)
    baseline.results cold.results

let test_config_fingerprint () =
  (* legacy outcome-store keys must stay byte-identical when tier 2 is
     off; enabling it must change the fingerprint *)
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let base = Config.fingerprint Config.default in
  Alcotest.(check bool) "no rules marker by default" false
    (contains ~sub:"rules=" base);
  let with_rules =
    Config.fingerprint (Config.with_rules_depth 2 Config.default)
  in
  Alcotest.(check bool) "depth fingerprinted" true
    (base <> with_rules);
  Alcotest.(check string) "depth 0 is off" base
    (Config.fingerprint (Config.with_rules_depth 0 Config.default))

let suite =
  [
    Alcotest.test_case "mine one environment" `Quick test_mine_env;
    Alcotest.test_case "truncated mine refuses optima" `Quick
      test_truncated_mine;
    Alcotest.test_case "rules db round-trip + corruption" `Quick
      test_db_roundtrip_and_corruption;
    Alcotest.test_case "tier 2 then tier 1" `Quick test_tier2_then_tier1;
    Alcotest.test_case "tier 3 fallback + feedback" `Quick
      test_tier3_feedback;
    Alcotest.test_case "saturation reaches optima" `Quick
      test_saturation_reaches_optimum;
    Alcotest.test_case "tiers report" `Quick test_tiers_report;
    Alcotest.test_case "config fingerprint" `Quick test_config_fingerprint;
    Alcotest.test_case "tier-2 request keys its spec once" `Quick
      test_tier2_request_keys_once;
    Alcotest.test_case "rules db decode shared per key" `Quick
      test_db_decode_per_key;
    Alcotest.test_case "tier-2 candidate sources" `Quick test_tier2_sources;
    Alcotest.test_case "feedback journal" `Quick test_feedback_journal;
  ]
