(* The persistent synthesis store: the generic content-addressed layer
   (round-trip, LRU, corruption tolerance, concurrent writers), its
   integration into Superopt.optimize (cache-first serving with
   byte-identical programs), the serve protocol, and the satellites that
   ride on the same machinery (per-sink spec counters, config
   fingerprints, the measured model's atomic cost cache). *)
open Stenso

module Json = Telemetry.Json

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "stenso-test-store-%d-%d" (Unix.getpid ()) !n)
    in
    (* The store mkdir_p's its own layout. *)
    d

let schema = Store.schema

(* ------------------------------------------------------------------ *)
(* Generic layer                                                       *)
(* ------------------------------------------------------------------ *)

let test_round_trip () =
  let dir = fresh_dir () in
  let s = Store.open_store ~dir () in
  Alcotest.(check (option reject)) "miss before add" None
    (Store.find s ~schema "k1");
  Store.add s ~schema "k1" (Json.Str "payload one");
  (match Store.find s ~schema "k1" with
  | Some (Json.Str "payload one") -> ()
  | _ -> Alcotest.fail "mem round-trip failed");
  let c = Store.stats s in
  Alcotest.(check int) "one miss" 1 c.Store.misses;
  Alcotest.(check int) "one mem hit" 1 c.Store.mem_hits;
  Alcotest.(check int) "one write" 1 c.Store.writes;
  (* A fresh handle on the same directory must serve from disk. *)
  let s2 = Store.open_store ~dir () in
  (match Store.find s2 ~schema "k1" with
  | Some (Json.Str "payload one") -> ()
  | _ -> Alcotest.fail "disk round-trip failed");
  Alcotest.(check int) "disk hit counted" 1 (Store.stats s2).Store.disk_hits;
  (* No temp files left behind by the atomic writes. *)
  let rec scan acc p =
    if Sys.is_directory p then
      Array.fold_left (fun a f -> scan a (Filename.concat p f)) acc
        (Sys.readdir p)
    else p :: acc
  in
  List.iter
    (fun f ->
      if Filename.check_suffix f ".tmp" then
        Alcotest.failf "leftover temp file %s" f)
    (scan [] dir)

let test_lru_eviction () =
  let dir = fresh_dir () in
  let s = Store.open_store ~mem_capacity:2 ~dir () in
  Store.add s ~schema "a" (Json.Int 1);
  Store.add s ~schema "b" (Json.Int 2);
  (* Touch [a] so [b] is the LRU victim when [c] arrives. *)
  ignore (Store.find s ~schema "a");
  Store.add s ~schema "c" (Json.Int 3);
  Alcotest.(check (list string)) "MRU order after eviction" [ "c"; "a" ]
    (Store.lru_keys s);
  Alcotest.(check int) "one eviction" 1 (Store.stats s).Store.evictions;
  (* The evicted entry is still on disk and comes back as a disk hit. *)
  (match Store.find s ~schema "b" with
  | Some (Json.Int 2) -> ()
  | _ -> Alcotest.fail "evicted entry lost");
  Alcotest.(check int) "reload is a disk hit" 1
    (Store.stats s).Store.disk_hits

(* [write] lands the bytes [add] would, but keeps nothing resident: a
   stale resident copy of the key is dropped, and the next [find] reads
   the new file. *)
let test_write_not_resident () =
  let s = Store.open_store ~dir:(fresh_dir ()) () in
  let payload = Json.Obj [ ("n", Json.Float 18.); ("s", Json.Str "a\"b") ] in
  Store.add s ~schema "a" payload;
  Store.write s ~schema "b" (fun buf -> Json.to_buffer buf payload);
  Alcotest.(check (list string)) "written key not resident" [ "a" ]
    (Store.lru_keys s);
  let other = Store.open_store ~dir:(fresh_dir ()) () in
  Store.add other ~schema "b" payload;
  let bytes st = Store.read_file (Store.entry_path st "b") in
  Alcotest.(check (option string)) "same bytes as add" (bytes other) (bytes s);
  Store.write s ~schema "a" (fun buf -> Json.to_buffer buf (Json.Int 2));
  Alcotest.(check (list string)) "stale resident copy dropped" []
    (Store.lru_keys s);
  (match Store.find s ~schema "a" with
  | Some (Json.Int 2) -> ()
  | _ -> Alcotest.fail "find did not read the written entry");
  Alcotest.(check int) "two writes and one add counted" 3
    (Store.stats s).Store.writes

let write_raw path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let test_corrupt_truncated () =
  let dir = fresh_dir () in
  let s = Store.open_store ~dir () in
  Store.add s ~schema "k" (Json.Str "good");
  let path = Store.entry_path s "k" in
  (* Simulate a torn legacy write: cut the file mid-envelope. *)
  let full = In_channel.with_open_bin path In_channel.input_all in
  write_raw path (String.sub full 0 (String.length full / 2));
  let s2 = Store.open_store ~dir () in
  Alcotest.(check (option reject)) "truncated entry rejected" None
    (Store.find s2 ~schema "k");
  Alcotest.(check int) "corruption counted" 1 (Store.stats s2).Store.corrupt;
  Alcotest.(check bool) "corrupt file evicted" false (Sys.file_exists path)

let test_corrupt_wrong_schema () =
  let dir = fresh_dir () in
  let s = Store.open_store ~dir () in
  Store.add s ~schema "k" (Json.Str "good");
  let path = Store.entry_path s "k" in
  write_raw path
    (Json.to_string
       (Json.Obj
          [
            ("schema", Json.Str "stenso.store/0");
            ("key", Json.Str "k");
            ("payload", Json.Str "stale");
          ]));
  let s2 = Store.open_store ~dir () in
  Alcotest.(check (option reject)) "old schema rejected" None
    (Store.find s2 ~schema "k");
  Alcotest.(check bool) "stale file evicted" false (Sys.file_exists path)

let test_concurrent_writers () =
  let dir = fresh_dir () in
  (* Two handles on the same directory, as two processes would hold,
     racing writes to overlapping keys: every entry must decode (atomic
     rename admits no torn state), landing on one of the two payloads. *)
  let s1 = Store.open_store ~dir () in
  let s2 = Store.open_store ~dir () in
  let keys = List.init 32 (fun i -> Printf.sprintf "key-%d" i) in
  let writer s tag () =
    List.iter (fun k -> Store.add s ~schema k (Json.Str tag)) keys
  in
  let d1 = Domain.spawn (writer s1 "one") in
  let d2 = Domain.spawn (writer s2 "two") in
  Domain.join d1;
  Domain.join d2;
  let s3 = Store.open_store ~dir () in
  List.iter
    (fun k ->
      match Store.find s3 ~schema k with
      | Some (Json.Str ("one" | "two")) -> ()
      | Some _ -> Alcotest.failf "torn payload for %s" k
      | None -> Alcotest.failf "lost entry %s" k)
    keys;
  Alcotest.(check int) "no corruption under the race" 0
    (Store.stats s3).Store.corrupt

(* ------------------------------------------------------------------ *)
(* Cache-first optimize                                                *)
(* ------------------------------------------------------------------ *)

let parse src = Dsl.Parser.program src

let config =
  Config.default
  |> Config.with_estimator `Flops
  |> Config.with_timeout 20.

let test_optimize_served_from_store () =
  let dir = fresh_dir () in
  let env, prog = parse "input A : f32[2,2]\ninput B : f32[2,2]\nreturn np.exp(np.log(A + B))" in
  let store = Store.open_store ~dir () in
  let tel1 = Telemetry.create () in
  let o1 = Superopt.optimize ~tel:tel1 ~config ~store ~env prog in
  Alcotest.(check bool) "first run searches" false (o1.tier = 1);
  Alcotest.(check bool) "first run improves" true o1.improved;
  let tel2 = Telemetry.create () in
  let o2 = Superopt.optimize ~tel:tel2 ~config ~store ~env prog in
  Alcotest.(check bool) "second run served from cache" true (o2.tier = 1);
  Alcotest.(check string) "byte-identical program"
    (Dsl.Parser.unparse env o1.optimized)
    (Dsl.Parser.unparse env o2.optimized);
  Alcotest.(check (float 0.)) "same cost" o1.optimized_cost o2.optimized_cost;
  Alcotest.(check (option (pair string int))) "store.hits in telemetry"
    (Some ("store.hits", 1))
    (List.find_opt
       (fun (n, _) -> String.equal n "store.hits")
       (Telemetry.counters tel2));
  let names kind =
    List.filter_map
      (fun (e : Telemetry.event) ->
        if String.equal e.kind kind then Some e.name else None)
      (Telemetry.events tel2)
  in
  Alcotest.(check bool) "no search phase on a hit" false
    (List.mem "phase.search" (names "span"));
  Alcotest.(check bool) "store.serve event in the trace" true
    (List.mem "store.serve" (names "event"));
  (* A fresh handle (cold memory) must also serve it, from disk. *)
  let store2 = Store.open_store ~dir () in
  let o3 = Superopt.optimize ~config ~store:store2 ~env prog in
  Alcotest.(check bool) "served across handles" true (o3.tier = 1)

let test_optimize_invalidates_corrupt_entry () =
  let dir = fresh_dir () in
  let env, prog = parse "input A : f32[2,2]\nreturn np.sqrt(A * A)" in
  let store = Store.open_store ~dir () in
  let o1 = Superopt.optimize ~config ~store ~env prog in
  Alcotest.(check bool) "fresh outcome" false (o1.tier = 1);
  (* Corrupt every object on disk; a cold handle must fall back to the
     search, never fail. *)
  let objects = Filename.concat dir "objects" in
  Array.iter
    (fun sub ->
      let subdir = Filename.concat objects sub in
      Array.iter
        (fun f -> write_raw (Filename.concat subdir f) "{torn")
        (Sys.readdir subdir))
    (Sys.readdir objects);
  let store2 = Store.open_store ~dir () in
  let o2 = Superopt.optimize ~config ~store:store2 ~env prog in
  Alcotest.(check bool) "fell back to the search" false (o2.tier = 1);
  Alcotest.(check string) "same result regardless"
    (Dsl.Parser.unparse env o1.optimized)
    (Dsl.Parser.unparse env o2.optimized)

(* ------------------------------------------------------------------ *)
(* Serve protocol                                                      *)
(* ------------------------------------------------------------------ *)

let response_field line name =
  match Json.of_string line with
  | Error msg -> Alcotest.failf "response is not JSON: %s" msg
  | Ok doc -> Json.member name doc

let bool_field line name =
  Option.bind (response_field line name) Json.to_bool_opt

let test_handle_line () =
  let dir = fresh_dir () in
  let store = Store.open_store ~dir () in
  let h = Serve.handler ~store ~base:config () in
  let malformed = Serve.handle_line h "{not json at all" in
  Alcotest.(check (option bool)) "malformed line is ok:false" (Some false)
    (bool_field malformed "ok");
  let no_program = Serve.handle_line h {|{"id": 7}|} in
  Alcotest.(check (option bool)) "missing program is ok:false" (Some false)
    (bool_field no_program "ok");
  let bad_program =
    Serve.handle_line h {|{"id": 8, "program": "return np.dot(A)"}|}
  in
  Alcotest.(check (option bool)) "unparseable program is ok:false"
    (Some false)
    (bool_field bad_program "ok");
  let bad_estimator =
    Serve.handle_line h
      {|{"id": 9, "program": "input A : f32[2,2]\nreturn A + A", "config": {"cost_estimator": "flps"}}|}
  in
  Alcotest.(check (option bool)) "unknown cost estimator is ok:false"
    (Some false)
    (bool_field bad_estimator "ok");
  Alcotest.(check (option string)) "estimator error names the value"
    (Some {|unknown cost estimator "flps"|})
    (Option.bind (response_field bad_estimator "error") Json.to_string_opt);
  let req =
    {|{"id": 1, "program": "input A : f32[2,2]\ninput B : f32[2,2]\nreturn np.exp(np.log(A + B))"}|}
  in
  let first = Serve.handle_line h req in
  Alcotest.(check (option bool)) "valid request is ok:true" (Some true)
    (bool_field first "ok");
  Alcotest.(check (option bool)) "first serve is a miss" (Some false)
    (bool_field first "cache_hit");
  let second = Serve.handle_line h req in
  Alcotest.(check (option bool)) "second serve is a hit" (Some true)
    (bool_field second "cache_hit");
  Alcotest.(check (option string)) "id echoed"
    (Some (Json.to_string (Json.Int 1)))
    (Option.map Json.to_string (response_field second "id"));
  Alcotest.(check string) "byte-identical optimized text"
    (Option.get
       (Option.bind (response_field first "optimized") Json.to_string_opt))
    (Option.get
       (Option.bind (response_field second "optimized") Json.to_string_opt));
  Alcotest.(check (option string)) "version stamped"
    (Some Version.current)
    (Option.bind (response_field second "version") Json.to_string_opt)

(* A warm request keys no spec: the handler's front table maps the
   request's canonical text to its store key, and the optimizer's store
   hit executes nothing.  A reformatted program has the same canonical
   text. *)
let test_warm_request_keys_no_spec () =
  let store = Store.open_store ~dir:(fresh_dir ()) () in
  let tel = Telemetry.create () in
  let h = Serve.handler ~tel ~store ~base:config () in
  let executions () =
    List.length
      (List.filter
         (fun (e : Telemetry.event) -> e.name = "phase.symbolic_exec")
         (Telemetry.events tel))
  in
  let req =
    {|{"id": 1, "program": "input A : f32[2,2]\nreturn np.sqrt(A * A)"}|}
  in
  let reformatted =
    {|{"id": 1, "program": "# the same program\ninput A : f32[2, 2]\nreturn np.sqrt(np.multiply(A, A))\n"}|}
  in
  let cold = Serve.handle_line h req in
  let executed = executions () in
  List.iter
    (fun (what, line) ->
      let c = Spec.fresh_counters () in
      let warm = Spec.with_counters c (fun () -> Serve.handle_line h line) in
      Alcotest.(check (option bool)) (what ^ " served from the store")
        (Some true) (bool_field warm "cache_hit");
      Alcotest.(check (option string)) (what ^ " answers like the first")
        (Option.map Json.to_string (response_field cold "optimized"))
        (Option.map Json.to_string (response_field warm "optimized"));
      Alcotest.(check int) (what ^ ": no spec key built") 0
        (fst (Spec.counters_stats c));
      Alcotest.(check int) (what ^ ": no symbolic execution") executed
        (executions ()))
    [ ("repeat", req); ("reformatted", reformatted) ]

(* The front key holds the request's whole configuration fingerprint:
   the same text under another per-request configuration keys its own
   spec and reaches its own store entry. *)
let test_front_key_separates_configs () =
  let store = Store.open_store ~dir:(fresh_dir ()) () in
  let h = Serve.handler ~store ~base:config () in
  let line cfg =
    Printf.sprintf
      {|{"id": 1, "program": "input A : f32[2,2]\nreturn np.sqrt(A * A)", "config": {%s}}|}
      cfg
  in
  let serve cfg =
    let c = Spec.fresh_counters () in
    let r = Spec.with_counters c (fun () -> Serve.handle_line h (line cfg)) in
    (bool_field r "cache_hit", fst (Spec.counters_stats c) > 0)
  in
  ignore (serve "");
  Alcotest.(check (pair (option bool) bool)) "base repeat: front hit"
    (Some true, false) (serve "");
  List.iter
    (fun cfg ->
      Alcotest.(check (pair (option bool) bool)) (cfg ^ ": own entry")
        (Some false, true) (serve cfg);
      Alcotest.(check (pair (option bool) bool)) (cfg ^ " repeat: front hit")
        (Some true, false) (serve cfg))
    [ {|"node_budget": 777|}; {|"extended_ops": true|} ]

(* Each of the 42 benchmark programs (the paper's 33 and the 9 ML
   kernels) answers byte-identically through a warm front table and
   through a fresh handler that keys every spec. *)
let test_front_table_answers_like_fresh () =
  let store = Store.open_store ~dir:(fresh_dir ()) () in
  let lines =
    List.mapi
      (fun i (b : Suite.Benchmarks.t) ->
        Json.to_string
          (Json.Obj
             [
               ("id", Json.Int i);
               ("program", Json.Str (Dsl.Parser.unparse b.env b.program));
             ]))
      (Suite.Benchmarks.all @ Suite.Benchmarks.ml)
  in
  let warm = Serve.handler ~store ~base:config () in
  List.iter (fun l -> ignore (Serve.handle_line warm l)) lines;
  let c = Spec.fresh_counters () in
  let through_front =
    Spec.with_counters c (fun () -> List.map (Serve.handle_line warm) lines)
  in
  Alcotest.(check int) "no spec keyed through the front table" 0
    (fst (Spec.counters_stats c));
  let fresh = Serve.handler ~store ~base:config () in
  List.iter2
    (fun a b ->
      Alcotest.(check (option bool)) "a store hit" (Some true)
        (bool_field a "cache_hit");
      Alcotest.(check string) "same response" b a)
    through_front
    (List.map (Serve.handle_line fresh) lines)

(* Past its bound the table evicts its oldest pairs and never holds one
   larger than the bound; whatever it still answers is what was added. *)
let test_front_table_bounded () =
  let bound = 1000 in
  let t = Serve.Front.create bound in
  let store_key i =
    String.make (20 + (i * 7 mod 90)) (Char.chr (65 + (i mod 26)))
  in
  let front i = Printf.sprintf "front-%d" i in
  for i = 0 to 199 do
    Serve.Front.add t (front i) (store_key i);
    Alcotest.(check bool) "within the bound" true
      (Serve.Front.bytes t <= bound);
    Alcotest.(check (option string)) "newest held" (Some (store_key i))
      (Serve.Front.find t (front i));
    for j = 0 to i do
      match Serve.Front.find t (front j) with
      | None -> ()
      | Some k ->
          Alcotest.(check string) "an answer never changes" (store_key j) k
    done
  done;
  Alcotest.(check (option string)) "oldest evicted" None
    (Serve.Front.find t (front 0));
  Serve.Front.add t "huge" (String.make bound 'x');
  Alcotest.(check (option string)) "larger than the bound: not held" None
    (Serve.Front.find t "huge");
  Alcotest.(check (option string)) "and evicts nothing" (Some (store_key 199))
    (Serve.Front.find t (front 199))

(* A tier-1 hit reports the request's own cost: [A + B] shares its spec
   (and store key) with [exp(log(A + B))], whose entry says cost 12 ->
   4, but nothing about [A + B] itself improves. *)
let test_hit_prices_own_program () =
  let store = Store.open_store ~dir:(fresh_dir ()) () in
  let h = Serve.handler ~store ~base:config () in
  let line body =
    Printf.sprintf
      {|{"id": 1, "program": "input A : f32[2,2]\ninput B : f32[2,2]\nreturn %s"}|}
      body
  in
  let float_field r name =
    Option.bind (response_field r name) Json.to_float_opt
  in
  let first = Serve.handle_line h (line "np.exp(np.log(A + B))") in
  Alcotest.(check (option (float 0.))) "first cost" (Some 12.)
    (float_field first "cost_before");
  Alcotest.(check (option bool)) "first improved" (Some true)
    (bool_field first "improved");
  let r = Serve.handle_line h (line "A + B") in
  Alcotest.(check (option bool)) "served from the store" (Some true)
    (bool_field r "cache_hit");
  Alcotest.(check (option (float 0.))) "own cost before" (Some 4.)
    (float_field r "cost_before");
  Alcotest.(check (option (float 0.))) "own cost after" (Some 4.)
    (float_field r "cost_after");
  Alcotest.(check (option bool)) "not improved" (Some false)
    (bool_field r "improved");
  Alcotest.(check (option string)) "its own program"
    (Some "input A : f32[2, 2]\ninput B : f32[2, 2]\nreturn np.add(A, B)\n")
    (Option.bind (response_field r "optimized") Json.to_string_opt)

(* A constant the older [%g] rendering rounded ([0.123457]) reaches the
   store entry and the response exactly. *)
let test_exact_constant_served () =
  let store = Store.open_store ~dir:(fresh_dir ()) () in
  let h = Serve.handler ~store ~base:config () in
  let req =
    {|{"id": 1, "program": "input A : f32[2,2]\nreturn np.exp(np.log(A * 0.1234567))"}|}
  in
  let optimized r =
    Option.bind (response_field r "optimized") Json.to_string_opt
  in
  let expected =
    Some "input A : f32[2, 2]\nreturn np.multiply(A, 0.1234567)\n"
  in
  let cold = Serve.handle_line h req in
  Alcotest.(check (option string)) "cold answer" expected (optimized cold);
  let fresh = Serve.handler ~store ~base:config () in
  let warm = Serve.handle_line fresh req in
  Alcotest.(check (option bool)) "served from the store" (Some true)
    (bool_field warm "cache_hit");
  Alcotest.(check (option string)) "stored answer" expected (optimized warm)

let test_busy_line () =
  Alcotest.(check (option bool)) "busy is ok:false" (Some false)
    (bool_field Serve.busy_line "ok")

(* ------------------------------------------------------------------ *)
(* Satellites                                                          *)
(* ------------------------------------------------------------------ *)

let test_spec_counters_per_sink () =
  let env, prog = parse "input A : f32[2,2]\nreturn A + A" in
  let spec () = Dsl.Sexec.exec_env env prog in
  let totals c = fst (Spec.counters_stats c) in
  let c1 = Spec.fresh_counters () in
  let c2 = Spec.fresh_counters () in
  Spec.with_counters c1 (fun () -> ignore (Spec.key (spec ())));
  Alcotest.(check int) "one keying attributed to c1" 1 (totals c1);
  Spec.with_counters c2 (fun () ->
      ignore (Spec.key (spec ()));
      ignore (Spec.key (spec ())));
  Alcotest.(check int) "c2 sees only its own work" 2 (totals c2);
  Alcotest.(check int) "c1 untouched by c2's scope" 1 (totals c1);
  (* Scopes restore on exit: keying outside attributes to neither. *)
  ignore (Spec.key (spec ()));
  Alcotest.(check int) "outside work not attributed" 1 (totals c1);
  (* Nested scopes restore the outer cell. *)
  Spec.with_counters c1 (fun () ->
      Spec.with_counters c2 (fun () -> ignore (Spec.key (spec ())));
      ignore (Spec.key (spec ())));
  Alcotest.(check int) "outer scope restored after nesting" 2 (totals c1);
  Alcotest.(check int) "inner scope credited" 3 (totals c2)

let test_config_fingerprint () =
  let fp = Config.fingerprint in
  let base = Config.default in
  Alcotest.(check string) "jobs excluded" (fp base)
    (fp (Config.with_jobs 8 base));
  Alcotest.(check bool) "extended_ops included" false
    (String.equal (fp base) (fp (Config.with_extended_ops true base)));
  Alcotest.(check bool) "timeout included" false
    (String.equal (fp base) (fp (Config.with_timeout 1.5 base)));
  Alcotest.(check bool) "estimator included" false
    (String.equal (fp base) (fp (Config.with_estimator `Flops base)))

let test_measured_cost_cache_round_trip () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let cache_file = Filename.concat dir "ops.cache" in
  let env, prog = parse "input A : f32[2,2]\nreturn A + A" in
  let m1 = Cost.Model.measured ~scale:2 ~min_time:1e-6 ~cache_file () in
  let c1 = Cost.Model.program_cost m1 env prog in
  Alcotest.(check bool) "cache file written" true (Sys.file_exists cache_file);
  (* Every line is a well-formed fingerprint<TAB>seconds<TAB>stddev
     record — the atomic whole-table rewrite never leaves partial
     lines — keyed under the VM options' pinned fingerprint, so cache
     files written by earlier versions keep serving. *)
  let ic = open_in cache_file in
  (try
     while true do
       let line = input_line ic in
       match String.split_on_char '\t' line with
       | [ key; secs; sd ]
         when Option.is_some (float_of_string_opt secs)
              && Option.is_some (float_of_string_opt sd) ->
           if
             not
               (String.starts_with ~prefix:"vm[fus=true;red=true;tile=64;dom="
                  key)
           then Alcotest.failf "unpinned cache key %S" key
       | _ -> Alcotest.failf "malformed cache line %S" line
     done
   with End_of_file -> close_in ic);
  (* A second model warm-starts from the file: same cost, no re-profiling
     (every lookup is a cache hit). *)
  let tel = Telemetry.create () in
  let m2 = Cost.Model.measured ~tel ~scale:2 ~min_time:1e-6 ~cache_file () in
  let c2 = Cost.Model.program_cost m2 env prog in
  Alcotest.(check (float 0.)) "warm model agrees" c1 c2;
  let counter name =
    Option.value ~default:0 (List.assoc_opt name (Telemetry.counters tel))
  in
  Alcotest.(check bool) "warm lookups hit" true (counter "cost.cache_hits" > 0);
  Alcotest.(check int) "no warm misses" 0 (counter "cost.cache_misses")

let test_report_version () =
  let doc = Suite.Driver.report { Suite.Driver.results = []; elapsed = 0. } in
  Alcotest.(check (option string)) "suite report carries the version"
    (Some Version.current)
    (Option.bind (Json.member "version" doc) Json.to_string_opt);
  (match Suite.Report.validate doc with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "report with version invalid: %s" e);
  (* Archived reports predate the field: still valid without it. *)
  (match doc with
  | Json.Obj fields -> (
      let without =
        Json.Obj (List.filter (fun (n, _) -> n <> "version") fields)
      in
      match Suite.Report.validate without with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "report without version invalid: %s" e)
  | _ -> Alcotest.fail "report is not an object")

let suite =
  [
    Alcotest.test_case "round-trip through memory and disk" `Quick
      test_round_trip;
    Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction;
    Alcotest.test_case "write persists without residency" `Quick
      test_write_not_resident;
    Alcotest.test_case "truncated entry rejected and evicted" `Quick
      test_corrupt_truncated;
    Alcotest.test_case "wrong schema version rejected" `Quick
      test_corrupt_wrong_schema;
    Alcotest.test_case "concurrent writers never tear" `Quick
      test_concurrent_writers;
    Alcotest.test_case "optimize serves repeats from the store" `Quick
      test_optimize_served_from_store;
    Alcotest.test_case "corrupt store entries fall back to search" `Quick
      test_optimize_invalidates_corrupt_entry;
    Alcotest.test_case "serve protocol handles good and bad lines" `Quick
      test_handle_line;
    Alcotest.test_case "warm request keys no spec" `Quick
      test_warm_request_keys_no_spec;
    Alcotest.test_case "front key separates configs" `Quick
      test_front_key_separates_configs;
    Alcotest.test_case "front table answers like a fresh handler" `Quick
      test_front_table_answers_like_fresh;
    Alcotest.test_case "front table stays within its bound" `Quick
      test_front_table_bounded;
    Alcotest.test_case "tier-1 hit prices its own program" `Quick
      test_hit_prices_own_program;
    Alcotest.test_case "exact constant served from the store" `Quick
      test_exact_constant_served;
    Alcotest.test_case "busy response is well-formed" `Quick test_busy_line;
    Alcotest.test_case "spec key counters attribute per sink" `Quick
      test_spec_counters_per_sink;
    Alcotest.test_case "config fingerprint covers what matters" `Quick
      test_config_fingerprint;
    Alcotest.test_case "measured cost cache round-trips atomically" `Quick
      test_measured_cost_cache_round_trip;
    Alcotest.test_case "suite report carries the version" `Quick
      test_report_version;
  ]
