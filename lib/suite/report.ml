module Json = Stenso.Telemetry.Json

let suite_report = "stenso.suite-report/1"
let exec_bench = "stenso.exec-bench/1"
let tiers = "stenso.tiers/1"
let mlsuite = "stenso.mlsuite/1"
let serve_load = "stenso.serve-load/1"
let lift = "stenso.lift/1"

type kind =
  | Str
  | Int
  | Float  (** an [Int] is accepted too *)
  | Bool
  | Pair  (** [[float, float]] *)
  | List of kind
  | Obj of (string * kind) list
  | Doc of string  (** an embedded document of the named schema *)
  | Opt of kind  (** may be absent: a field added after its schema froze *)

type gate = Min_speedup | Min_success

type schema = {
  tag : string;
  fields : (string * kind) list;
  invariants : (Json.t -> (unit, string) result) list;
      (** run once [fields] conform, so they read fields unchecked *)
  gate : (gate * (float -> Json.t -> (unit, string) result)) option;
  summary : float option -> Json.t -> string;
      (** given the gate's floor, if any; reads only required fields *)
}

let ( let* ) = Result.bind
let errf fmt = Printf.ksprintf (fun e -> Error e) fmt

let rec all f = function
  | [] -> Ok ()
  | x :: xs ->
      let* () = f x in
      all f xs

let many kind names = List.map (fun name -> (name, kind)) names

(* Unchecked accessors for invariants and summaries: the field spec
   has already guaranteed each field's presence and kind. *)
let get extract name j =
  match Option.bind (Json.member name j) extract with
  | Some v -> v
  | None -> invalid_arg ("Report: field outside the spec: " ^ name)

let str = get Json.to_string_opt
let int = get Json.to_int_opt
let float = get Json.to_float_opt
let bool = get Json.to_bool_opt
let list = get Json.to_list_opt
let obj = get Option.some

let agrees ~count ~array j =
  if List.length (list array j) = int count j then Ok ()
  else errf "%s disagrees with the %s array" count array

let each array check j = all check (list array j)
let floor_suffix fmt = function None -> "" | Some m -> Printf.sprintf fmt m

(* ------------------------------------------------------------------ *)
(* The schemas                                                         *)
(* ------------------------------------------------------------------ *)

let suite_schema =
  let search =
    many Int
      [ "nodes"; "decomps"; "pruned_simp"; "pruned_bnb"; "memo_hits";
        "memo_misses"; "library_size" ]
    @ [ ("elapsed", Float); ("timed_out", Bool) ]
  in
  let bench =
    many Str [ "name"; "source"; "klass"; "original"; "optimized" ]
    @ many Bool [ "improved"; "verified" ]
    @ many Float [ "cost_before"; "cost_after"; "speedup"; "synthesis_time" ]
    @ [ ("tier", Opt Int); ("search", Obj search);
        ("bound_trajectory", List Pair) ]
  in
  {
    tag = suite_report;
    fields =
      [ ("version", Opt Str); ("estimator", Str) ]
      @ many Int [ "jobs"; "n_benchmarks"; "n_improved" ]
      @ many Float [ "timeout"; "elapsed" ]
      @ [ ("benchmarks", List (Obj bench)) ];
    invariants = [ agrees ~count:"n_benchmarks" ~array:"benchmarks" ];
    gate = None;
    summary =
      (fun _ j ->
        Printf.sprintf "%s estimator, %d benchmarks, %d improved"
          (str "estimator" j) (int "n_benchmarks" j) (int "n_improved" j));
  }

(* The interp-vs-VM microbenchmark archive.  A benchmark flagged
   [expects_fused_reduction] must have fused ops — a planner fusion
   regression would otherwise hide behind still-passing numbers. *)
let exec_floor m =
  each "results" (fun r ->
      let s = float "speedup" r in
      if s < m then
        errf "%s: speedup %.2fx below the %.2fx floor" (str "name" r) s m
      else Ok ())

let exec_schema =
  let result =
    [ ("name", Str); ("expects_fused_reduction", Bool) ]
    @ many Float [ "interp_seconds"; "vm_seconds"; "speedup" ]
    @ many Int
        [ "steps"; "ops_fused"; "parallel_strips"; "buffers_reused";
          "arena_bytes" ]
    (* rates against the measured ceilings, added after the schema
       froze.  [gbps] is the bytes model's traffic (every operation's
       reads and writes, as if unfused) over the run time, so a fused
       kernel can exceed [triad_gbps]: it is not comparable with it.
       [ceiling_fraction] times the working set (inputs and result)
       against the triad instead. *)
    @ many (Opt Float) [ "gbps"; "gflops"; "triad_gbps"; "ceiling_fraction" ]
    @ [ ("bound", Opt Str) ]
  in
  {
    tag = exec_bench;
    fields =
      many Str [ "version"; "options" ]
      @ [ ("geomean_speedup", Float); ("n_benchmarks", Int);
          ("peak_gflops", Opt Float); ("results", List (Obj result)) ];
    invariants =
      [
        agrees ~count:"n_benchmarks" ~array:"results";
        each "results" (fun r ->
            if bool "expects_fused_reduction" r && int "ops_fused" r = 0 then
              errf "%s: reduction-rooted benchmark has ops_fused = 0"
                (str "name" r)
            else Ok ());
      ];
    gate = Some (Min_speedup, exec_floor);
    summary =
      (fun floor j ->
        Printf.sprintf "%d benchmarks, %.2fx geomean, options %s%s"
          (int "n_benchmarks" j)
          (float "geomean_speedup" j)
          (str "options" j)
          (floor_suffix ", all above %.2fx" floor));
  }

let tiers_schema =
  let pass =
    Obj
      (many Int [ "tier1"; "tier2"; "tier3" ]
      @ many Float [ "tier12_fraction"; "elapsed" ])
  in
  let bench =
    [ ("name", Str); ("improved", Bool); ("verified", Bool) ]
    @ many Int [ "tier_cold"; "tier_warm" ]
    @ many Float
        [ "cost_before"; "cost_after"; "baseline_cost_after";
          "latency_baseline"; "latency_cold"; "latency_warm" ]
  in
  {
    tag = tiers;
    fields =
      many Str [ "version"; "estimator" ]
      @ many Int [ "rules_depth"; "n_cost_mismatches"; "n_benchmarks" ]
      @ many Float [ "baseline_elapsed"; "cold_speedup"; "warm_speedup" ]
      @ [ ("cold", pass); ("warm", pass); ("benchmarks", List (Obj bench)) ];
    invariants = [ agrees ~count:"n_benchmarks" ~array:"benchmarks" ];
    gate = None;
    summary =
      (fun _ j ->
        let pass name =
          let p = obj name j in
          Printf.sprintf "%s %d/%d/%d (%.0f%% without search)" name
            (int "tier1" p) (int "tier2" p) (int "tier3" p)
            (100. *. float "tier12_fraction" p)
        in
        Printf.sprintf
          "%s estimator, depth %d, %d benchmarks; %s; %s; %.1fx warm \
           speedup, %d cost mismatches"
          (str "estimator" j) (int "rules_depth" j) (int "n_benchmarks" j)
          (pass "cold") (pass "warm") (float "warm_speedup" j)
          (int "n_cost_mismatches" j));
  }

(* One exec point and one tiers point, each checked against its own
   schema; [min_speedup] gates the exec point. *)
let mlsuite_schema =
  {
    tag = mlsuite;
    fields =
      [ ("version", Str); ("exec", Doc exec_bench); ("tiers", Doc tiers) ];
    invariants = [];
    gate =
      Some
        ( Min_speedup,
          fun m j ->
            Result.map_error (( ^ ) "exec: ") (exec_floor m (obj "exec" j)) );
    summary =
      (fun floor j ->
        let exec = obj "exec" j and tiers = obj "tiers" j in
        Printf.sprintf
          "%d kernels, %.2fx VM geomean; tiers: %.1fx warm speedup, %d cost \
           mismatches%s"
          (int "n_benchmarks" exec)
          (float "geomean_speedup" exec)
          (float "warm_speedup" tiers)
          (int "n_cost_mismatches" tiers)
          (floor_suffix "; all above %.2fx" floor));
  }

(* A latency block's percentiles must be monotone: a report whose p50
   exceeds its p95 (or p95 its p99) is inconsistent however it was
   produced. *)
let latency = ("n", Int) :: many Float [ "mean"; "p50"; "p95"; "p99" ]

let check_latency ctx l =
  let p50 = float "p50" l and p95 = float "p95" l and p99 = float "p99" l in
  if int "n" l < 0 then errf "%s: negative sample count" ctx
  else if not (p50 <= p95 && p95 <= p99) then
    errf "%s: percentiles not monotone (p50 %g, p95 %g, p99 %g)" ctx p50 p95
      p99
  else Ok ()

let serve_load_schema =
  let sum field xs = List.fold_left (fun acc x -> acc + int field x) 0 xs in
  {
    tag = serve_load;
    fields =
      many Str [ "version"; "estimator" ]
      @ many (List Str) [ "endpoints"; "benchmarks" ]
      @ many Int
          [ "concurrency"; "n_requests"; "n_ok"; "n_transport_errors";
            "n_protocol_errors"; "n_busy"; "n_coalesced"; "n_refined" ]
      @ many Float [ "duration"; "elapsed"; "throughput_rps" ]
      @ [ ("latency", Obj latency);
          ("tiers", List (Obj (("tier", Int) :: latency))) ];
    invariants =
      [
        (fun j ->
          if list "endpoints" j <> [] then Ok ()
          else Error "endpoints must be a non-empty list of strings");
        (fun j ->
          if
            int "n_requests" j
            = int "n_ok" j + int "n_busy" j + int "n_protocol_errors" j
          then Ok ()
          else Error "n_requests disagrees with n_ok + n_busy + n_protocol_errors");
        (fun j ->
          if max (int "n_coalesced" j) (int "n_refined" j) <= int "n_ok" j
          then Ok ()
          else Error "coalesced/refined counts exceed n_ok");
        (fun j -> check_latency "latency" (obj "latency" j));
        each "tiers" (fun t ->
            check_latency (Printf.sprintf "tier %d" (int "tier" t)) t);
        (fun j ->
          if sum "n" (list "tiers" j) = int "n_ok" j then Ok ()
          else Error "per-tier sample counts disagree with n_ok");
      ];
    gate = None;
    summary =
      (fun _ j ->
        let lat name = 1000. *. float name (obj "latency" j) in
        Printf.sprintf
          "%d connections, %d requests, %.0f req/s; p50 %.2f ms, p95 %.2f, \
           p99 %.2f; %d coalesced, %d refined, %d busy, %d protocol errors"
          (int "concurrency" j) (int "n_requests" j) (float "throughput_rps" j)
          (lat "p50") (lat "p95") (lat "p99") (int "n_coalesced" j)
          (int "n_refined" j) (int "n_busy" j) (int "n_protocol_errors" j));
  }

let lift_schema =
  let kernel =
    many Str [ "name"; "program"; "optimized" ]
    @ many Bool [ "lifted"; "improved" ]
    @ many Int [ "sketches"; "pruned_by_value"; "certified"; "library" ]
    @ many Float [ "lift_ms"; "verify_ms" ]
    @ [ ("speedup", Opt Float) ]
  in
  {
    tag = lift;
    fields =
      many Str [ "version"; "estimator" ]
      @ many Int [ "n_kernels"; "n_lifted" ]
      @ many Float [ "elapsed"; "success_rate" ]
      @ [ ("kernels", List (Obj kernel)) ];
    invariants =
      [
        agrees ~count:"n_kernels" ~array:"kernels";
        (* A lifted entry must carry the certified program; a failed one
           must not pretend to. *)
        each "kernels" (fun k ->
            let name = str "name" k and program = str "program" k in
            if bool "lifted" k && (program = "" || int "certified" k < 1) then
              errf "kernel %S claims a lift without a certified program" name
            else if (not (bool "lifted" k)) && program <> "" then
              errf "kernel %S failed but carries a program" name
            else Ok ());
        (fun j ->
          let lifted = List.filter (bool "lifted") (list "kernels" j) in
          if List.length lifted = int "n_lifted" j then Ok ()
          else Error "n_lifted disagrees with the kernels array");
        (fun j ->
          let n = int "n_kernels" j in
          let expect =
            if n = 0 then 0.
            else float_of_int (int "n_lifted" j) /. float_of_int n
          in
          if Float.abs (float "success_rate" j -. expect) <= 1e-9 then Ok ()
          else Error "success_rate disagrees with n_lifted / n_kernels");
      ];
    gate =
      Some
        ( Min_success,
          fun floor j ->
            let rate = float "success_rate" j in
            if rate < floor then
              errf "success_rate %.3f below required minimum %.3f" rate floor
            else Ok () );
    summary =
      (fun floor j ->
        Printf.sprintf "%d kernels, %d lifted, %.0f%% success%s"
          (int "n_kernels" j) (int "n_lifted" j)
          (100. *. float "success_rate" j)
          (floor_suffix ", at least %.0f%% required"
             (Option.map (( *. ) 100.) floor)));
  }

let schemas =
  [ suite_schema; exec_schema; tiers_schema; mlsuite_schema;
    serve_load_schema; lift_schema ]

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let find_schema j =
  match Option.bind (Json.member "schema" j) Json.to_string_opt with
  | None -> Error "missing field schema"
  | Some tag -> (
      match List.find_opt (fun s -> String.equal s.tag tag) schemas with
      | Some s -> Ok s
      | None -> errf "unknown schema %S" tag)

(* Errors name the offending field by its path, e.g.
   [benchmarks[3].search.nodes]. *)
let rec check path kind v =
  let number = function Json.Int _ | Json.Float _ -> true | _ -> false in
  match (kind, v) with
  | Opt kind, _ -> check path kind v
  | Str, Json.Str _ | Int, Json.Int _ | Bool, Json.Bool _ -> Ok ()
  | Float, v when number v -> Ok ()
  | Pair, Json.List [ a; b ] when number a && number b -> Ok ()
  | List kind, Json.List xs ->
      all
        (fun (i, x) -> check (Printf.sprintf "%s[%d]" path i) kind x)
        (List.mapi (fun i x -> (i, x)) xs)
  | Obj fields, Json.Obj _ -> check_fields path fields v
  | Doc tag, _ ->
      Result.map_error (Printf.sprintf "%s: %s" path)
        (let* s = find_schema v in
         if String.equal s.tag tag then check_doc s v
         else errf "expected schema %S, got %S" tag s.tag)
  | _ -> errf "mistyped field %s" path

and check_fields path fields j =
  all
    (fun (name, kind) ->
      let path = if path = "" then name else path ^ "." ^ name in
      match (Json.member name j, kind) with
      | None, Opt _ -> Ok ()
      | None, _ -> errf "missing field %s" path
      | Some v, _ -> check path kind v)
    fields

(* Structure, then invariants: an embedded document gets both. *)
and check_doc s j =
  let* () = check_fields "" s.fields j in
  all (fun inv -> inv j) s.invariants

let accepts g s = match s.gate with Some (g', _) -> g = g' | None -> false

let validate ?min_speedup ?min_success j =
  let* s = find_schema j in
  let requested =
    List.filter_map
      (fun (g, v) -> Option.map (fun v -> (g, v)) v)
      [ (Min_speedup, min_speedup); (Min_success, min_success) ]
  in
  let* () =
    match List.find_opt (fun (g, _) -> not (accepts g s)) requested with
    | None -> Ok ()
    | Some (g, _) ->
        errf "a %s gate applies only to %s reports"
          (match g with
          | Min_speedup -> "min_speedup"
          | Min_success -> "min_success")
          (String.concat ", "
             (List.filter_map
                (fun s -> if accepts g s then Some s.tag else None)
                schemas))
  in
  (* A schema accepts at most one gate, so at most one floor is left. *)
  let floor = Option.map snd (List.nth_opt requested 0) in
  Result.map_error
    (Printf.sprintf "invalid %s report: %s" s.tag)
    (let* () = check_doc s j in
     let* () =
       match (floor, s.gate) with
       | Some m, Some (_, check) -> check m j
       | _ -> Ok ()
     in
     Ok (s.tag, s.summary floor j))
