(* The observability layer: JSON emission/parsing, NDJSON export, the
   suite-report schema, and the zero-cost contract of the disabled
   sink. *)
module T = Stenso.Telemetry
module J = T.Json

let roundtrip v =
  match J.of_string (J.to_string v) with
  | Ok v' -> v'
  | Error e -> Alcotest.failf "parse failed on %s: %s" (J.to_string v) e

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("null", J.Null);
        ("t", J.Bool true);
        ("n", J.Int (-42));
        ("x", J.Float 1.5);
        ("tiny", J.Float 3.1e-17);
        ("s", J.Str "quote\" slash\\ newline\n tab\t unicode \xe2\x86\x92");
        ("l", J.List [ J.Int 1; J.List []; J.Obj [] ]);
      ]
  in
  Alcotest.(check bool) "value survives a round trip" true (roundtrip v = v);
  (* non-finite floats must still emit valid JSON *)
  (match roundtrip (J.Float Float.nan) with
  | J.Null -> ()
  | other -> Alcotest.failf "nan emitted as %s" (J.to_string other));
  (* parser rejects malformed documents *)
  List.iter
    (fun s ->
      match J.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\":}"; "1 2"; "\"unterminated"; "tru" ]

let test_sink_records () =
  let t = T.create () in
  Alcotest.(check bool) "recording sink enabled" true (T.enabled t);
  Alcotest.(check bool) "null sink disabled" false (T.enabled T.null);
  T.event t "hello" [ ("n", T.Int 3); ("who", T.Str "world") ];
  T.gauge t "bound" 54.;
  T.gauge t "bound" 18.;
  let out = T.span t "phase" (fun () -> 7) in
  Alcotest.(check int) "span passes the result through" 7 out;
  T.add t "cnt" 5;
  T.incr t "cnt";
  T.Acc.add (T.acc t "secs") 0.25;
  Alcotest.(check int) "events recorded in order" 4
    (List.length (T.events t));
  Alcotest.(check (list (pair string int))) "counter totals" [ ("cnt", 6) ]
    (T.counters t);
  (match T.series t "bound" with
  | [ (ts1, 54.); (ts2, 18.) ] ->
      Alcotest.(check bool) "series timestamps ordered" true (ts1 <= ts2)
  | other ->
      Alcotest.failf "series has %d points" (List.length other));
  (* the same records export as NDJSON: one valid JSON object per line *)
  let lines =
    String.split_on_char '\n' (String.trim (T.ndjson_string t))
  in
  Alcotest.(check int) "events + counter + acc lines" 6 (List.length lines);
  List.iter
    (fun line ->
      match J.of_string line with
      | Ok (J.Obj fields) ->
          Alcotest.(check bool) "line has a kind" true
            (List.mem_assoc "kind" fields)
      | Ok _ -> Alcotest.failf "NDJSON line is not an object: %s" line
      | Error e -> Alcotest.failf "invalid NDJSON line %s: %s" line e)
    lines

let test_null_sink_does_not_allocate () =
  (* The search's hot paths run with the null sink by default: counter
     bumps and guarded event calls must not allocate, or telemetry
     would tax every un-traced synthesis run. *)
  let t = T.null in
  let c = T.counter t "x" in
  let hot i =
    T.Counter.incr c;
    if T.enabled t then T.event t "hot" [ ("i", T.Int i) ];
    T.add t "y" i
  in
  hot 0;
  (* warm-up *)
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    hot i
  done;
  let delta = Gc.minor_words () -. before in
  if delta > 256. then
    Alcotest.failf "disabled hot path allocated %.0f words" delta

let test_suite_report_roundtrip () =
  let config =
    Stenso.Config.default |> Stenso.Config.with_estimator `Flops
  in
  let run =
    Suite.Driver.run ~config ~trace:true
      [ Suite.Benchmarks.find "diag_dot" ]
  in
  let r = List.hd run.results in
  Alcotest.(check bool) "diag_dot improves" true r.outcome.improved;
  Alcotest.(check bool) "bound trajectory recorded" true
    (T.series r.tel "search.bound" <> []);
  let doc = Suite.Driver.report ~config run in
  (match Suite.Report.validate doc with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "fresh report invalid: %s" e);
  (* schema stability survives serialization *)
  (match J.of_string (J.to_string doc) with
  | Error e -> Alcotest.failf "report does not parse back: %s" e
  | Ok doc' -> (
      match Suite.Report.validate doc' with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "re-parsed report invalid: %s" e));
  (* the validator actually rejects schema drift *)
  let broken =
    match doc with
    | J.Obj fields ->
        J.Obj
          (List.map
             (function
               | "schema", _ -> ("schema", J.Str "stenso.suite-report/0")
               | f -> f)
             fields)
    | _ -> Alcotest.fail "report is not an object"
  in
  match Suite.Report.validate broken with
  | Ok _ -> Alcotest.fail "validator accepted a wrong schema tag"
  | Error _ -> ()

let test_trace_of_traced_search () =
  (* End-to-end: a traced optimize populates the instrumentation the
     CLI's --trace exports. *)
  let tel = T.create () in
  let env =
    [ ("A", Dsl.Types.float_t [| 3; 4 |]);
      ("B", Dsl.Types.float_t [| 4; 3 |]) ]
  in
  let o =
    Stenso.Superopt.optimize ~tel
      ~config:(Stenso.Config.default |> Stenso.Config.with_estimator `Flops)
      ~env
      (Dsl.Parser.expression "np.diag(np.dot(A, B))")
  in
  Alcotest.(check bool) "optimizes" true o.improved;
  let counters = T.counters tel in
  let has name = List.mem_assoc name counters in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " counted") true (has name))
    [ "search.nodes"; "search.decomps"; "invert.proposed"; "invert.solved";
      "spec.key_builds" ];
  let spans =
    List.filter (fun (e : T.event) -> e.kind = "span") (T.events tel)
  in
  let span_names = List.map (fun (e : T.event) -> e.name) spans in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " span present") true
        (List.mem name span_names))
    [ "phase.symbolic_exec"; "phase.stub_enum"; "phase.search" ];
  (* the flat stats and the telemetry counters are the same numbers *)
  Alcotest.(check int) "stats.nodes = counter" o.search.stats.nodes
    (List.assoc "search.nodes" counters)

let suite =
  [
    Alcotest.test_case "JSON round trip" `Quick test_json_roundtrip;
    Alcotest.test_case "sink records and exports NDJSON" `Quick
      test_sink_records;
    Alcotest.test_case "disabled sink allocates nothing" `Quick
      test_null_sink_does_not_allocate;
    Alcotest.test_case "suite report schema round trip" `Quick
      test_suite_report_roundtrip;
    Alcotest.test_case "traced search populates the trace" `Quick
      test_trace_of_traced_search;
  ]
