(* The archived report schemas (Suite.Report): every committed
   BENCH_*.json trajectory point validates and keeps its [stenso report]
   summary line, gates apply only to the schemas that accept them, and
   the lift and mlsuite writers produce conforming documents. *)

module J = Stenso.Telemetry.Json

(* The BENCH files sit at the repo root: the parent of [dune runtest]'s
   working directory, or the working directory of a direct run. *)
let load file =
  let file = if Sys.file_exists file then file else Filename.concat ".." file in
  let ic = open_in_bin file in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match J.of_string contents with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "%s: invalid JSON: %s" file e

(* (file, the gate CI applies to it, its [stenso report] line). *)
let archived =
  [
    ( "BENCH_exec_vm.json",
      `Min_speedup,
      "valid stenso.exec-bench/1 (14 benchmarks, 7.11x geomean, options \
       fus=true;red=true;tile=64;dom=1)" );
    ( "BENCH_lift.json",
      `Min_success,
      "valid stenso.lift/1 (8 kernels, 8 lifted, 100% success)" );
    ( "BENCH_mlsuite.json",
      `Min_speedup,
      "valid stenso.mlsuite/1 (9 kernels, 6.94x VM geomean; tiers: 502.7x \
       warm speedup, 0 cost mismatches)" );
    ( "BENCH_serve_load.json",
      `None,
      "valid stenso.serve-load/1 (256 connections, 125225 requests, 12451 \
       req/s; p50 19.77 ms, p95 26.26, p99 31.79; 509 coalesced, 125225 \
       refined, 0 busy, 0 protocol errors)" );
    ( "BENCH_suite_flops.json",
      `None,
      "valid stenso.suite-report/1 (flops estimator, 33 benchmarks, 23 \
       improved)" );
    ( "BENCH_tiers.json",
      `None,
      "valid stenso.tiers/1 (flops estimator, depth 2, 33 benchmarks; cold \
       0/21/12 (64% without search); warm 33/0/0 (100% without search); \
       12586.3x warm speedup, 1 cost mismatches)" );
  ]

let line ?min_speedup ?min_success doc =
  match Suite.Report.validate ?min_speedup ?min_success doc with
  | Ok (schema, summary) -> Ok (Printf.sprintf "valid %s (%s)" schema summary)
  | Error e -> Error e

let test_archived () =
  List.iter
    (fun (file, gate, expected) ->
      let doc = load file in
      (match line doc with
      | Ok l -> Alcotest.(check string) file expected l
      | Error e -> Alcotest.failf "%s: %s" file e);
      (* The CI gate validates; the other gate is rejected. *)
      Alcotest.(check bool)
        (file ^ " takes min_speedup")
        (gate = `Min_speedup)
        (Result.is_ok (line ~min_speedup:1.0 doc));
      Alcotest.(check bool)
        (file ^ " takes min_success")
        (gate = `Min_success)
        (Result.is_ok (line ~min_success:1.0 doc)))
    archived;
  (match line (J.Obj [ ("schema", J.Str "stenso.unknown/1") ]) with
  | Ok _ -> Alcotest.fail "unknown schema accepted"
  | Error _ -> ());
  match line (J.Obj []) with
  | Ok _ -> Alcotest.fail "document without a schema accepted"
  | Error _ -> ()

(* One lifted and one failed kernel through [Driver.lift_report]; the
   failed one carries [Lift.error_stats]' zero counters. *)
let test_lift_report () =
  let config = Stenso.Config.default |> Stenso.Config.with_estimator `Flops in
  let k = Option.get (Suite.Lifted.find_opt "lift_dot") in
  let ok =
    Stenso.Lift.optimize ~config (Stenso.Lift.Loop_parser.kernel k.source)
  in
  let entries =
    [
      Suite.Driver.lift_entry_of ~speedup:2.0 k.name ok;
      Suite.Driver.lift_entry_of "unsupported"
        (Error (Stenso.Lift.Unsupported "test"));
    ]
  in
  let doc = Suite.Driver.lift_report ~config ~elapsed:1.0 entries in
  (match line ~min_success:0.5 doc with
  | Ok l ->
      Alcotest.(check string) "summary"
        "valid stenso.lift/1 (2 kernels, 1 lifted, 50% success, at least 50% \
         required)"
        l
  | Error e -> Alcotest.failf "lift report invalid: %s" e);
  match line ~min_success:1.0 doc with
  | Ok _ -> Alcotest.fail "50% success passed a 100% floor"
  | Error _ -> ()

(* [Driver.mlsuite_report] composes an exec and a tiers document; each
   half is validated against its own schema. *)
let test_mlsuite_report () =
  let empty = { Suite.Driver.results = []; elapsed = 0. } in
  let tiers =
    Suite.Driver.tiers_report ~baseline:empty ~cold:empty ~warm:empty ()
  in
  let exec = load "BENCH_exec_vm.json" in
  let doc = Suite.Driver.mlsuite_report ~exec ~tiers () in
  (match line ~min_speedup:1.0 doc with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "mlsuite report invalid: %s" e);
  (match line ~min_speedup:100.0 doc with
  | Ok _ -> Alcotest.fail "the exec half's speedup floor was not applied"
  | Error _ -> ());
  match line (Suite.Driver.mlsuite_report ~exec:tiers ~tiers:exec ()) with
  | Ok _ -> Alcotest.fail "swapped halves accepted"
  | Error _ -> ()

let suite =
  [
    Alcotest.test_case "archived BENCH files" `Quick test_archived;
    Alcotest.test_case "lift report writer" `Quick test_lift_report;
    Alcotest.test_case "mlsuite report writer" `Quick test_mlsuite_report;
  ]
