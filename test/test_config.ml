(* The builder-style Stenso.Config surface: builders must round-trip to
   the legacy Search/Stub records they wrap. *)
open Stenso

let test_default_matches_legacy () =
  Alcotest.(check bool) "default wraps Search.default_config" true
    (Config.search_config Config.default = Search.default_config);
  Alcotest.(check string) "default estimator" "measured"
    (Config.estimator_name (Config.estimator Config.default))

let test_builder_round_trip () =
  let c =
    Config.default
    |> Config.with_timeout 60.
    |> Config.with_jobs 8
    |> Config.with_estimator `Flops
    |> Config.with_bnb false
    |> Config.with_simplification false
    |> Config.with_extended_ops true
    |> Config.with_max_depth 7
    |> Config.with_node_budget 1234
  in
  let s = Config.search_config c in
  Alcotest.(check (float 0.)) "timeout" 60. s.Search.timeout;
  Alcotest.(check int) "search jobs" 8 s.Search.jobs;
  Alcotest.(check int) "stub jobs" 8 s.Search.stub_config.Stub.jobs;
  Alcotest.(check bool) "bnb" false s.Search.use_bnb;
  Alcotest.(check bool) "simplification" false s.Search.use_simplification;
  Alcotest.(check bool) "extended ops" true
    s.Search.stub_config.Stub.extended_ops;
  Alcotest.(check int) "max depth" 7 s.Search.max_depth;
  Alcotest.(check int) "node budget" 1234 s.Search.node_budget;
  Alcotest.(check int) "jobs accessor" 8 (Config.jobs c);
  Alcotest.(check (float 0.)) "timeout accessor" 60. (Config.timeout c)

let test_model_selection () =
  let name e =
    (Config.model (Config.default |> Config.with_estimator e)).Cost.Model.name
  in
  Alcotest.(check string) "flops" "flops" (name `Flops);
  Alcotest.(check string) "roofline" "roofline" (name `Roofline);
  Alcotest.(check string) "measured" "measured" (name `Measured)

let test_estimator_of_string () =
  List.iter
    (fun s ->
      match Config.estimator_of_string s with
      | Ok e -> Alcotest.(check string) s s (Config.estimator_name e)
      | Error msg -> Alcotest.fail msg)
    [ "flops"; "roofline"; "measured" ];
  match Config.estimator_of_string "nope" with
  | Ok _ -> Alcotest.fail "accepted bogus estimator"
  | Error _ -> ()

(* Outcome-store keys embed the fingerprint: these strings must never
   change, not even when a field they name leaves the configuration. *)
let test_fingerprint_golden () =
  let tail =
    "eng=vm;exec[fus=true,red=true,tile=64];bnb=true;simp=true;\
     budget=200000;timeout=600;depth=12;memo=true;\
     stub[d=2,max=20000,ext=false,full=false];inv[conc=1,split=64]"
  in
  Alcotest.(check string) "default" ("cfg:est=measured;" ^ tail)
    (Config.fingerprint Config.default);
  Alcotest.(check string) "flops" ("cfg:est=flops;" ^ tail)
    (Config.fingerprint (Config.default |> Config.with_estimator `Flops))

let suite =
  [
    Alcotest.test_case "default wraps the legacy records" `Quick
      test_default_matches_legacy;
    Alcotest.test_case "builders round-trip to the records" `Quick
      test_builder_round_trip;
    Alcotest.test_case "estimator selects the model" `Quick
      test_model_selection;
    Alcotest.test_case "estimator parsing" `Quick test_estimator_of_string;
    Alcotest.test_case "fingerprint is pinned" `Quick test_fingerprint_golden;
  ]
