(* End-to-end: Algorithm 1 over the full 33-benchmark suite with the
   FLOPs estimator (deterministic).  Every outcome must be symbolically
   equivalent to its original and agree on random concrete inputs. *)
open Dsl
open Stenso

let model = Cost.Model.flops

let outcomes =
  lazy
    (List.map
       (fun (b : Suite.Benchmarks.t) ->
         (b, Superopt.optimize ~model ~env:b.env b.program))
       Suite.Benchmarks.all)

let test_all_verified () =
  List.iter
    (fun ((b : Suite.Benchmarks.t), (o : Superopt.outcome)) ->
      if not o.verified then Alcotest.failf "%s: verification failed" b.name;
      if not (Sexec.equivalent b.env b.program o.optimized) then
        Alcotest.failf "%s: inequivalent output" b.name)
    (Lazy.force outcomes)

let test_all_concretely_valid () =
  List.iter
    (fun ((b : Suite.Benchmarks.t), (o : Superopt.outcome)) ->
      if not (Superopt.validate_concrete ~env:b.env b.program o.optimized)
      then Alcotest.failf "%s: concrete mismatch" b.name)
    (Lazy.force outcomes)

let test_flops_improvement_coverage () =
  (* Under the blind FLOPs model a large core of the suite still
     optimizes (the paper's measured-model-only cases are excluded:
     power/mul distinctions, transpose materialization, loop overhead,
     fused contractions). *)
  let improved =
    List.filter (fun (_, (o : Superopt.outcome)) -> o.improved)
      (Lazy.force outcomes)
  in
  let must_improve =
    [ "diag_dot"; "log_exp_1"; "log_exp_2"; "scalar_sum"; "common_factor";
      "sum_sum"; "sum_stack"; "sum_diag_dot"; "max_stack"; "trace_dot";
      "synth_1"; "synth_2"; "synth_3"; "synth_4"; "synth_6"; "synth_7";
      "synth_8"; "synth_9"; "synth_12" ]
  in
  List.iter
    (fun name ->
      if
        not
          (List.exists
             (fun ((b : Suite.Benchmarks.t), _) -> b.name = name)
             improved)
      then Alcotest.failf "%s should improve under the FLOPs model" name)
    must_improve

let test_costs_consistent () =
  List.iter
    (fun ((b : Suite.Benchmarks.t), (o : Superopt.outcome)) ->
      let recomputed = Cost.Model.program_cost model b.env o.optimized in
      Alcotest.(check (float 1e-6)) (b.name ^ " cost recomputes") recomputed
        o.optimized_cost)
    (Lazy.force outcomes)

let test_validate_redraws_out_of_domain () =
  (* Regression: out-of-domain trials used to count toward [trials], so a
     pair that is almost never in domain could pass with zero effective
     checks.  Build a pair that differs everywhere on its domain, with a
     threshold tuned from the validator's own RNG stream so that every
     one of the first 16 draws lands out of domain. *)
  let env = [ ("A", Types.float_t [||]) ] in
  let draws n =
    let st = Random.State.make [| 0xbeef |] in
    List.init n (fun _ ->
        match Interp.random_inputs st env with
        | [ (_, v) ] -> Tensor.Ftensor.fold (fun _ x -> x) nan v
        | _ -> assert false)
  in
  let max_of vs = List.fold_left Float.max neg_infinity vs in
  let m16 = max_of (draws 16) and m512 = max_of (draws 512) in
  Alcotest.(check bool) "an in-domain draw exists past the first 16" true
    (m512 > m16);
  let t = (m16 +. m512) /. 2. in
  let a = Ast.App (Log, [ App (Sub, [ Input "A"; Const t ]) ]) in
  let b = Ast.App (Add, [ a; Const 1. ]) in
  Alcotest.(check bool) "inequivalent pair rejected" false
    (Superopt.validate_concrete ~env a b);
  Alcotest.(check bool) "identical pair accepted" true
    (Superopt.validate_concrete ~env a a);
  (* log(A - A) is never finite: no draw is in domain, so nothing was
     compared and the pair must not pass. *)
  let never = Ast.App (Log, [ App (Sub, [ Input "A"; Input "A" ]) ]) in
  Alcotest.(check bool) "never-in-domain pair rejected" false
    (Superopt.validate_concrete ~env never (Input "A"))

let test_consts_of () =
  let p = Parser.expression "np.power(A, -1) + 3 * A" in
  Alcotest.(check (list (float 0.))) "constants plus unit" [ -1.; 1.; 3. ]
    (Superopt.consts_of p)

let flops_config = Config.(default |> with_estimator `Flops)

(* The search timeout and [search.stats.elapsed] cover the library build
   whether it is enumerated fresh or through a cold cache.  diag_dot's
   library takes longer to build than its search runs, so an elapsed time
   that left the build out would fall below the [phase.stub_enum] span. *)
let test_elapsed_covers_library_build () =
  let b = Suite.Benchmarks.find "diag_dot" in
  List.iter
    (fun (label, stub_cache) ->
      let tel = Telemetry.create () in
      let o =
        Superopt.optimize ~tel ~config:flops_config ?stub_cache ~model
          ~env:b.env b.program
      in
      let enum =
        List.fold_left
          (fun acc (e : Telemetry.event) ->
            match List.assoc_opt "dur" e.fields with
            | Some (Telemetry.Float d)
              when e.kind = "span" && e.name = "phase.stub_enum" ->
                acc +. d
            | _ -> acc)
          0. (Telemetry.events tel)
      in
      Alcotest.(check bool) (label ^ ": library built") true (enum > 0.);
      if o.search.stats.elapsed < enum then
        Alcotest.failf "%s: elapsed %gs is below the library build's %gs"
          label o.search.stats.elapsed enum)
    [ ("no cache", None); ("cold cache", Some (Stub.Cache.create ())) ]

(* Every way of reaching the search gives the same answer: no cache, a
   cold and a warm stub cache, a store, and the same store again (served
   by tier 1 from the entry the previous run recorded). *)
let test_same_answer_every_path () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "stenso-test-paths-%d" (Unix.getpid ()))
  in
  let store = Store.open_store ~dir () in
  let cache = Stub.Cache.create () in
  List.iter
    (fun name ->
      let b = Suite.Benchmarks.find name in
      let run ?stub_cache ?store () =
        Superopt.optimize ~config:flops_config ?stub_cache ?store ~model
          ~env:b.env b.program
      in
      let answer (o : Superopt.outcome) =
        ( Ast.to_string o.optimized,
          o.optimized_cost,
          (o.search.stats.nodes, o.search.stats.library_size) )
      in
      let expected = answer (run ()) in
      let check label tier (o : Superopt.outcome) =
        Alcotest.(check int) (name ^ ": " ^ label ^ " tier") tier o.tier;
        Alcotest.(check (triple string (float 0.) (pair int int)))
          (name ^ ": " ^ label)
          expected (answer o)
      in
      check "cold cache" 3 (run ~stub_cache:cache ());
      check "warm cache" 3 (run ~stub_cache:cache ());
      check "store" 3 (run ~stub_cache:cache ~store ());
      check "store again" 1 (run ~stub_cache:cache ~store ()))
    [ "diag_dot"; "log_exp_1"; "common_factor" ]

let suite =
  [
    Alcotest.test_case "all outputs verified" `Slow test_all_verified;
    Alcotest.test_case "all outputs concretely valid" `Slow
      test_all_concretely_valid;
    Alcotest.test_case "flops-model improvement coverage" `Slow
      test_flops_improvement_coverage;
    Alcotest.test_case "reported costs recompute" `Slow test_costs_consistent;
    Alcotest.test_case "validate_concrete redraws out-of-domain trials"
      `Quick test_validate_redraws_out_of_domain;
    Alcotest.test_case "constant extraction" `Quick test_consts_of;
    Alcotest.test_case "elapsed covers a cold cache's library build" `Quick
      test_elapsed_covers_library_build;
    Alcotest.test_case "same answer on every path to the search" `Quick
      test_same_answer_every_path;
  ]
