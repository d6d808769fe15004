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
         (b, Superopt.superoptimize ~model ~env:b.env b.program))
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
  ]
