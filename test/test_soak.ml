(* Robustness soak: superoptimize randomly generated programs and hold
   the system to its contract on every one — no crashes, verified
   outputs, concrete agreement, and costs that never exceed the
   original. *)
open Dsl
open Stenso
module Gen = Suite.Generator

let model = Cost.Model.flops

let soak ~count cfg =
  List.iteri
    (fun i (env, prog) ->
      let label = Printf.sprintf "program %d (%s)" i (Ast.to_string prog) in
      match Superopt.optimize ~model ~env prog with
      | exception e ->
          Alcotest.failf "%s: raised %s" label (Printexc.to_string e)
      | o ->
          if not o.verified then Alcotest.failf "%s: unverified" label;
          if o.optimized_cost > o.original_cost +. 1e-9 then
            Alcotest.failf "%s: cost increased" label;
          if not (Sexec.equivalent env prog o.optimized) then
            Alcotest.failf "%s: inequivalent result %s" label
              (Ast.to_string o.optimized);
          if not (Superopt.validate_concrete ~trials:4 ~env prog o.optimized)
          then Alcotest.failf "%s: concrete mismatch" label)
    (Gen.generate_many cfg count)

let test_small_programs () =
  soak ~count:25 { Gen.default with size = 4; seed = 100 }

let test_contraction_heavy () =
  soak ~count:15
    { Gen.default with size = 6; num_inputs = 2; seed = 200 }

let test_elementwise_only () =
  soak ~count:15
    {
      Gen.default with
      size = 8;
      allow_contractions = false;
      seed = 300;
    }

let test_generator_determinism () =
  let a = Gen.generate { Gen.default with seed = 7 } in
  let b = Gen.generate { Gen.default with seed = 7 } in
  Alcotest.(check bool) "same seed, same program" true
    (Ast.equal (snd a) (snd b));
  let c = Gen.generate { Gen.default with seed = 8 } in
  Alcotest.(check bool) "different seeds diverge somewhere" true
    (not (Ast.equal (snd a) (snd c))
    || not (Ast.equal (snd b) (snd c)))

let test_generator_well_typed () =
  List.iter
    (fun (env, prog) ->
      match Types.check env prog with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "generator emitted ill-typed program: %s" m)
    (Gen.generate_many { Gen.default with size = 7 } 50)

let suite =
  [
    Alcotest.test_case "generator determinism" `Quick
      test_generator_determinism;
    Alcotest.test_case "generator well-typedness" `Quick
      test_generator_well_typed;
    Alcotest.test_case "soak: small programs" `Slow test_small_programs;
    Alcotest.test_case "soak: contraction-heavy" `Slow test_contraction_heavy;
    Alcotest.test_case "soak: elementwise chains" `Slow test_elementwise_only;
  ]
