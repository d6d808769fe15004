(* Lifting front-end: scalar loop nests -> certified DSL programs.

   The round-trip test is the tier's acceptance gate: every bundled
   kernel must lift, the lifted program must be robustly equivalent to
   the tier's declared DSL form, and the VM must agree with the scalar
   loop interpreter on fresh random inputs. *)

(* One stub cache across the tests: kernels sharing an input
   environment (dot/mse, normalize/softmax) enumerate once. *)
let stub_cache = Stenso.Stub.Cache.create ()

let finite t = Array.for_all Float.is_finite (Tensor.Ftensor.to_array t)

let test_roundtrips () =
  List.iter
    (fun (k : Suite.Lifted.t) ->
      let kernel = Stenso.Lift.Loop_parser.kernel k.source in
      match Stenso.Lift.lift ~stub_cache kernel with
      | Error e -> Alcotest.failf "%s: %s" k.name (Stenso.Lift.error_message e)
      | Ok l ->
          Alcotest.(check bool)
            (k.name ^ ": a candidate was certified")
            true
            (l.stats.certified >= 1);
          (* The lift reaches the tier's declared DSL form. *)
          let b = Suite.Benchmarks.find k.name in
          Alcotest.(check bool)
            (k.name ^ ": robustly equivalent to the oracle")
            true
            (Stenso.Superopt.robust_equivalent ~env:l.env l.prog b.program);
          (* VM differential against the loop interpreter (skipping
             draws whose reference output is non-finite, as the
             engine's validation does). *)
          let st = Random.State.make [| 0xbeef |] in
          let compiled = Stenso.Exec.compile ~env:l.env l.prog in
          for _ = 1 to 4 do
            let inputs = Dsl.Interp.random_inputs st l.env in
            let expected =
              Stenso.Lift.Loop_interp.run_tensors kernel inputs
            in
            if finite expected then begin
              let got =
                Stenso.Exec.run compiled (fun n -> List.assoc n inputs)
              in
              Alcotest.(check bool)
                (k.name ^ ": VM matches the loop interpreter")
                true
                (Tensor.Ftensor.shape got = Tensor.Ftensor.shape expected
                && Tensor.Ftensor.allclose ~rtol:1e-6 ~atol:1e-9 got expected)
            end
          done)
    Suite.Lifted.all

(* A loop-carried dependency is outside the DSL: the lift must fail
   cleanly with a [lift.failed] event, never certify a wrong program. *)
let test_negative () =
  let tel = Stenso.Telemetry.create () in
  let kernel = Stenso.Lift.Loop_parser.kernel Suite.Lifted.negative in
  match Stenso.Lift.lift ~tel ~stub_cache kernel with
  | Ok l ->
      Alcotest.failf "prefix_sum must not lift, got %s"
        (Dsl.Ast.to_string l.prog)
  | Error (Stenso.Lift.Unsupported msg) ->
      Alcotest.failf "expected sketch exhaustion, got semantic error: %s" msg
  | Error (Stenso.Lift.Not_lifted stats) ->
      Alcotest.(check bool) "sketches were proposed" true (stats.sketches > 0);
      Alcotest.(check bool)
        "lift.failed event recorded" true
        (List.exists
           (fun (e : Stenso.Telemetry.event) ->
             String.equal e.name "lift.failed")
           (Stenso.Telemetry.events tel))

(* Value pruning runs before any symbolic work: for a kernel with many
   same-shape library candidates, everything but the true program is
   rejected by the concrete signature, so certification (the expensive
   symbolic + differential step) sees exactly one candidate. *)
let test_value_pruning () =
  let k =
    match Suite.Lifted.find_opt "lift_normalize" with
    | Some k -> k
    | None -> Alcotest.fail "lift_normalize missing from the bundled tier"
  in
  let kernel = Stenso.Lift.Loop_parser.kernel k.source in
  let tel = Stenso.Telemetry.create () in
  match Stenso.Lift.lift ~tel ~stub_cache kernel with
  | Error e -> Alcotest.failf "lift_normalize: %s" (Stenso.Lift.error_message e)
  | Ok l ->
      Alcotest.(check bool)
        "mismatching candidates were value-pruned" true
        (l.stats.pruned_by_value > 0);
      Alcotest.(check int)
        "only the surviving candidate reached certification" 1
        l.stats.certified;
      Alcotest.(check int)
        "telemetry counter agrees" l.stats.pruned_by_value
        (List.assoc "lift.pruned_by_value" (Stenso.Telemetry.counters tel))

(* A literal that is not a dyadic rational (0.1) enters the kernel's
   spec and the candidate's spec through the same constant embedding,
   so certification accepts the exact program. *)
let test_non_dyadic_literal () =
  let kernel =
    Stenso.Lift.Loop_parser.kernel
      {|kernel scale_add(in float x[8], in float y[8], out float z[8]) {
  for (int i = 0; i < 8; i++) {
    z[i] = x[i] * 0.1 + y[i];
  }
}
|}
  in
  match Stenso.Lift.lift ~stub_cache kernel with
  | Error e -> Alcotest.failf "scale_add: %s" (Stenso.Lift.error_message e)
  | Ok l ->
      Alcotest.(check bool) "certified" true (l.stats.certified >= 1);
      Alcotest.(check string) "lifted program" "np.add(np.multiply(x, 0.1), y)"
        (Dsl.Ast.to_string l.prog)

(* The value-table cache key must fingerprint the sampled inputs, so
   lifts against different input distributions never collide even when
   they share a stub library. *)
let test_values_fingerprint () =
  let env = [ ("x", Dsl.Types.float_t [| 4 |]) ] in
  let draws seed =
    let st = Random.State.make [| seed |] in
    List.init 2 (fun _ -> Dsl.Interp.random_inputs st env)
  in
  let a = draws 1 and b = draws 2 in
  let fp = Stenso.Stub.Values.fingerprint in
  Alcotest.(check string)
    "same draws, same key"
    (fp ~library_fp:"lib" a)
    (fp ~library_fp:"lib" (draws 1));
  Alcotest.(check bool)
    "different draws, different keys" false
    (String.equal (fp ~library_fp:"lib" a) (fp ~library_fp:"lib" b));
  Alcotest.(check bool)
    "library identity feeds the key" false
    (String.equal (fp ~library_fp:"lib" a) (fp ~library_fp:"other" a))

let suite =
  [
    Alcotest.test_case "bundled kernels round-trip" `Slow test_roundtrips;
    Alcotest.test_case "loop-carried dependency fails cleanly" `Quick
      test_negative;
    Alcotest.test_case "value pruning precedes certification" `Quick
      test_value_pruning;
    Alcotest.test_case "non-dyadic literal certifies" `Quick
      test_non_dyadic_literal;
    Alcotest.test_case "value tables keyed by sampled inputs" `Quick
      test_values_fingerprint;
  ]
