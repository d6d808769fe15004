(* Shape/dtype checking. *)
open Dsl

let vt = Alcotest.testable Types.pp_vt Types.equal_vt
let f = Types.float_t
let env = [ ("A", f [| 3; 4 |]); ("B", f [| 4; 3 |]); ("x", f [| 4 |]);
            ("s", Types.scalar_f); ("m", Types.bool_t [| 3; 4 |]) ]

let infer src = Types.infer env (Parser.expression src)

let expect_type src expected =
  Alcotest.check vt src expected (infer src)

let expect_reject src =
  match infer src with
  | exception Types.Type_error _ -> ()
  | t ->
      Alcotest.failf "%s: expected rejection, got %s" src
        (Format.asprintf "%a" Types.pp_vt t)

let test_elementwise () =
  expect_type "A + A" (f [| 3; 4 |]);
  expect_type "A * x" (f [| 3; 4 |]);
  expect_type "A + s" (f [| 3; 4 |]);
  expect_type "s * s" Types.scalar_f;
  expect_type "np.sqrt(A)" (f [| 3; 4 |]);
  expect_reject "A + B";
  expect_reject "A + m" (* bool in arithmetic *)

let test_contractions () =
  expect_type "np.dot(A, B)" (f [| 3; 3 |]);
  expect_type "np.dot(A, x)" (f [| 3 |]);
  expect_type "np.dot(x, B)" (f [| 3 |]);
  expect_reject "np.dot(A, A)";
  expect_reject "np.dot(s, A)" (* scalar operands rejected, as in NumPy *);
  expect_type "np.tensordot(A, A, ([0], [0]))" (f [| 4; 4 |]);
  expect_type "np.tensordot(A, A, ([0, 1], [0, 1]))" Types.scalar_f;
  expect_reject "np.tensordot(A, A, ([1], [1, 0]))";
  expect_reject "np.tensordot(A, B, ([0], [0]))";
  (* The message names the contracted sizes, not the operand shapes,
     which are equal here. *)
  match infer "np.trace(A @ B.T)" with
  | exception Types.Type_error m ->
      Alcotest.(check string)
        "dot error" "dot: contracted dimensions differ (4 vs 3)" m
  | _ -> Alcotest.fail "np.trace(A @ B.T): expected rejection"

let test_reductions_structure () =
  expect_type "np.sum(A)" Types.scalar_f;
  expect_type "np.sum(A, axis=0)" (f [| 4 |]);
  expect_type "np.sum(A, axis=-1)" (f [| 3 |]);
  expect_reject "np.sum(A, axis=2)";
  expect_type "np.max(A, axis=1)" (f [| 3 |]);
  expect_type "A.T" (f [| 4; 3 |]);
  expect_type "np.transpose(A, (1, 0))" (f [| 4; 3 |]);
  expect_reject "np.transpose(A, (0, 0))";
  expect_type "np.diag(A)" (f [| 3 |]);
  expect_type "np.trace(A)" Types.scalar_f;
  expect_reject "np.diag(x)";
  expect_type "np.triu(A)" (f [| 3; 4 |]);
  expect_reject "np.triu(x)";
  expect_type "np.reshape(A, (2, 6))" (f [| 2; 6 |]);
  expect_reject "np.reshape(A, (5, 5))";
  expect_type "np.full((2, 2), s)" (f [| 2; 2 |]);
  expect_reject "np.full((2, 2), A)"

let test_stack_where () =
  expect_type "np.stack([A, A])" (f [| 2; 3; 4 |]);
  expect_type "np.stack([x, x, x], axis=1)" (f [| 4; 3 |]);
  expect_reject "np.stack([A, x])";
  expect_type "np.where(m, A, A)" (f [| 3; 4 |]);
  expect_reject "np.where(A, A, A)" (* condition must be boolean *);
  expect_type "np.less(A, A)" { Types.dtype = Types.Bool; shape = [| 3; 4 |] };
  expect_reject "np.less(m, m)"

let test_comprehension () =
  let t =
    Types.infer env
      (Parser.expression "np.stack([np.sum(r) for r in A])")
  in
  Alcotest.check vt "comprehension type" (f [| 3 |]) t;
  (match
     Types.check env (Parser.expression "np.stack([r for r in s])")
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "iterating a scalar should fail")

let test_unbound () =
  expect_reject "Z + A";
  Alcotest.(check bool) "well_typed false on unbound" false
    (Types.well_typed env (Parser.expression "Z"))

let test_all_benchmarks_type () =
  List.iter
    (fun (b : Suite.Benchmarks.t) ->
      ignore (Types.infer b.env b.program);
      ignore (Types.infer b.env b.expected_opt);
      ignore (Types.infer b.perf_env b.perf_program);
      ignore (Types.infer b.perf_env b.perf_expected_opt);
      (* original and optimized must agree on the output type *)
      let t1 = Types.infer b.env b.program in
      let t2 = Types.infer b.env b.expected_opt in
      if not (Types.equal_vt t1 t2) then
        Alcotest.failf "%s: type mismatch between original and optimized"
          b.name)
    Suite.Benchmarks.all

let suite =
  [
    Alcotest.test_case "elementwise" `Quick test_elementwise;
    Alcotest.test_case "contractions" `Quick test_contractions;
    Alcotest.test_case "reductions and structure" `Quick
      test_reductions_structure;
    Alcotest.test_case "stack and where" `Quick test_stack_where;
    Alcotest.test_case "comprehension" `Quick test_comprehension;
    Alcotest.test_case "unbound inputs" `Quick test_unbound;
    Alcotest.test_case "all benchmarks type-check" `Quick
      test_all_benchmarks_type;
  ]
