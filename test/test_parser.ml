(* Surface-syntax parser. *)
open Dsl

let ast = Alcotest.testable Ast.pp Ast.equal
let parse = Parser.expression

let test_operators () =
  Alcotest.check ast "precedence * over +"
    (Ast.App (Add, [ Input "A"; App (Mul, [ Input "B"; Input "C" ]) ]))
    (parse "A + B * C");
  Alcotest.check ast "left assoc sub"
    (Ast.App (Sub, [ App (Sub, [ Input "A"; Input "B" ]); Input "C" ]))
    (parse "A - B - C");
  Alcotest.check ast "matmul @"
    (Ast.App (Dot, [ Input "A"; Input "B" ]))
    (parse "A @ B");
  Alcotest.check ast "power right assoc"
    (Ast.App (Pow_op, [ Input "A"; App (Pow_op, [ Input "B"; Input "C" ]) ]))
    (parse "A ** B ** C");
  Alcotest.check ast "parens"
    (Ast.App (Mul, [ App (Add, [ Input "A"; Input "B" ]); Input "C" ]))
    (parse "(A + B) * C");
  Alcotest.check ast "unary minus folds literal" (Ast.Const (-2.)) (parse "-2");
  Alcotest.check ast "unary minus on input"
    (Ast.App (Mul, [ Const (-1.); Input "A" ]))
    (parse "-A");
  Alcotest.check ast "postfix transpose"
    (Ast.App (Transpose None, [ Input "A" ]))
    (parse "A.T");
  Alcotest.check ast "transpose binds before @"
    (Ast.App (Dot, [ App (Transpose None, [ Input "x" ]); Input "A" ]))
    (parse "x.T @ A")

let test_calls () =
  Alcotest.check ast "np.add"
    (Ast.App (Add, [ Input "A"; Input "B" ]))
    (parse "np.add(A, B)");
  Alcotest.check ast "sum with axis"
    (Ast.App (Ast.sum_op (Some 1), [ Input "A" ]))
    (parse "np.sum(A, axis=1)");
  Alcotest.check ast "sum with negative axis"
    (Ast.App (Ast.sum_op (Some (-1)), [ Input "A" ]))
    (parse "np.sum(A, axis=-1)");
  Alcotest.check ast "sum without axis"
    (Ast.App (Ast.sum_op None, [ Input "A" ]))
    (parse "np.sum(A)");
  Alcotest.check ast "max with positional axis"
    (Ast.App (Ast.max_op (Some 0), [ Input "A" ]))
    (parse "np.max(A, 0)");
  Alcotest.check ast "where"
    (Ast.App (Where, [ App (Less, [ Input "A"; Input "B" ]); Input "A";
                       Input "B" ]))
    (parse "np.where(np.less(A, B), A, B)");
  Alcotest.check ast "transpose with perm"
    (Ast.App (Transpose (Some [| 1; 0; 2 |]), [ Input "A" ]))
    (parse "np.transpose(A, (1, 0, 2))");
  Alcotest.check ast "tensordot"
    (Ast.App (Tensordot ([ 0 ], [ 0 ]), [ Input "x"; Input "y" ]))
    (parse "np.tensordot(x, y, ([0], [0]))");
  Alcotest.check ast "reshape"
    (Ast.App (Reshape [| 2; 6 |], [ Input "A" ]))
    (parse "np.reshape(A, (2, 6))");
  Alcotest.check ast "full"
    (Ast.App (Full [| 3; 3 |], [ Const 7. ]))
    (parse "np.full((3, 3), 7)");
  Alcotest.check ast "diag of dot"
    (Ast.App (Diag, [ App (Dot, [ Input "A"; Input "B" ]) ]))
    (parse "np.diag(np.dot(A, B))")

let test_stack_forms () =
  Alcotest.check ast "explicit stack"
    (Ast.App (Stack 0, [ Input "A"; Input "B" ]))
    (parse "np.stack([A, B])");
  Alcotest.check ast "stack with axis"
    (Ast.App (Stack 1, [ Input "A"; Input "B"; Input "C" ]))
    (parse "np.stack([A, B, C], axis=1)");
  Alcotest.check ast "comprehension"
    (Ast.For_stack
       { var = "v"; iter = "A"; body = App (Mul, [ Input "v"; Const 2. ]) })
    (parse "np.stack([v * 2 for v in A])")

let test_program_form () =
  let env, body =
    Parser.program
      "# a comment\ninput A : f32[3, 4]\ninput m : bool[3]\nreturn np.sum(A)"
  in
  Alcotest.(check int) "two inputs" 2 (List.length env);
  (match List.assoc_opt "A" env with
  | Some (vt : Types.vt) ->
      Alcotest.(check bool) "A is float" true (vt.dtype = Types.Float);
      Alcotest.(check bool) "A shape" true (vt.shape = [| 3; 4 |])
  | None -> Alcotest.fail "missing input A");
  (match List.assoc_opt "m" env with
  | Some (vt : Types.vt) ->
      Alcotest.(check bool) "m is bool" true (vt.dtype = Types.Bool)
  | None -> Alcotest.fail "missing input m");
  Alcotest.check ast "body" (Ast.App (Ast.sum_op None, [ Input "A" ])) body

let expect_error src =
  match Parser.expression src with
  | exception Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail ("expected parse error for " ^ src)

let test_errors () =
  expect_error "A +";
  expect_error "np.bogus(A)";
  expect_error "np.sum(A,,)";
  expect_error "(A";
  expect_error "A B";
  expect_error "np.stack([x for in A])";
  (match Parser.program "input A : f32[3]\ninput A : f32[3]\nreturn A" with
  | exception Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "duplicate input should fail");
  (match Parser.program "input A : f32[3]" with
  | exception Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "missing return should fail")

(* Round trip: pretty-print then re-parse yields an equal AST. *)
let test_roundtrip () =
  List.iter
    (fun (b : Suite.Benchmarks.t) ->
      let printed = Ast.to_string b.program in
      let reparsed = parse printed in
      if not (Ast.equal b.program reparsed) then
        Alcotest.failf "%s: reparse of %S differs" b.name printed)
    Suite.Benchmarks.all

(* The canonical rendering keeps every finite constant to the bit, and
   keeps the bytes of the older integer-or-[%g] rendering where that was
   already exact. *)
let test_exact_constants () =
  let render c = Ast.to_string (Ast.App (Mul, [ Input "A"; Const c ])) in
  List.iter
    (fun (c, text) ->
      Alcotest.(check string) text ("np.multiply(A, " ^ text ^ ")") (render c))
    [
      (2., "2"); (0.5, "0.5"); (-3., "-3"); (1e-05, "1e-05"); (1e9, "1e+09");
      (0.1234567, "0.1234567"); (1.00000001, "1.00000001"); (0.1, "0.1");
      (-0., "-0"); (1. /. 3., "0.3333333333333333");
      (1234567890.5, "1234567890.5");
    ];
  let env = [ ("A", Types.float_t [| 2; 2 |]) ] in
  let prog = Ast.App (Mul, [ Input "A"; Const 0.1234567 ]) in
  Alcotest.(check bool) "program round trip" true
    (Parser.program (Parser.unparse env prog) = (env, prog))

let rec const_bits (t : Ast.t) =
  match t with
  | Const f -> [ Int64.bits_of_float f ]
  | _ -> List.concat_map const_bits (Ast.children t)

let finite_float =
  let open QCheck2.Gen in
  oneof
    [
      (* any finite bit pattern: subnormals, huge and tiny magnitudes *)
      map Int64.float_of_bits int64;
      (* decimal-looking values, the common case in source programs *)
      map2 (fun m e -> float_of_int m /. (10. ** float_of_int e))
        (int_range (-1_000_000_000) 1_000_000_000) (int_range 0 12);
      oneofl [ 0.; -0.; 1.; -1.; 0.1; 1e-05; 1e9 ];
    ]
  |> QCheck2.Gen.map (fun f -> if Float.is_finite f then f else 0.5)

let prop_unparse_round_trips =
  QCheck2.Test.make ~name:"unparse round-trips finite constants" ~count:500
    ~print:(fun (a, b) -> Printf.sprintf "%h, %h" a b)
    QCheck2.Gen.(pair finite_float finite_float)
    (fun (a, b) ->
      let env = [ ("A", Types.float_t [| 2; 3 |]) ] in
      let prog =
        Ast.App
          ( Add,
            [
              Ast.App (Mul, [ Input "A"; Const a ]);
              Ast.App (Full [| 2; 3 |], [ Const b ]);
            ] )
      in
      let env', prog' = Parser.program (Parser.unparse env prog) in
      env' = env && Ast.equal prog' prog && const_bits prog' = const_bits prog)

let suite =
  [
    Alcotest.test_case "exact constants" `Quick test_exact_constants;
    QCheck_alcotest.to_alcotest prop_unparse_round_trips;
    Alcotest.test_case "operators" `Quick test_operators;
    Alcotest.test_case "numpy calls" `Quick test_calls;
    Alcotest.test_case "stack forms" `Quick test_stack_forms;
    Alcotest.test_case "program declarations" `Quick test_program_form;
    Alcotest.test_case "parse errors" `Quick test_errors;
    Alcotest.test_case "pp/parse round trip (all benchmarks)" `Quick
      test_roundtrip;
  ]
