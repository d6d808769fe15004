(* Cost models. *)
open Dsl

let env =
  [ ("A", Types.float_t [| 3; 4 |]); ("B", Types.float_t [| 4; 5 |]);
    ("x", Types.float_t [| 4 |]); ("s", Types.scalar_f) ]

let flops src = Cost.Model.program_cost Cost.Model.flops env (Parser.expression src)

let test_flop_counts () =
  Alcotest.(check (float 0.)) "elementwise add" 12. (flops "A + A");
  Alcotest.(check (float 0.)) "matmul 2mnk" 120. (flops "np.dot(A, B)");
  Alcotest.(check (float 0.)) "matvec" 24. (flops "np.dot(A, x)");
  Alcotest.(check (float 0.)) "sum" 12. (flops "np.sum(A)");
  Alcotest.(check (float 0.)) "transpose free" 0. (flops "A.T");
  Alcotest.(check (float 0.)) "chain adds up" 255. (flops "np.dot(A, B) + np.dot(A, B)");
  Alcotest.(check (float 0.)) "scalar broadcast mul" 12. (flops "s * A")

let test_flops_cannot_distinguish () =
  (* The paper's motivation for the measured model (Section VI-C). *)
  Alcotest.(check (float 0.)) "power(A,2) = A*A under flops"
    (flops "np.power(A, 2)") (flops "A * A")

let test_comprehension_cost () =
  let env = [ ("A", Types.float_t [| 4; 3 |]) ] in
  let c =
    Cost.Model.program_cost Cost.Model.flops env
      (Parser.expression "np.stack([r * 2 for r in A])")
  in
  (* 4 iterations x 3 flops each *)
  Alcotest.(check (float 0.)) "loop body charged per iteration" 12. c

let test_type_errors_propagate () =
  match Cost.Model.program_cost Cost.Model.flops env (Parser.expression "A + B") with
  | exception Types.Type_error _ -> ()
  | _ -> Alcotest.fail "ill-typed program should not have a cost"

let test_bytes_moved () =
  let a = Types.float_t [| 10; 10 |] in
  Alcotest.(check (float 0.)) "add traffic" (8. *. 300.)
    (Cost.Model.bytes_moved Ast.Add [ a; a ])

let test_measured_model () =
  let model = Cost.Model.measured ~scale:8 ~min_time:5e-4 () in
  let m = Types.float_t [| 8; 8 |] in
  let t_mul = model.op_cost Ast.Mul [ m; m ] in
  let t_pow = model.op_cost Ast.Pow_op [ m; m ] in
  Alcotest.(check bool) "costs positive" true (t_mul > 0. && t_pow > 0.);
  (* pow is genuinely more expensive than mul per element — the paper's
     example of what the measured model captures *)
  Alcotest.(check bool) "pow > mul" true (t_pow > t_mul);
  (* memoized: second call returns the same number *)
  Alcotest.(check (float 0.)) "memoized" t_mul (model.op_cost Ast.Mul [ m; m ]);
  (* dot costs grow with the contracted size *)
  let a34 = Types.float_t [| 3; 4 |] and b45 = Types.float_t [| 4; 5 |] in
  let a38 = Types.float_t [| 3; 8 |] and b85 = Types.float_t [| 8; 5 |] in
  let small = model.op_cost Ast.Dot [ a34; b45 ] in
  let big = model.op_cost Ast.Dot [ a38; b85 ] in
  Alcotest.(check bool) "dot monotone in k" true (big > small);
  (* attribute scaling keeps reshape applicable *)
  let r = model.op_cost (Ast.Reshape [| 4; 3 |]) [ Types.float_t [| 3; 4 |] ] in
  Alcotest.(check bool) "reshape cost finite" true (r >= 0. && r < 1.)

let test_measured_fallback_scaled_proxy () =
  (* reshape [2,3] -> [6] is valid unscaled, but scaling turns the
     operands into [24,36] (864 elements) while the attribute becomes
     [72]: profiling cannot run, so the model falls back to its
     FLOPs+traffic proxy.  Regression: the proxy used to be computed at
     the unscaled synthesis shapes while the lookup key and every
     profiled entry describe scaled shapes, under-pricing fallback ops
     by the scale factor squared. *)
  let model = Cost.Model.measured ~scale:12 ~overhead:0. () in
  let c = model.op_cost (Ast.Reshape [| 6 |]) [ Types.float_t [| 2; 3 |] ] in
  (* reshape moves no FLOPs; traffic at scale: 8 * (24*36 + 72) * 1e-10 *)
  Alcotest.(check (float 1e-12)) "proxy priced at scaled shapes" 7.488e-7 c

let test_roofline_model () =
  let m = Cost.Model.roofline in
  let a = Types.float_t [| 64; 64 |] in
  let t_mul = m.op_cost Ast.Mul [ a; a ] in
  let t_pow = m.op_cost Ast.Pow_op [ a; a ] in
  Alcotest.(check bool) "roofline: pow > mul" true (t_pow > t_mul);
  (* deterministic: same inputs, same cost *)
  Alcotest.(check (float 0.)) "roofline deterministic" t_mul
    (m.op_cost Ast.Mul [ a; a ]);
  (* transposes move memory, reshapes are views *)
  let t_tr = m.op_cost (Ast.Transpose None) [ a ] in
  let t_rs = m.op_cost (Ast.Reshape [| 4096 |]) [ a ] in
  Alcotest.(check bool) "transpose pays traffic, reshape is a view" true
    (t_tr > t_rs);
  (* it also drives the search to the paper's rewrites *)
  let env = [ ("A", Types.float_t [| 3; 3 |]) ] in
  let o =
    Stenso.Superopt.optimize ~model:m ~env
      (Parser.expression "np.power(A, 2)")
  in
  Alcotest.(check bool) "roofline finds pow->mul" true o.improved

let test_iter_scale () =
  Alcotest.(check int) "flops model has no loop scaling" 1
    Cost.Model.flops.iter_scale;
  let m = Cost.Model.measured ~scale:8 ~min_time:5e-4 () in
  Alcotest.(check int) "measured model scales trip counts" 8 m.iter_scale

let suite =
  [
    Alcotest.test_case "FLOP counts" `Quick test_flop_counts;
    Alcotest.test_case "flops blind to op kind" `Quick
      test_flops_cannot_distinguish;
    Alcotest.test_case "comprehension cost" `Quick test_comprehension_cost;
    Alcotest.test_case "type errors propagate" `Quick test_type_errors_propagate;
    Alcotest.test_case "memory traffic" `Quick test_bytes_moved;
    Alcotest.test_case "measured model" `Slow test_measured_model;
    Alcotest.test_case "measured fallback at scaled shapes" `Quick
      test_measured_fallback_scaled_proxy;
    Alcotest.test_case "roofline model" `Quick test_roofline_model;
    Alcotest.test_case "iteration scaling" `Slow test_iter_scale;
  ]
