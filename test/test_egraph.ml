(* Equality saturation (the TENSAT-style engine fed by mined rules). *)
open Dsl
open Stenso

let p = Parser.expression
let ast = Alcotest.testable Ast.pp Ast.equal

let env =
  [ ("A", Types.float_t [| 3; 4 |]); ("B", Types.float_t [| 4; 3 |]);
    ("C", Types.float_t [| 3; 4 |]) ]

let diag_rule =
  Rules.generalize
    (p "np.diag(np.dot(A, B))")
    (p "np.sum(np.multiply(A, B.T), axis=1)")

let comm_add = Rules.generalize (p "A + B") (p "B + A")
let pow2 = Rules.generalize (p "np.power(A, 2)") (p "np.multiply(A, A)")

let test_hashconsing () =
  let g = Egraph.create env in
  let c1 = Egraph.add g (p "np.dot(A, B) + np.dot(A, B)") in
  let c2 = Egraph.add g (p "np.dot(A, B)") in
  let st = Egraph.stats g in
  (* the duplicated dot is shared: add, dot, A, B -> 4 nodes *)
  Alcotest.(check int) "structure shared" 4 st.nodes;
  Alcotest.(check bool) "distinct classes" true (not (Egraph.equivalent g c1 c2))

let test_saturation_rewrites () =
  let g = Egraph.create env in
  let orig = p "np.diag(np.dot(A, B))" in
  let cls = Egraph.add g orig in
  let st = Egraph.saturate ~rules:[ diag_rule ] g in
  Alcotest.(check bool) "applied once" true (st.applications >= 1);
  Alcotest.(check bool) "reached fixpoint" true st.saturated;
  let best = Egraph.extract g ~model:Cost.Model.flops cls in
  Alcotest.check ast "extraction picks the cheap form"
    (p "np.sum(np.multiply(A, np.transpose(B)), axis=1)")
    best;
  Alcotest.(check bool) "extraction preserves semantics" true
    (Sexec.equivalent env orig best)

let test_congruence () =
  let g = Egraph.create env in
  let c1 = Egraph.add g (p "np.sqrt(A + C)") in
  let c2 = Egraph.add g (p "np.sqrt(C + A)") in
  Alcotest.(check bool) "initially distinct" true
    (not (Egraph.equivalent g c1 c2));
  ignore (Egraph.saturate ~rules:[ comm_add ] g);
  (* commutativity of the argument must propagate through sqrt *)
  Alcotest.(check bool) "congruence closure" true (Egraph.equivalent g c1 c2)

let test_rule_set_limitation () =
  (* the paper's point: without the relevant rule, saturation cannot
     improve the program *)
  let g = Egraph.create env in
  let orig = p "np.diag(np.dot(A, B))" in
  let cls = Egraph.add g orig in
  ignore (Egraph.saturate ~rules:[ pow2; comm_add ] g);
  let best = Egraph.extract g ~model:Cost.Model.flops cls in
  Alcotest.(check bool) "no rule, no gain" true
    (Cost.Model.program_cost Cost.Model.flops env best
     >= Cost.Model.program_cost Cost.Model.flops env orig)

let test_node_limit () =
  (* commutativity alone blows up; the node limit must stop it *)
  let g = Egraph.create env in
  let _ = Egraph.add g (p "A + C + A + C + A + C + A + C") in
  let st = Egraph.saturate ~node_limit:200 ~rules:[ comm_add ] g in
  Alcotest.(check bool) "bounded" true (st.nodes <= 400)

let test_mined_rules_cross_apply () =
  (* a rule mined from one program optimizes a structurally different
     one inside the e-graph (the paper's feedback-loop claim) *)
  let envk =
    [ ("K", Types.float_t [| 2; 3 |]); ("W", Types.float_t [| 3; 2 |]);
      ("s", Types.scalar_f) ]
  in
  let g = Egraph.create envk in
  let orig = p "np.multiply(s, np.diag(np.dot(K, W)))" in
  let cls = Egraph.add g orig in
  ignore (Egraph.saturate ~rules:[ diag_rule ] g);
  let best = Egraph.extract g ~model:Cost.Model.flops cls in
  Alcotest.(check bool) "nested position rewritten" true
    (Cost.Model.program_cost Cost.Model.flops envk best
     < Cost.Model.program_cost Cost.Model.flops envk orig);
  Alcotest.(check bool) "still equivalent" true
    (Sexec.equivalent envk orig best)

let test_nan_hashconsing () =
  (* Constants are hashconsed by their IEEE bit pattern: under
     structural equality nan <> nan, so a NaN constant used to mint a
     fresh e-node (and a fresh class) on every insertion. *)
  let g = Egraph.create env in
  let nan_prog = Ast.App (Ast.Mul, [ Ast.Input "A"; Ast.Const Float.nan ]) in
  let c1 = Egraph.add g nan_prog in
  let c2 = Egraph.add g nan_prog in
  Alcotest.(check bool) "same class" true (Egraph.equivalent g c1 c2);
  (* mul, A, nan: exactly three nodes despite the double insertion *)
  Alcotest.(check int) "structure shared" 3 (Egraph.stats g).nodes;
  (* a rule whose pattern carries a NaN constant must still match *)
  let rule =
    {
      Rules.lhs = Ast.App (Ast.Mul, [ Ast.Input "X"; Ast.Const Float.nan ]);
      rhs = Ast.App (Ast.Mul, [ Ast.Const Float.nan; Ast.Input "X" ]);
      metavars = [ ("A", "X") ];
    }
  in
  let st = Egraph.saturate ~rules:[ rule ] g in
  Alcotest.(check bool) "NaN pattern applies" true (st.applications >= 1);
  (* extraction round-trips the bit pattern back to a NaN constant *)
  let best = Egraph.extract g ~model:Cost.Model.flops c1 in
  let rec has_nan = function
    | Ast.Const f -> Float.is_nan f
    | Ast.Input _ -> false
    | Ast.App (_, args) -> List.exists has_nan args
    | Ast.For_stack { body; _ } -> has_nan body
  in
  Alcotest.(check bool) "NaN survives extraction" true (has_nan best)

(* The indexed matcher against the plain rule-major scan: saturating with
   [Egraph.compile rules] and with [Egraph.unindexed rules] must build the
   same e-graph (same stats, every class id in the same equivalence
   class) and extract the same program. *)
let same_as_scan ~what env rules prog =
  let run set =
    let g = Egraph.create env in
    let cls = Egraph.add g prog in
    let st = Egraph.saturate_set set g in
    let reprs = List.init st.nodes (Egraph.repr g) in
    (st, reprs, Egraph.extract g ~model:Cost.Model.flops cls)
  in
  let st, reprs, best = run (Egraph.compile rules) in
  let st', reprs', best' = run (Egraph.unindexed rules) in
  let stats (s : Egraph.saturation_stats) =
    [ s.iterations; s.applications; s.classes; s.nodes;
      Bool.to_int s.saturated ]
  in
  Alcotest.(check (list int)) (what ^ ": stats") (stats st') (stats st);
  Alcotest.(check (list int)) (what ^ ": classes") reprs' reprs;
  Alcotest.check ast (what ^ ": extracted") best' best

let test_index_matches_scan () =
  let suite = Suite.Benchmarks.github @ Suite.Benchmarks.synthetic in
  List.iter
    (fun name ->
      let b = Suite.Benchmarks.find name in
      let db, _ = Mine.mine_env ~depth:2 ~model:Cost.Model.flops b.env in
      let rules = List.map (fun (r : Rules_db.rule) -> r.rule) db.rules in
      List.iter
        (fun (b' : Suite.Benchmarks.t) ->
          if b'.env = b.env then
            same_as_scan ~what:(name ^ "/" ^ b'.name) b.env rules b'.program)
        suite)
    [ "diag_dot"; "log_exp_1"; "common_factor"; "synth_11" ];
  (* A bare-metavariable left side matches every class; [stack] at two
     arities shares an operator but not a root. *)
  let rule lhs rhs metavars = { Rules.lhs = p lhs; rhs = p rhs; metavars } in
  let envs =
    [ ("A", Types.float_t [| 3 |]); ("B", Types.float_t [| 3 |]);
      ("C", Types.float_t [| 3 |]) ]
  in
  let rules =
    [
      rule "X" "np.multiply(X, 1)" [ ("A", "X") ];
      rule "np.stack([X, Y], axis=0)" "np.stack([Y, X], axis=0)"
        [ ("A", "X"); ("B", "Y") ];
      rule "np.stack([X, Y, Z], axis=0)" "np.stack([Z, Y, X], axis=0)"
        [ ("A", "X"); ("B", "Y"); ("C", "Z") ];
      rule "np.multiply(X, 1)" "X" [ ("A", "X") ];
    ]
  in
  List.iter
    (fun prog -> same_as_scan ~what:prog envs rules (p prog))
    [
      "np.stack([A, B], axis=0) + np.stack([A, C], axis=0)";
      "np.sum(np.stack([A, B, C], axis=0), axis=0) + np.sum(np.stack([C, \
       B], axis=0), axis=0)";
    ]

let test_unsupported_loops () =
  let envl = [ ("A", Types.float_t [| 3; 2 |]) ] in
  let g = Egraph.create envl in
  match Egraph.add g (p "np.stack([r * 2 for r in A])") with
  | exception Egraph.Unsupported _ -> ()
  | _ -> Alcotest.fail "comprehensions must be rejected"

let suite =
  [
    Alcotest.test_case "hash consing" `Quick test_hashconsing;
    Alcotest.test_case "saturation + extraction" `Quick
      test_saturation_rewrites;
    Alcotest.test_case "congruence closure" `Quick test_congruence;
    Alcotest.test_case "rule-set limitation" `Quick test_rule_set_limitation;
    Alcotest.test_case "node limit" `Quick test_node_limit;
    Alcotest.test_case "mined rules cross-apply" `Quick
      test_mined_rules_cross_apply;
    Alcotest.test_case "NaN hashconsing" `Quick test_nan_hashconsing;
    Alcotest.test_case "loops unsupported" `Quick test_unsupported_loops;
    Alcotest.test_case "indexed matcher equals the scan" `Quick
      test_index_matches_scan;
  ]
