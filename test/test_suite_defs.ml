(* Invariants of the benchmark-suite definition (Tables I and II). *)
module B = Suite.Benchmarks

let test_counts () =
  Alcotest.(check int) "21 GitHub benchmarks" 21 (List.length B.github);
  Alcotest.(check int) "12 synthetic benchmarks" 12 (List.length B.synthetic);
  Alcotest.(check int) "33 total" 33 (List.length B.all)

let test_unique_names () =
  let names = List.map (fun (b : B.t) -> b.name) B.all in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let count klass =
  List.length (List.filter (fun (b : B.t) -> b.klass = klass) B.all)

let test_class_distribution () =
  (* Fig. 6's two stated counts *)
  Alcotest.(check int) "Algebraic Simplification 9" 9
    (count B.Algebraic_simplification);
  Alcotest.(check int) "Strength Reduction 8" 8 (count B.Strength_reduction);
  (* every class is populated and everything is classified *)
  List.iter
    (fun k ->
      if count k = 0 then
        Alcotest.failf "empty transformation class %s"
          (Stenso.Classify.klass_name k))
    B.all_klasses;
  Alcotest.(check int) "classes partition the suite" 33
    (List.fold_left (fun acc k -> acc + count k) 0 B.all_klasses)

let test_lookup () =
  Alcotest.(check string) "find" "diag_dot" (B.find "diag_dot").name;
  Alcotest.(check bool) "find_opt none" true (B.find_opt "nope" = None)

let test_programs_match_table () =
  (* spot-check the expressions against the paper's Tables I/II *)
  let expect name src =
    let b = B.find name in
    let expected = Dsl.Parser.expression src in
    if not (Dsl.Ast.equal b.program expected) then
      Alcotest.failf "%s: table expression drifted" name
  in
  expect "diag_dot" "np.diag(np.dot(A, B))";
  expect "power_neg" "np.power(A, -1)";
  expect "trace_dot" "np.trace(A @ B.T)";
  expect "synth_1" "(A * B) + 3 * (A * B)";
  expect "synth_11" "A * A * A * A * A";
  expect "vec_lerp" "np.stack([x*a + (1 - a)*y for a in A])"

let test_perf_shapes_larger () =
  List.iter
    (fun (b : B.t) ->
      List.iter2
        (fun (n1, (v1 : Dsl.Types.vt)) (n2, (v2 : Dsl.Types.vt)) ->
          if n1 <> n2 then Alcotest.failf "%s: env order differs" b.name;
          if Tensor.Shape.numel v2.shape < Tensor.Shape.numel v1.shape then
            Alcotest.failf "%s/%s: perf shape smaller than synthesis shape"
              b.name n1)
        b.env b.perf_env)
    B.all

let test_ml_unique_names () =
  (* extension tiers must not shadow the paper suite or each other *)
  let names =
    List.map (fun (b : B.t) -> b.name) (B.all @ B.masking @ B.ml)
  in
  Alcotest.(check int) "names unique across all tiers" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_ml_tier () =
  Alcotest.(check bool) "at least 8 ML benchmarks" true
    (List.length B.ml >= 8);
  (* roofline, not flops: it weighs transcendentals (pow/exp/sqrt), so
     it sees the strength reductions the plain FLOP count is blind to *)
  let model = Cost.Model.roofline in
  List.iter
    (fun (b : B.t) ->
      (* the pair must be provably equivalent — at the synthesis shapes
         and (when shape-free) at perturbed ones *)
      if
        not
          (Stenso.Superopt.robust_equivalent ~env:b.env b.program
             b.expected_opt)
      then Alcotest.failf "%s: orig and opt are not robustly equivalent" b.name;
      (* and the optimization must actually pay at perf shapes *)
      let orig =
        Cost.Model.program_cost model b.perf_env b.perf_program
      and opt =
        Cost.Model.program_cost model b.perf_env b.perf_expected_opt
      in
      if not (opt < orig) then
        Alcotest.failf "%s: expected_opt not cheaper (%g >= %g)" b.name opt
          orig;
      (* reachable through the named-benchmark CLI path *)
      if B.find_opt b.name = None then
        Alcotest.failf "%s: not reachable via find_opt" b.name)
    B.ml

let suite =
  [
    Alcotest.test_case "suite sizes" `Quick test_counts;
    Alcotest.test_case "unique names" `Quick test_unique_names;
    Alcotest.test_case "class distribution (Fig. 6)" `Quick
      test_class_distribution;
    Alcotest.test_case "lookup" `Quick test_lookup;
    Alcotest.test_case "table expressions" `Quick test_programs_match_table;
    Alcotest.test_case "perf shapes dominate" `Quick test_perf_shapes_larger;
    Alcotest.test_case "ML tier names unique" `Quick test_ml_unique_names;
    Alcotest.test_case "ML tier equivalence and cost" `Quick test_ml_tier;
  ]
