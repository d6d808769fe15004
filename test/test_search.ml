(* The branch-and-bound synthesis search (Algorithm 2), exercised with
   the deterministic FLOPs model for reproducibility. *)
open Dsl
open Stenso

let model = Cost.Model.flops

let run ?(config = Search.default_config) env_src prog_src =
  let env, _ = Parser.program (env_src ^ "\nreturn 0") in
  let prog = Parser.expression prog_src in
  let spec = Sexec.exec_env env prog in
  let bound = Cost.Model.program_cost model env prog in
  let result =
    Search.run ~config ~model ~env ~spec ~initial_bound:bound
      ~consts:(Superopt.consts_of prog) ()
  in
  (env, prog, result)

let check_finds name env_src prog_src expected_src =
  let env, _, result = run env_src prog_src in
  match result.program with
  | None -> Alcotest.failf "%s: nothing synthesized" name
  | Some found ->
      let expected = Parser.expression expected_src in
      if not (Sexec.equivalent env found expected) then
        Alcotest.failf "%s: found %s, not equivalent to %s" name
          (Ast.to_string found) expected_src

let test_poly_division_end_to_end () =
  (* (1-s) factors out of d - s*d even though d is a contraction: needs
     polynomial long division plus the continue-past-expensive-match
     policy (both regressions we fixed during development) *)
  let env, _, result =
    run "input K : f32[3,4]\ninput W : f32[4,3]\ninput s : f32[]"
      "np.diag(np.dot(K, W)) - s * np.diag(np.dot(K, W))"
  in
  match result.program with
  | None -> Alcotest.fail "nothing synthesized"
  | Some found ->
      (* must be equivalent and must not contain the cubic contraction *)
      let expected =
        Parser.expression
          "np.multiply(np.sum(np.multiply(K, np.transpose(W)), axis=1), 1 - s)"
      in
      Alcotest.(check bool) "equivalent" true
        (Sexec.equivalent env found expected);
      let rec has_dot (t : Ast.t) =
        match t with
        | App (Dot, _) -> true
        | Input _ | Const _ -> false
        | App (_, args) -> List.exists has_dot args
        | For_stack { body; _ } -> has_dot body
      in
      Alcotest.(check bool) "contraction eliminated" false (has_dot found)

let test_finds_known_rewrites () =
  check_finds "diag identity" "input A : f32[3,4]\ninput B : f32[4,3]"
    "np.diag(np.dot(A, B))" "np.sum(np.multiply(A, B.T), axis=1)";
  check_finds "common factor"
    "input A : f32[2,2]\ninput B : f32[2,2]\ninput C : f32[2,2]"
    "A * B + C * B" "np.multiply(np.add(A, C), B)";
  check_finds "log identity" "input A : f32[2,2]\ninput B : f32[2,2]"
    "np.exp(np.log(A) - np.log(B))" "np.divide(A, B)";
  check_finds "polynomial" "input A : f32[2,2]\ninput B : f32[2,2]"
    "A + B - A - A + B * B - B" "np.subtract(np.multiply(B, B), A)"

let test_search_result_is_equivalent () =
  (* whatever the search returns must match the spec symbolically *)
  List.iter
    (fun (b : Suite.Benchmarks.t) ->
      let spec = Sexec.exec_env b.env b.program in
      let bound = Cost.Model.program_cost model b.env b.program in
      let result =
        Search.run ~model ~env:b.env ~spec ~initial_bound:bound
          ~consts:(Superopt.consts_of b.program) ()
      in
      match result.program with
      | None -> ()
      | Some found ->
          if not (Sexec.equivalent b.env b.program found) then
            Alcotest.failf "%s: synthesized inequivalent program %s" b.name
              (Ast.to_string found))
    [ Suite.Benchmarks.find "diag_dot"; Suite.Benchmarks.find "sum_stack";
      Suite.Benchmarks.find "synth_2"; Suite.Benchmarks.find "vec_lerp" ]

let test_bnb_prunes () =
  (* branch and bound must not change the result, only the effort *)
  let with_bnb = Search.default_config in
  let without = { Search.default_config with use_bnb = false; timeout = 30. } in
  let env_src = "input A : f32[3,3]\ninput B : f32[3,3]" in
  let prog = "(A * B) + 3 * (A * B)" in
  let _, _, r1 = run ~config:with_bnb env_src prog in
  let _, _, r2 = run ~config:without env_src prog in
  (match (r1.program, r2.program) with
  | Some p1, Some p2 ->
      Alcotest.(check (float 1e-9)) "same optimum cost" r2.cost r1.cost;
      ignore (p1, p2)
  | _ -> Alcotest.fail "both configurations must synthesize");
  Alcotest.(check bool) "bnb prunes something" true (r1.stats.pruned_bnb > 0)

let test_simplification_prunes () =
  let env_src = "input A : f32[3,3]\ninput B : f32[3,3]" in
  let _, _, r = run env_src "A * B + B" in
  Alcotest.(check bool) "simplification objective fires" true
    (r.stats.pruned_simp > 0)

let test_node_budget () =
  let config = { Search.default_config with node_budget = 3 } in
  let _, _, r =
    run ~config "input A : f32[3,3]\ninput B : f32[3,3]"
      "np.sqrt(A) * B + np.sqrt(A) * A"
  in
  Alcotest.(check bool) "budget reported" true
    (r.stats.timed_out || r.stats.nodes <= 4)

let test_anytime_returns_best () =
  (* Regression: in the sequential engine an expired budget used to
     unwind through the root and discard the best program found so far
     (returning [None] with [timed_out]), while parallel workers kept
     theirs.  Both engines must now degrade to best-so-far. *)
  List.iter
    (fun jobs ->
      let config = { Search.default_config with node_budget = 1; jobs } in
      let _, _, r =
        run ~config "input A : f32[3,4]\ninput B : f32[4,3]"
          "np.diag(np.dot(A, B))"
      in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d: budget expired" jobs)
        true r.stats.timed_out;
      match r.program with
      | None ->
          Alcotest.failf "jobs=%d: best-so-far discarded on budget expiry"
            jobs
      | Some _ -> ())
    [ 1; 2 ]

let test_shared_node_budget () =
  (* Regression: each parallel worker used to start its own node count
     at zero, so [--jobs N] multiplied the node budget by N.  The count
     is now one shared atomic total; each worker can overshoot by at
     most the one increment it was executing when the budget tripped. *)
  let budget = 20 in
  let env_src = "input A : f32[3,3]\ninput B : f32[3,3]" in
  let prog = "np.sqrt(A) * B + np.sqrt(A) * A" in
  List.iter
    (fun jobs ->
      let config =
        { Search.default_config with node_budget = budget; jobs }
      in
      let _, _, r = run ~config env_src prog in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d: budget expired" jobs)
        true r.stats.timed_out;
      if r.stats.nodes > budget + jobs + 2 then
        Alcotest.failf "jobs=%d: %d nodes for a budget of %d" jobs
          r.stats.nodes budget)
    [ 1; 4 ]

let test_cost_never_above_bound () =
  (* Algorithm 1: returned cost is below the original's estimate. *)
  List.iter
    (fun (b : Suite.Benchmarks.t) ->
      let o = Superopt.optimize ~model ~env:b.env b.program in
      if o.improved then begin
        if not (o.optimized_cost < o.original_cost) then
          Alcotest.failf "%s: 'improved' but cost did not drop" b.name
      end
      else if not (Ast.equal o.optimized b.program) then
        Alcotest.failf "%s: unimproved outcome must return the original"
          b.name)
    Suite.Benchmarks.github

(* The search solves under the simplification filter's budget: the
   solver skips elementwise holes the filter would reject and recombines
   only what the filter keeps.  At every expanded node, the viable list
   must be exactly that of the eager formulation: every candidate built
   and recombined ({!Invert.candidates} kept by {!Invert.recombines}), then
   filtered.  The node
   and memo counts are pinned to those of the eager engine. *)
let eager_viable lib ~visited spec =
  let spec_cx = Spec.complexity spec in
  let viable =
    List.filter_map
      (fun (d : Invert.decomposition) ->
        let holes = Invert.hole_specs d in
        if List.exists (fun h -> List.exists (Spec.equal h) visited) holes
        then None
        else
          let cxs = List.map Spec.complexity holes in
          let avg =
            List.fold_left ( +. ) 0. cxs
            /. float_of_int (max 1 (List.length cxs))
          in
          let tie = match d.op with Ast.Transpose _ -> true | _ -> false in
          if not (avg < spec_cx || (avg = spec_cx && tie)) then None
          else
            let arg_ts =
              List.map
                (function
                  | Invert.P_hole h ->
                      Types.float_t (Spec.shape (Spec.collapse h))
                  | Invert.P_conc (s : Stub.t) -> s.vt)
                d.parts
            in
            match model.Cost.Model.op_cost d.op arg_ts with
            | c -> Some (d, c +. Invert.conc_cost d)
            | exception Types.Type_error _ -> None)
      (List.filter (Invert.recombines spec) (Invert.candidates lib spec))
  in
  List.stable_sort (fun (_, c1) (_, c2) -> compare c1 c2) viable

let test_budgeted_equals_eager () =
  let config =
    Config.default |> Config.with_estimator `Flops |> Config.search_config
  in
  List.iter
    (fun (name, (nodes, hits, misses)) ->
      let b = Suite.Benchmarks.find name in
      let consts = Superopt.consts_of b.program in
      let stub_cache = Stub.Cache.create () in
      let library, _ =
        Stub.Cache.enumerate stub_cache ~config:config.stub_config ~model
          ~consts b.env
      in
      let expanded = ref 0 in
      let observe ~visited spec viable =
        incr expanded;
        let eager = eager_viable library ~visited spec in
        if viable <> eager then
          Alcotest.failf "%s: node %d keeps %d decompositions, eagerly %d"
            name !expanded (List.length viable) (List.length eager)
      in
      let r =
        Search.run ~config ~stub_cache ~observe ~model ~env:b.env
          ~spec:(Sexec.exec_env b.env b.program)
          ~initial_bound:(Cost.Model.program_cost model b.env b.program)
          ~consts ()
      in
      Alcotest.(check bool) (name ^ ": nodes expanded") true (!expanded > 0);
      Alcotest.(check (list int))
        (name ^ ": nodes, memo hits, memo misses")
        [ nodes; hits; misses ]
        [ r.stats.nodes; r.stats.memo_hits; r.stats.memo_misses ])
    [
      ("diag_dot", (16, 1, 2));
      ("log_exp_1", (20, 2, 5));
      ("common_factor", (75, 14, 35));
      ("sum_stack", (227, 78, 103));
      ("synth_2", (63, 14, 35));
      ("synth_8", (44, 10, 9));
    ]

let suite =
  [
    Alcotest.test_case "finds the paper's rewrites" `Quick
      test_finds_known_rewrites;
    Alcotest.test_case "polynomial division end to end" `Quick
      test_poly_division_end_to_end;
    Alcotest.test_case "results are equivalent" `Quick
      test_search_result_is_equivalent;
    Alcotest.test_case "bnb preserves optimum" `Quick test_bnb_prunes;
    Alcotest.test_case "simplification objective" `Quick
      test_simplification_prunes;
    Alcotest.test_case "node budget" `Quick test_node_budget;
    Alcotest.test_case "anytime: budget expiry keeps best-so-far" `Quick
      test_anytime_returns_best;
    Alcotest.test_case "node budget shared across workers" `Quick
      test_shared_node_budget;
    Alcotest.test_case "Algorithm 1 contract (github suite)" `Slow
      test_cost_never_above_bound;
    Alcotest.test_case "budgeted solve equals eager, node by node" `Quick
      test_budgeted_equals_eager;
  ]
