(* The symbolic-algebra solver: every decomposition it returns must be
   exact — recombining the parts reproduces the specification. *)
open Dsl
open Stenso
module St = Sexec.Stensor

let model = Cost.Model.flops

let setup env_src =
  let env, _ = Parser.program (env_src ^ "\nreturn 0") in
  let lib = Stub.enumerate ~model ~consts:[ 1.; 2. ] env in
  (env, lib)

let spec_of env src = Sexec.exec_env env (Parser.expression src)

(* The eager solver: every candidate built, kept when it recombines. *)
let decompositions lib spec =
  List.filter (Invert.recombines spec) (Invert.candidates lib spec)

(* Recombine a decomposition by symbolically executing the operation on
   conc semantics / hole specs. *)
let recombine (d : Invert.decomposition) =
  let args =
    List.map
      (function Invert.P_hole h -> h | Invert.P_conc s -> s.Stub.sem)
      d.parts
  in
  Sexec.apply_op d.op args

let check_all_exact name env lib src =
  let spec = spec_of env src in
  let ds = decompositions lib spec in
  if ds = [] then Alcotest.failf "%s: no decompositions at all" name;
  List.iter
    (fun d ->
      match recombine d with
      | r ->
          if not (St.equal r spec) then
            Alcotest.failf "%s: inexact decomposition %s" name
              (Format.asprintf "%a" Invert.pp d)
      | exception (Invalid_argument _ | Eval.Eval_error _) ->
          Alcotest.failf "%s: decomposition does not recombine (%s)" name
            (Format.asprintf "%a" Invert.pp d))
    ds;
  ds

let has_shape (d : Invert.decomposition) op_name =
  Ast.op_name d.op = op_name

let test_elementwise_inversions () =
  let env, lib = setup "input A : f32[2,2]\ninput B : f32[2,2]" in
  let ds = check_all_exact "A+B" env lib "A + B" in
  Alcotest.(check bool) "add decomposition offered" true
    (List.exists (fun d -> has_shape d "add") ds);
  let ds = check_all_exact "A*B+B" env lib "A * B + B" in
  (* mul(??, B) must solve with hole = A + 1 via exact division *)
  Alcotest.(check bool) "exact division sketch" true
    (List.exists
       (fun (d : Invert.decomposition) ->
         has_shape d "multiply"
         && List.exists
              (function
                | Invert.P_hole h ->
                    Spec.equal h (spec_of env "np.add(A, np.full((2,2), 1))")
                | Invert.P_conc _ -> false)
              d.parts)
       ds)

let test_poly_division_inversion () =
  (* (1 - s) * (K ∘ W) requires polynomial long division by the sum. *)
  let env, lib = setup "input K : f32[2,2]\ninput s : f32[]" in
  let ds =
    check_all_exact "poly" env lib "np.multiply(K, K) - s * np.multiply(K, K)"
  in
  Alcotest.(check bool) "divides out (1 - s)" true
    (List.exists
       (fun (d : Invert.decomposition) ->
         has_shape d "multiply"
         && List.exists
              (function
                | Invert.P_conc c ->
                    Spec.equal c.Stub.sem (spec_of env "1 - s")
                | Invert.P_hole _ -> false)
              d.parts)
       ds)

let test_sum_split () =
  let env, lib = setup "input A : f32[2,3]\ninput B : f32[3,2]" in
  let ds = check_all_exact "diag dot" env lib "np.diag(np.dot(A, B))" in
  (* splitting the contraction terms into a fresh axis *)
  Alcotest.(check bool) "sum sketch with summable hole" true
    (List.exists
       (fun (d : Invert.decomposition) ->
         match (d.op, Invert.hole_specs d) with
         | Ast.Sum { axis = Some _; _ }, [ h ] ->
             Tensor.Shape.rank (Spec.shape h) = 2
         | _ -> false)
       ds)

let test_dot_inversions () =
  let env, lib = setup "input A : f32[2,3]\ninput x : f32[3]" in
  let ds = check_all_exact "matvec" env lib "np.sum(A * x, axis=1)" in
  (* dot(??, x) must recover the matrix A as the hole *)
  Alcotest.(check bool) "linear extraction recovers A" true
    (List.exists
       (fun (d : Invert.decomposition) ->
         has_shape d "dot"
         && List.exists
              (function
                | Invert.P_hole h -> Spec.equal h (spec_of env "A")
                | Invert.P_conc _ -> false)
              d.parts)
       ds)

let test_quadratic_assignment () =
  (* x^T A x is nonlinear in x; the term-assignment fallback must still
     produce an exact tensordot decomposition with hole A @ x. *)
  let env, lib = setup "input x : f32[3,1]\ninput A : f32[3,3]" in
  let ds = check_all_exact "quadratic" env lib "(x.T @ A) @ x" in
  Alcotest.(check bool) "tensordot fallback solves x^T A x" true
    (List.exists
       (fun (d : Invert.decomposition) ->
         match d.op with
         | Ast.Tensordot _ ->
             List.exists
               (function
                 | Invert.P_hole h -> Spec.equal h (spec_of env "A @ x")
                 | Invert.P_conc _ -> false)
               d.parts
         | _ -> false)
       ds)

(* Does some decomposition apply [op] to exactly these parts: [`H src]
   a hole equal to [src]'s value, [`C src] a concrete operand with it? *)
let solutions env ds op parts =
  let part p q =
    match (p, q) with
    | Invert.P_hole h, `H src -> Spec.equal h (spec_of env src)
    | Invert.P_conc c, `C src -> Spec.equal c.Stub.sem (spec_of env src)
    | _ -> false
  in
  List.length
    (List.filter
       (fun (d : Invert.decomposition) ->
         d.op = op
         && List.length d.parts = List.length parts
         && List.for_all2 part d.parts parts)
       ds)

(* One known hole per contraction sketch.  [dot(??, c)] tries linear
   extraction and term assignment each over the whole hole: a spec
   linear in [x] is solved by both with the same hole, which is emitted
   once, and one that is not is solved by assignment alone. *)
let test_contraction_sketches () =
  let expect env lib name src op parts n =
    let ds = check_all_exact name env lib src in
    Alcotest.(check int) name n (solutions env ds op parts)
  in
  let env, lib = setup "input A : f32[2,3]\ninput x : f32[3]" in
  let check = expect env lib in
  check "dot(??, c) once" "A @ x" Ast.Dot [ `H "A"; `C "x" ] 1;
  check "dot(??, c) by assignment" "np.dot(A * x, x)" Ast.Dot
    [ `H "A * x"; `C "x" ] 1;
  check "dot(c, ??) rank-1 hole" "A @ x" Ast.Dot [ `C "A"; `H "x" ] 1;
  let env, lib = setup "input A : f32[3,2]\ninput B : f32[3,4]" in
  let check = expect env lib in
  check "dot(c, ??) rank-2 hole" "A.T @ B" Ast.Dot
    [ `C "np.transpose(A)"; `H "B" ] 1;
  let td = Ast.Tensordot ([ 0 ], [ 0 ]) in
  check "tensordot(c, ??)" "A.T @ B" td [ `C "A"; `H "B" ] 1;
  check "tensordot(??, c)" "A.T @ B" td [ `H "A"; `C "B" ] 1

let test_two_hole_splits () =
  let env, lib = setup "input A : f32[2,2]\ninput B : f32[2,2]" in
  let ds = check_all_exact "mixed sum" env lib "A * A + B" in
  (* by-variable split must separate the A-terms from the B-terms *)
  Alcotest.(check bool) "add split by variable" true
    (List.exists
       (fun (d : Invert.decomposition) ->
         has_shape d "add"
         && List.length (Invert.hole_specs d) = 2
         && List.exists (fun h -> Spec.equal h (spec_of env "A * A"))
              (Invert.hole_specs d))
       ds);
  (* sign split: positive and negated negative parts *)
  let ds = check_all_exact "signed" env lib "A * A - B" in
  Alcotest.(check bool) "sub split by sign" true
    (List.exists
       (fun (d : Invert.decomposition) ->
         has_shape d "subtract"
         && List.exists (fun h -> Spec.equal h (spec_of env "B"))
              (Invert.hole_specs d))
       ds)

let test_transpose_sqrt_exp () =
  let env, lib = setup "input A : f32[2,3]" in
  let ds = check_all_exact "transposed" env lib "np.transpose(A) + 0" in
  Alcotest.(check bool) "transpose inversion" true
    (List.exists (fun d -> has_shape d "transpose") ds);
  let ds = check_all_exact "rooted" env lib "np.sqrt(A)" in
  Alcotest.(check bool) "sqrt inversion squares the spec" true
    (List.exists
       (fun (d : Invert.decomposition) ->
         has_shape d "sqrt"
         && List.for_all (fun h -> Spec.equal h (spec_of env "A"))
              (Invert.hole_specs d))
       ds)

let test_power_inversions () =
  let env, lib = setup "input A : f32[2,2]" in
  (* power(??, 2) on spec A^2 -> hole A *)
  let ds = check_all_exact "square" env lib "A * A" in
  Alcotest.(check bool) "root inversion" true
    (List.exists
       (fun (d : Invert.decomposition) ->
         has_shape d "power"
         && List.exists (fun h -> Spec.equal h (spec_of env "A"))
              (Invert.hole_specs d))
       ds);
  (* power(A, ??) on spec A^5 -> scalar hole 5 *)
  let ds = check_all_exact "fifth" env lib "A * A * A * A * A" in
  Alcotest.(check bool) "exponent extraction" true
    (List.exists
       (fun (d : Invert.decomposition) ->
         has_shape d "power"
         &&
         match Invert.hole_specs d with
         | [ h ] -> Spec.to_const h = Some (Symbolic.Q.of_int 5)
         | _ -> false)
       ds)

let test_maximum_strip () =
  let env, lib = setup "input A : f32[2,2]\ninput B : f32[2,2]" in
  let ds = check_all_exact "max" env lib "np.maximum(A, B) + 0" in
  Alcotest.(check bool) "maximum inversion strips one operand" true
    (List.exists (fun d -> has_shape d "maximum") ds)

(* Property: over random program specs, every decomposition the solver
   emits recombines exactly (the module's central contract). *)
let prop_decompositions_exact =
  QCheck2.Test.make ~name:"invert: all decompositions recombine" ~count:60
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let env, prog =
        Suite.Generator.generate
          { Suite.Generator.default with size = 4; seed }
      in
      let lib = Stub.enumerate ~model ~consts:[ 1. ] env in
      let spec = Sexec.exec_env env prog in
      List.for_all
        (fun (d : Invert.decomposition) ->
          match recombine d with
          | r -> St.equal r spec
          | exception _ -> false)
        (decompositions lib spec))

(* The variable-set bound the search uses to skip elementwise holes
   unbuilt: for every single-hole add/sub/mul/div sketch the eager solver
   builds, each variable in exactly one operand element survives in the
   hole element and no variable outside both appears there (on every
   element the bound counts), and the bound never exceeds the hole's
   complexity.  Specs are generated programs or library values. *)
let hole_bound_admissible (seed, size, from_library) =
  let env, prog =
    Suite.Generator.generate { Suite.Generator.default with size; seed }
  in
  let consts = List.nth [ [ 1. ]; [ 2.; 0.5 ]; [ 0.; 1. ] ] (seed mod 3) in
  let lib = Stub.enumerate ~model ~consts env in
  let spec =
    let floats =
      List.filter
        (fun (s : Stub.t) -> s.vt.dtype = Types.Float)
        (Stub.stubs lib)
    in
    if from_library && floats <> [] then
      (List.nth floats (seed mod List.length floats)).sem
    else Sexec.exec_env env prog
  in
  let vars = Symbolic.Expr.vars in
  let check (d : Invert.decomposition) =
    let family =
      match d.parts with
      | [ P_hole h; P_conc c ] | [ P_conc c; P_hole h ] -> (
          match d.op with
          | Ast.Add | Ast.Sub -> Some (false, h, c)
          | Ast.Mul | Ast.Div -> Some (true, h, c)
          | _ -> None)
      | _ -> None
    in
    match family with
    | None -> true
    | Some (mult, h, c) ->
        let cb = St.map2 (fun _ ce -> ce) spec c.sem in
        let sa = St.to_array spec and ca = St.to_array cb in
        let ha = St.to_array h in
        let elements_ok =
          Array.for_all Fun.id
            (Array.mapi
               (fun i se ->
                 let ce = ca.(i) in
                 let counted =
                   let decides e =
                     not Symbolic.Expr.(is_zero e || may_cancel e)
                   in
                   (not mult) || (decides se && decides ce)
                 in
                 (not counted)
                 ||
                 let sv = vars se and cv = vars ce and hv = vars ha.(i) in
                 let module S = Symbolic.Sym.Set in
                 let forced = S.union (S.diff sv cv) (S.diff cv sv) in
                 S.subset forced hv && S.subset hv (S.union sv cv))
               sa)
        in
        let lb = Invert.hole_bound ~multiplicative:mult spec c in
        if not (elements_ok && lb <= Spec.complexity h) then
          QCheck2.Test.fail_reportf
            "%s of %s: hole %s, bound %g, hole complexity %g"
            (Format.asprintf "%a" Invert.pp d)
            (Format.asprintf "%a" Spec.pp spec)
            (Format.asprintf "%a" Spec.pp h)
            lb (Spec.complexity h)
        else true
  in
  List.for_all check (Invert.candidates lib spec)

let prop_hole_bound_admissible =
  QCheck2.Test.make ~name:"invert: var-set hole bound never overestimates"
    ~count:60
    QCheck2.Gen.(triple (int_range 0 10_000) (int_range 1 5) bool)
    hole_bound_admissible

(* Instances the random property has failed on, kept as fixed cases.
   (8967, 5, false), drawn under QCHECK_SEED=95, holds a [divide(I1, ??)]
   sketch of a spec with elements [I1*I2*(I2 - I1*I2)^-1]: [I2] cancels
   from the quotient, so those elements decide nothing. *)
let test_hole_bound_fixed () =
  List.iter
    (fun case ->
      Alcotest.(check bool) "bound admissible" true (hole_bound_admissible case))
    [ (8967, 5, false) ]

(* The hole of [sub(c, ??)] is built as the negation of [add(??, c)]'s
   hole [spec - c]; it must equal the direct subtraction [c - spec]. *)
let prop_sub_hole_is_negation =
  QCheck2.Test.make ~name:"invert: sub(c, ??) hole is c - spec" ~count:40
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let env, prog =
        Suite.Generator.generate
          { Suite.Generator.default with size = 4; seed }
      in
      let lib = Stub.enumerate ~model ~consts:[ 1.; 2. ] env in
      let spec = Sexec.exec_env env prog in
      List.for_all
        (fun (d : Invert.decomposition) ->
          match (d.op, d.parts) with
          | Ast.Sub, [ P_conc c; P_hole h ] -> St.equal h (St.sub c.sem spec)
          | _ -> true)
        (Invert.candidates lib spec))

(* Under a budget the solver skips a sketch family whose variable-set
   bound reaches the spec's complexity: [multiply(??, 1)] has the spec
   itself as its hole, so it is built without a budget and skipped under
   one. *)
let test_budget_skips_identity () =
  let env, lib = setup "input A : f32[2,2]\ninput B : f32[2,2]" in
  let spec = spec_of env "A * B" in
  let identity (d : Invert.decomposition) =
    d.op = Ast.Mul
    &&
    match d.parts with
    | [ P_hole h; P_conc _ ] -> Spec.equal h spec
    | _ -> false
  in
  Alcotest.(check bool) "built without a budget" true
    (List.exists identity (Invert.candidates lib spec));
  Alcotest.(check bool) "skipped under a budget" false
    (List.exists identity
       (Invert.candidates ~budget:(Spec.complexity spec) lib spec))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_decompositions_exact;
    Alcotest.test_case "elementwise inversions" `Quick
      test_elementwise_inversions;
    Alcotest.test_case "polynomial division" `Quick
      test_poly_division_inversion;
    Alcotest.test_case "sum term-splitting" `Quick test_sum_split;
    Alcotest.test_case "contraction linear solve" `Quick test_dot_inversions;
    Alcotest.test_case "quadratic-form assignment" `Quick
      test_quadratic_assignment;
    Alcotest.test_case "two-hole splits" `Quick test_two_hole_splits;
    Alcotest.test_case "structural inversions" `Quick test_transpose_sqrt_exp;
    Alcotest.test_case "power inversions" `Quick test_power_inversions;
    Alcotest.test_case "maximum stripping" `Quick test_maximum_strip;
    Alcotest.test_case "budget skips the identity sketch" `Quick
      test_budget_skips_identity;
    QCheck_alcotest.to_alcotest prop_hole_bound_admissible;
    Alcotest.test_case "var-set hole bound, fixed cases" `Quick
      test_hole_bound_fixed;
    Alcotest.test_case "contraction sketches recover their holes" `Quick
      test_contraction_sketches;
    QCheck_alcotest.to_alcotest prop_sub_hole_is_negation;
  ]
