(* Masking extension: where/less/triu/tril through the whole pipeline
   (the grammar's [B]-typed productions and the density-driven part of
   the simplification metric). *)
open Dsl
open Stenso

let config = Config.(default |> with_extended_ops true)
let stub_config = (Config.search_config config).stub_config

(* The eager solver: every candidate built, kept when it recombines. *)
let decompositions lib spec =
  List.filter (Invert.recombines spec) (Invert.candidates lib spec)

let model = Cost.Model.flops

(* masked_square (pow -> mul) is invisible to the FLOPs estimator, so
   end-to-end outcomes use the measured model at small scale *)
let measured = lazy (Cost.Model.measured ~scale:6 ~min_time:5e-4 ())

let outcomes =
  lazy
    (List.map
       (fun (b : Suite.Benchmarks.t) ->
         ( b,
           Superopt.optimize ~config ~model:(Lazy.force measured)
             ~env:b.env b.program ))
       Suite.Benchmarks.masking)

let test_where_max_normalizes () =
  (* where(x < y, y, x) = maximum(x, y) holds already at the symbolic
     level, making the rewrite a pure library match *)
  let env = [ ("A", Types.float_t [| 2; 2 |]); ("B", Types.float_t [| 2; 2 |]) ] in
  Alcotest.(check bool) "normalization identifies the max pattern" true
    (Sexec.equivalent env
       (Parser.expression "np.where(np.less(A, B), B, A)")
       (Parser.expression "np.maximum(A, B)"))

let test_all_masking_improve () =
  List.iter
    (fun ((b : Suite.Benchmarks.t), (o : Superopt.outcome)) ->
      if not o.improved then
        Alcotest.failf "%s: masking benchmark did not improve" b.name;
      if not o.verified then Alcotest.failf "%s: not verified" b.name;
      if not (Sexec.equivalent b.env o.optimized b.expected_opt) then
        Alcotest.failf "%s: found %s, expected something equivalent to %s"
          b.name (Ast.to_string o.optimized) (Ast.to_string b.expected_opt))
    (Lazy.force outcomes)

let test_masked_completion () =
  (* the hole-less masked decomposition: triu of a dense library value *)
  let env = [ ("A", Types.float_t [| 3; 3 |]); ("B", Types.float_t [| 3; 3 |]) ] in
  let lib =
    Stub.enumerate ~config:stub_config ~model ~consts:[ 1. ] env
  in
  let spec = Sexec.exec_env env (Parser.expression "np.triu(A + B)") in
  let ds = decompositions lib spec in
  Alcotest.(check bool) "triu completion over add(A,B)" true
    (List.exists
       (fun (d : Invert.decomposition) ->
         d.op = Ast.Triu
         &&
         match d.parts with
         | [ Invert.P_conc c ] ->
             Sexec.equivalent env c.Stub.prog (Parser.expression "A + B")
         | _ -> false)
       ds)

let test_where_split () =
  (* where(mask, ??, ??) decomposition produces density-reduced holes *)
  let env =
    [ ("m", Types.bool_t [| 2; 2 |]); ("A", Types.float_t [| 2; 2 |]);
      ("B", Types.float_t [| 2; 2 |]) ]
  in
  let lib =
    Stub.enumerate ~config:stub_config ~model ~consts:[ 1. ] env
  in
  let spec = Sexec.exec_env env (Parser.expression "np.where(m, A, B)") in
  let ds = decompositions lib spec in
  Alcotest.(check bool) "where split offered" true
    (List.exists
       (fun (d : Invert.decomposition) ->
         d.op = Ast.Where && List.length (Invert.hole_specs d) = 2)
       ds)

let test_extended_library_has_masks () =
  let env = [ ("A", Types.float_t [| 3; 3 |]) ] in
  let lib =
    Stub.enumerate ~config:stub_config ~model ~consts:[ 1. ] env
  in
  match
    Stub.lookup_exact lib (Sexec.exec_env env (Parser.expression "np.triu(A)"))
  with
  | Some _ -> ()
  | None -> Alcotest.fail "extended library must contain triangular masks"

let suite =
  [
    Alcotest.test_case "where/less/max normalization" `Quick
      test_where_max_normalizes;
    Alcotest.test_case "all masking benchmarks improve" `Slow
      test_all_masking_improve;
    Alcotest.test_case "masked completion" `Quick test_masked_completion;
    Alcotest.test_case "where split" `Quick test_where_split;
    Alcotest.test_case "extended library" `Quick test_extended_library_has_masks;
  ]
