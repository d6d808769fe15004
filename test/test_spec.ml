(* Specification utilities: keys, collapse, complexity. *)
open Dsl
module St = Sexec.Stensor
module Expr = Symbolic.Expr
open Stenso

let env = [ ("A", Types.float_t [| 3; 3 |]); ("y", Types.float_t [| 3 |]) ]
let spec_of src = Sexec.exec_env env (Parser.expression src)

let test_key_equality () =
  (* key is canonical: syntactically different but equal programs share it *)
  let twice = spec_of "A + A" and doubled = spec_of "2 * A" in
  let k1 = Spec.key twice in
  let k2 = Spec.key doubled in
  Alcotest.(check string) "A+A and 2A share a key" k1 k2;
  (* ... and the structural identity: one hash, one table slot *)
  Alcotest.(check int) "A+A and 2A share a hash" (Spec.hash twice)
    (Spec.hash doubled);
  let tbl = Spec.Tbl.create 4 in
  Spec.Tbl.replace tbl twice "A + A";
  Spec.Tbl.replace tbl doubled "2 * A";
  Alcotest.(check int) "one table slot" 1 (Spec.Tbl.length tbl);
  Alcotest.(check (option string)) "2A replaced A+A" (Some "2 * A")
    (Spec.Tbl.find_opt tbl twice);
  let k3 = Spec.key (spec_of "A * 3") in
  Alcotest.(check bool) "3A differs" true (k2 <> k3);
  (* shape participates in the key *)
  let s1 = St.of_array [| 2 |] [| Expr.one; Expr.one |] in
  let s2 = St.of_array [| 2; 1 |] [| Expr.one; Expr.one |] in
  Alcotest.(check bool) "shape in key" true (Spec.key s1 <> Spec.key s2)

(* [Spec.key] is the persistent identity (outcome-store keys, rules-DB
   digests): these renderings are pinned byte for byte so a change to the
   printer cannot silently orphan existing stores. *)
let test_key_golden () =
  let env =
    [ ("A", Types.float_t [| 2; 2 |]); ("B", Types.float_t [| 2; 2 |]);
      ("s", Types.float_t [||]) ]
  in
  List.iter
    (fun (src, want) ->
      Alcotest.(check string) src want
        (Spec.key (Sexec.exec_env env (Parser.expression src))))
    [
      ( "np.exp(A) - A / 3",
        "(2,2)|((-1/3*A[0,0]) + exp(A[0,0]))|((-1/3*A[0,1]) + \
         exp(A[0,1]))|((-1/3*A[1,0]) + exp(A[1,0]))|((-1/3*A[1,1]) + \
         exp(A[1,1]))" );
      ( "A / np.sqrt(A + B)",
        "(2,2)|(A[0,0]*(A[0,0] + B[0,0])^-1/2)|(A[0,1]*(A[0,1] + \
         B[0,1])^-1/2)|(A[1,0]*(A[1,0] + B[1,0])^-1/2)|(A[1,1]*(A[1,1] + \
         B[1,1])^-1/2)" );
      ( "np.log(A + s) * (A + B)",
        "(2,2)|((A[0,0]*log((A[0,0] + s))) + (B[0,0]*log((A[0,0] + \
         s))))|((A[0,1]*log((A[0,1] + s))) + (B[0,1]*log((A[0,1] + \
         s))))|((A[1,0]*log((A[1,0] + s))) + (B[1,0]*log((A[1,0] + \
         s))))|((A[1,1]*log((A[1,1] + s))) + (B[1,1]*log((A[1,1] + s))))" );
      ( "np.maximum(A, B)",
        "(2,2)|max(A[0,0], B[0,0])|max(A[0,1], B[0,1])|max(A[1,0], \
         B[1,0])|max(A[1,1], B[1,1])" );
      ( "np.where(np.less(A, B), A, s)",
        "(2,2)|where(less(A[0,0], B[0,0]), A[0,0], s)|where(less(A[0,1], \
         B[0,1]), A[0,1], s)|where(less(A[1,0], B[1,0]), A[1,0], \
         s)|where(less(A[1,1], B[1,1]), A[1,1], s)" );
      ( "A @ B",
        "(2,2)|((A[0,0]*B[0,0]) + (A[0,1]*B[1,0]))|((A[0,0]*B[0,1]) + \
         (A[0,1]*B[1,1]))|((A[1,0]*B[0,0]) + (A[1,1]*B[1,0]))|((A[1,0]*B[0,1]) \
         + (A[1,1]*B[1,1]))" );
      ( "np.sum(A * A) * s",
        "()|((s*A[0,0]^2) + (s*A[0,1]^2) + (s*A[1,0]^2) + (s*A[1,1]^2))" );
    ]

(* The structural hash must separate every value a real stub library
   holds: for each distinct input environment of the paper's suite,
   distinct hashes, distinct rendered keys and library entries agree. *)
let test_hash_separates_libraries () =
  let envs =
    List.sort_uniq compare
      (List.map (fun (b : Suite.Benchmarks.t) -> b.env) Suite.Benchmarks.all)
  in
  List.iter
    (fun env ->
      let lib = Stub.enumerate ~model:Cost.Model.flops ~consts:[] env in
      let sems = List.map (fun (s : Stub.t) -> s.sem) (Stub.stubs lib) in
      let distinct f = List.length (List.sort_uniq compare (List.map f sems)) in
      let name =
        String.concat ","
          (List.map
             (fun (n, vt) -> Format.asprintf "%s:%a" n Types.pp_vt vt)
             env)
      in
      Alcotest.(check int) (name ^ ": keys") (Stub.size lib) (distinct Spec.key);
      Alcotest.(check int) (name ^ ": hashes") (Stub.size lib)
        (distinct Spec.hash))
    envs

let test_collapse () =
  let y = Sexec.input_tensor "y" [| 3 |] in
  (* broadcast y upward then collapse back down *)
  let up = St.init [| 4; 3 |] (fun idx -> St.get y [| idx.(1) |]) in
  let down = Spec.collapse up in
  Alcotest.(check bool) "collapse recovers the vector" true (St.equal down y);
  (* uniform tensor collapses to a scalar *)
  let fours = St.create [| 3; 3 |] (Expr.int 4) in
  let c = Spec.collapse fours in
  Alcotest.(check int) "uniform collapses to rank 0" 0
    (Tensor.Shape.rank (Spec.shape c));
  (* non-uniform is untouched *)
  let a = spec_of "A" in
  Alcotest.(check bool) "non-uniform unchanged" true
    (St.equal (Spec.collapse a) a);
  (* column uniformity collapses one axis only *)
  let col = St.init [| 3; 2 |] (fun idx -> St.get y [| idx.(0) |]) in
  let c = Spec.collapse col in
  Alcotest.(check bool) "column collapse keeps rank 2" true
    (Spec.shape c = [| 3; 1 |])

let test_uniform_const () =
  Alcotest.(check bool) "is_uniform on const tensor" true
    (Spec.is_uniform (St.create [| 2; 2 |] (Expr.int 7)) <> None);
  (match Spec.to_const (St.create [| 2; 2 |] (Expr.int 7)) with
  | Some q -> Alcotest.(check int) "const value" 7 (Symbolic.Q.num q)
  | None -> Alcotest.fail "expected constant");
  Alcotest.(check bool) "vars are not constant" true
    (Spec.to_const (spec_of "A") = None)

let test_complexity_ordering () =
  (* The simplification metric must order the paper's example:
     A.B.C-products are more complex than A.B-products. *)
  let env3 =
    [ ("A", Types.float_t [| 3 |]); ("B", Types.float_t [| 3 |]);
      ("C", Types.float_t [| 3 |]) ]
  in
  let s src = Sexec.exec_env env3 (Parser.expression src) in
  let c3 = Spec.complexity (s "A * B * C") in
  let c2 = Spec.complexity (s "A * B") in
  let c1 = Spec.complexity (s "A") in
  Alcotest.(check bool) "ABC > AB > A" true (c3 > c2 && c2 > c1);
  (* masking reduces density hence complexity *)
  let envm = [ ("A", Types.float_t [| 3; 3 |]) ] in
  let sm src = Sexec.exec_env envm (Parser.expression src) in
  Alcotest.(check bool) "triu less complex than full" true
    (Spec.complexity (sm "np.triu(np.multiply(A, A))")
     < Spec.complexity (sm "np.multiply(A, A)"))

let suite =
  [
    Alcotest.test_case "canonical keys" `Quick test_key_equality;
    Alcotest.test_case "collapse" `Quick test_collapse;
    Alcotest.test_case "uniform/const detection" `Quick test_uniform_const;
    Alcotest.test_case "complexity ordering" `Quick test_complexity_ordering;
    Alcotest.test_case "golden keys" `Quick test_key_golden;
    Alcotest.test_case "hash separates suite libraries" `Quick
      test_hash_separates_libraries;
  ]
