exception Eval_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Eval_error s)) fmt

module Make (D : Tensor.Elt.S) = struct
  open Loop_ast

  (* Mutable interpreter state: scalars are single cells, arrays flat
     row-major buffers.  Loop indices live in a separate integer
     environment — loop bounds are constants, so even the symbolic
     instantiation executes every iteration concretely. *)
  type value = Scalar of D.t ref | Arr of { dims : int list; data : D.t array }

  let numel dims = List.fold_left ( * ) 1 dims

  (* Index expressions are integer arithmetic over loop variables. *)
  let rec eval_index loops = function
    | Num f when Float.is_integer f -> int_of_float f
    | Num f -> fail "array index %g is not an integer" f
    | Var v -> (
        match List.assoc_opt v loops with
        | Some i -> i
        | None -> fail "index variable '%s' is not a loop variable" v)
    | Neg e -> -eval_index loops e
    | Binop (Add, a, b) -> eval_index loops a + eval_index loops b
    | Binop (Sub, a, b) -> eval_index loops a - eval_index loops b
    | Binop (Mul, a, b) -> eval_index loops a * eval_index loops b
    | Binop (Div, _, _) -> fail "division is not allowed in array indices"
    | Load _ | Intrinsic _ -> fail "array index must be an affine expression"

  let offset name dims idx =
    if List.length idx <> List.length dims then
      fail "'%s' has %d dimension%s but is indexed with %d subscript%s" name
        (List.length dims)
        (if List.length dims = 1 then "" else "s")
        (List.length idx)
        (if List.length idx = 1 then "" else "s");
    List.fold_left2
      (fun acc d i ->
        if i < 0 || i >= d then
          fail "index %d out of bounds for dimension %d of '%s'" i d name;
        (acc * d) + i)
      0 dims idx

  let run (k : kernel) (inputs : (string * D.t array) list) : D.t array =
    let vars : (string, value) Hashtbl.t = Hashtbl.create 16 in
    let writable : (string, unit) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun p ->
        let data =
          match p.io with
          | In -> (
              match List.assoc_opt p.pname inputs with
              | Some a ->
                  if Array.length a <> numel p.dims then
                    fail "input '%s' has %d elements, expected %d" p.pname
                      (Array.length a) (numel p.dims)
                  else Array.copy a
              | None -> fail "missing input '%s'" p.pname)
          | Out ->
              Hashtbl.replace writable p.pname ();
              Array.make (numel p.dims) D.zero
        in
        let v =
          if p.dims = [] then Scalar (ref data.(0))
          else Arr { dims = p.dims; data }
        in
        Hashtbl.replace vars p.pname v)
      k.params;
    let rec eval loops = function
      | Num f -> D.of_float f
      | Var v -> (
          match List.assoc_opt v loops with
          | Some i -> D.of_float (float_of_int i)
          | None -> (
              match Hashtbl.find_opt vars v with
              | Some (Scalar r) -> !r
              | Some (Arr _) -> fail "'%s' is an array, not a scalar" v
              | None -> fail "unbound variable '%s'" v))
      | Load (name, idx) -> (
          match Hashtbl.find_opt vars name with
          | Some (Arr { dims; data }) ->
              data.(offset name dims (List.map (eval_index loops) idx))
          | Some (Scalar _) -> fail "'%s' is a scalar, not an array" name
          | None -> fail "unbound array '%s'" name)
      | Neg e -> D.neg (eval loops e)
      | Binop (op, a, b) ->
          let f =
            match op with
            | Add -> D.add
            | Sub -> D.sub
            | Mul -> D.mul
            | Div -> D.div
          in
          f (eval loops a) (eval loops b)
      | Intrinsic (f, args) -> (
          match (f, List.map (eval loops) args) with
          | Sqrt, [ a ] -> D.sqrt a
          | Exp, [ a ] -> D.exp a
          | Log, [ a ] -> D.log a
          | Fmax, [ a; b ] -> D.max a b
          | f, _ -> fail "%s: wrong arity" (intrinsic_name f))
    in
    let assign loops { base; indices } v =
      match Hashtbl.find_opt vars base with
      | Some _ when not (Hashtbl.mem writable base) ->
          fail "'%s' is an input and cannot be assigned" base
      | Some (Scalar r) ->
          if indices <> [] then fail "'%s' is a scalar, not an array" base;
          r := v
      | Some (Arr { dims; data }) ->
          if indices = [] then
            fail "'%s' is an array and needs subscripts" base
          else
            data.(offset base dims (List.map (eval_index loops) indices)) <- v
      | None -> fail "unbound variable '%s'" base
    in
    (* Locals are block-scoped: a [float m = ...] inside a loop body is
       a fresh binding every iteration, removed when the block ends. *)
    let rec stmt loops = function
      | Loop_ast.Decl { name; init } ->
          if Hashtbl.mem vars name || List.mem_assoc name loops then
            fail "redeclaration of '%s'" name;
          let v = eval loops init in
          Hashtbl.replace vars name (Scalar (ref v));
          Hashtbl.replace writable name ()
      | Assign (lhs, e) -> assign loops lhs (eval loops e)
      | For { var; lo; hi; body } ->
          if Hashtbl.mem vars var then
            fail "loop variable '%s' shadows a declaration" var;
          for i = lo to hi - 1 do
            block ((var, i) :: loops) body
          done
    and block loops stmts =
      List.iter (stmt loops) stmts;
      List.iter
        (function
          | Loop_ast.Decl { name; _ } ->
              Hashtbl.remove vars name;
              Hashtbl.remove writable name
          | _ -> ())
        stmts
    in
    List.iter (stmt []) k.body;
    let out = out_param k in
    match Hashtbl.find vars out.pname with
    | Scalar r -> [| !r |]
    | Arr { data; _ } -> data
end

(* ------------------------------------------------------------------ *)
(* Concrete instantiation                                             *)
(* ------------------------------------------------------------------ *)

module F = Make (Tensor.Elt.Float)

let run_tensors (k : Loop_ast.kernel)
    (inputs : (string * Tensor.Ftensor.t) list) : Tensor.Ftensor.t =
  let flat =
    List.map (fun (n, t) -> (n, Tensor.Ftensor.to_array t)) inputs
  in
  let out = F.run k flat in
  let dims = Array.of_list (Loop_ast.out_param k).dims in
  Tensor.Ftensor.of_array dims out
