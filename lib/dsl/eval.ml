exception Eval_error of string

module Make
    (T : Tensor.Nd.S)
    (C : sig
      val const : float -> T.elt
    end) =
struct
  let rec eval env (t : Ast.t) : T.t =
    match t with
    | Input name -> env name
    | Const f -> T.scalar (C.const f)
    | App (op, args) -> apply_op op (List.map (eval env) args)
    | For_stack { var; iter; body } ->
        let source = env iter in
        let n = (T.shape source).(0) in
        let slices =
          List.init n (fun i ->
              let slice = T.slice0 source i in
              let env' name = if name = var then slice else env name in
              eval env' body)
        in
        T.stack slices ~axis:0

  and apply_op (op : Ast.op) (args : T.t list) : T.t =
    match (op, args) with
    | Add, [ a; b ] -> T.add a b
    | Sub, [ a; b ] -> T.sub a b
    | Mul, [ a; b ] -> T.mul a b
    | Div, [ a; b ] -> T.div a b
    | Pow_op, [ a; b ] -> T.pow a b
    | Maximum, [ a; b ] -> T.maximum a b
    | Sqrt, [ a ] -> T.sqrt a
    | Exp, [ a ] -> T.exp a
    | Log, [ a ] -> T.log a
    | Dot, [ a; b ] -> T.dot a b
    | Tensordot (axes_a, axes_b), [ a; b ] -> T.tensordot a b ~axes_a ~axes_b
    | Transpose perm, [ a ] -> T.transpose ?perm a
    | Sum { axis; keepdims }, [ a ] -> T.sum ?axis ~keepdims a
    | Max { axis; keepdims }, [ a ] -> T.max_reduce ?axis ~keepdims a
    | Stack axis, ts -> T.stack ts ~axis
    | Where, [ c; a; b ] -> T.where c a b
    | Less, [ a; b ] -> T.less a b
    | Triu, [ a ] -> T.triu a
    | Tril, [ a ] -> T.tril a
    | Diag, [ a ] -> T.diag a
    | Trace, [ a ] -> T.trace a
    | Reshape shape, [ a ] -> T.reshape a shape
    | Full shape, [ v ] -> T.full shape (T.to_scalar v)
    | ( ( Add | Sub | Mul | Div | Pow_op | Maximum | Sqrt | Exp | Log | Dot
        | Tensordot _ | Transpose _ | Sum _ | Max _ | Where | Less | Triu
        | Tril | Diag | Trace | Reshape _ | Full _ ),
        _ ) ->
        raise (Eval_error (Ast.op_name op ^ ": wrong number of arguments"))

  let eval_alist alist t =
    eval
      (fun name ->
        match List.assoc_opt name alist with
        | Some v -> v
        | None -> raise (Eval_error ("unbound input " ^ name)))
      t
end
