module Shape = Tensor.Shape

type dtype = Float | Bool
type vt = { dtype : dtype; shape : Shape.t }

exception Type_error of string

let err fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt
let scalar_f = { dtype = Float; shape = Shape.scalar }
let float_t shape = { dtype = Float; shape }
let bool_t shape = { dtype = Bool; shape }
let equal_vt a b = a.dtype = b.dtype && Shape.equal a.shape b.shape

let pp_vt ppf { dtype; shape } =
  Format.fprintf ppf "%s%a"
    (match dtype with Float -> "f" | Bool -> "b")
    Shape.pp shape

type env = (string * vt) list

let require_float name t =
  if t.dtype <> Float then err "%s: expected float tensor" name

let broadcast2 name a b =
  match Shape.broadcast a.shape b.shape with
  | Some s -> s
  | None ->
      err "%s: shapes %a and %a do not broadcast" name Shape.pp a.shape
        Shape.pp b.shape

let infer_op (op : Ast.op) (args : vt list) : vt =
  let name = Ast.op_name op in
  let nargs = List.length args in
  let arity = Ast.op_arity op in
  if arity >= 0 && nargs <> arity then
    err "%s: expected %d argument(s), got %d" name arity nargs;
  match (op, args) with
  | (Add | Sub | Mul | Div | Pow_op | Maximum), [ a; b ] ->
      require_float name a;
      require_float name b;
      float_t (broadcast2 name a b)
  | Less, [ a; b ] ->
      require_float name a;
      require_float name b;
      bool_t (broadcast2 name a b)
  | Where, [ c; a; b ] ->
      if c.dtype <> Bool then err "where: condition must be boolean";
      require_float name a;
      require_float name b;
      let s = broadcast2 name { a with shape = broadcast2 name a b } c in
      float_t s
  | (Sqrt | Exp | Log), [ a ] ->
      require_float name a;
      a
  | Dot, [ a; b ] ->
      require_float name a;
      require_float name b;
      let ra = Shape.rank a.shape and rb = Shape.rank b.shape in
      if ra = 0 || rb = 0 then err "dot: operands must have rank >= 1"
      else
        let axis_b = if rb = 1 then 0 else rb - 2 in
        if a.shape.(ra - 1) <> b.shape.(axis_b) then
          err "dot: contracted dimensions differ (%d vs %d)" a.shape.(ra - 1)
            b.shape.(axis_b)
        else
          float_t
            (Array.append
               (Shape.remove_axis a.shape (ra - 1))
               (Shape.remove_axis b.shape axis_b))
  | Tensordot (axes_a, axes_b), [ a; b ] ->
      require_float name a;
      require_float name b;
      if List.length axes_a <> List.length axes_b || axes_a = [] then
        err "tensordot: malformed axes";
      let norm shape ax =
        try Shape.normalize_axis shape ax
        with Invalid_argument m -> err "tensordot: %s" m
      in
      let axes_a = List.map (norm a.shape) axes_a in
      let axes_b = List.map (norm b.shape) axes_b in
      let distinct xs = List.length (List.sort_uniq compare xs) = List.length xs in
      if not (distinct axes_a && distinct axes_b) then
        err "tensordot: repeated axis";
      List.iter2
        (fun xa xb ->
          if a.shape.(xa) <> b.shape.(xb) then
            err "tensordot: contracted dimension mismatch")
        axes_a axes_b;
      let keep shape axes =
        List.filter
          (fun i -> not (List.mem i axes))
          (List.init (Shape.rank shape) Fun.id)
        |> List.map (fun i -> shape.(i))
      in
      float_t (Array.of_list (keep a.shape axes_a @ keep b.shape axes_b))
  | Transpose perm, [ a ] -> (
      let r = Shape.rank a.shape in
      match perm with
      | None -> { a with shape = Shape.transpose a.shape (Shape.reverse_perm r) }
      | Some p -> (
          try { a with shape = Shape.transpose a.shape p }
          with Invalid_argument m -> err "transpose: %s" m))
  | (Sum { axis; keepdims } | Max { axis; keepdims }), [ a ] -> (
      require_float name a;
      match axis with
      | None ->
          if keepdims then
            float_t (Array.make (Shape.rank a.shape) 1)
          else float_t Shape.scalar
      | Some ax ->
          let ax =
            try Shape.normalize_axis a.shape ax
            with Invalid_argument m -> err "%s: %s" name m
          in
          if keepdims then
            float_t (Array.mapi (fun i d -> if i = ax then 1 else d) a.shape)
          else float_t (Shape.remove_axis a.shape ax))
  | Stack axis, first :: rest ->
      List.iter
        (fun t ->
          if not (equal_vt t first) then err "stack: inhomogeneous arguments")
        rest;
      let r = Shape.rank first.shape in
      let axis = if axis < 0 then axis + r + 1 else axis in
      if axis < 0 || axis > r then err "stack: bad axis";
      { first with shape = Shape.insert_axis first.shape axis nargs }
  | (Triu | Tril), [ a ] ->
      if Shape.rank a.shape <> 2 then err "%s: expected a matrix" name;
      a
  | Diag, [ a ] ->
      require_float name a;
      if Shape.rank a.shape <> 2 then err "diag: expected a matrix";
      float_t [| min a.shape.(0) a.shape.(1) |]
  | Trace, [ a ] ->
      require_float name a;
      if Shape.rank a.shape <> 2 then err "trace: expected a matrix";
      float_t Shape.scalar
  | Reshape shape, [ a ] ->
      Shape.validate shape;
      if Shape.numel shape <> Shape.numel a.shape then
        err "reshape: element count mismatch (%a to %a)" Shape.pp a.shape
          Shape.pp shape;
      { a with shape }
  | Full shape, [ v ] ->
      Shape.validate shape;
      if Shape.rank v.shape <> 0 then err "full: fill value must be a scalar";
      { v with shape }
  | Stack _, [] -> err "stack: no arguments"
  | ( ( Add | Sub | Mul | Div | Pow_op | Maximum | Sqrt | Exp | Log | Dot
      | Tensordot _ | Transpose _ | Sum _ | Max _ | Where | Less | Triu
      | Tril | Diag | Trace | Reshape _ | Full _ ),
      _ ) ->
      err "%s: wrong number of arguments" name

let rec infer (env : env) (t : Ast.t) : vt =
  match t with
  | Input name -> (
      match List.assoc_opt name env with
      | Some vt -> vt
      | None -> err "unbound input %s" name)
  | Const _ -> scalar_f
  | App (op, args) -> infer_op op (List.map (infer env) args)
  | For_stack { var; iter; body } -> (
      match List.assoc_opt iter env with
      | None -> err "unbound comprehension source %s" iter
      | Some it ->
          if Shape.rank it.shape = 0 then
            err "cannot iterate over rank-0 input %s" iter;
          let slice = { it with shape = Shape.remove_axis it.shape 0 } in
          let body_t = infer ((var, slice) :: env) body in
          { body_t with
            shape = Shape.insert_axis body_t.shape 0 it.shape.(0)
          })

let check env t = try Ok (infer env t) with Type_error m -> Error m
let well_typed env t = match check env t with Ok _ -> true | Error _ -> false
