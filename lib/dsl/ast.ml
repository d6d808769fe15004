type reduce = { axis : int option; keepdims : bool }

type op =
  | Add
  | Sub
  | Mul
  | Div
  | Pow_op
  | Maximum
  | Sqrt
  | Exp
  | Log
  | Dot
  | Tensordot of int list * int list
  | Transpose of int array option
  | Sum of reduce
  | Max of reduce
  | Stack of int
  | Where
  | Less
  | Triu
  | Tril
  | Diag
  | Trace
  | Reshape of int array
  | Full of int array

type t =
  | Input of string
  | Const of float
  | App of op * t list
  | For_stack of { var : string; iter : string; body : t }

let reduce ?(keepdims = false) axis = { axis; keepdims }
let sum_op ?keepdims axis = Sum (reduce ?keepdims axis)
let max_op ?keepdims axis = Max (reduce ?keepdims axis)

let op_name = function
  | Add -> "add"
  | Sub -> "subtract"
  | Mul -> "multiply"
  | Div -> "divide"
  | Pow_op -> "power"
  | Maximum -> "maximum"
  | Sqrt -> "sqrt"
  | Exp -> "exp"
  | Log -> "log"
  | Dot -> "dot"
  | Tensordot _ -> "tensordot"
  | Transpose _ -> "transpose"
  | Sum _ -> "sum"
  | Max _ -> "max"
  | Stack _ -> "stack"
  | Where -> "where"
  | Less -> "less"
  | Triu -> "triu"
  | Tril -> "tril"
  | Diag -> "diag"
  | Trace -> "trace"
  | Reshape _ -> "reshape"
  | Full _ -> "full"

let op_arity = function
  | Add | Sub | Mul | Div | Pow_op | Maximum | Dot | Tensordot _ | Less -> 2
  | Sqrt | Exp | Log | Transpose _ | Sum _ | Max _ | Triu | Tril | Diag
  | Trace | Reshape _ | Full _ ->
      1
  | Where -> 3
  | Stack _ -> -1 (* variadic *)

let compare = (Stdlib.compare : t -> t -> int)
let equal a b = compare a b = 0

let children = function
  | Input _ | Const _ -> []
  | App (_, args) -> args
  | For_stack { body; _ } -> [ body ]

let map_children f = function
  | (Input _ | Const _) as t -> t
  | App (op, args) -> App (op, List.map f args)
  | For_stack fs -> For_stack { fs with body = f fs.body }

let rec size t =
  match t with
  | Input _ | Const _ -> 1
  | _ -> List.fold_left (fun acc c -> acc + size c) 1 (children t)

module Sset = Set.Make (String)

let inputs t =
  let rec go bound t acc =
    match t with
    | Input name -> if Sset.mem name bound then acc else Sset.add name acc
    | Const _ -> acc
    | App (_, args) -> List.fold_left (fun acc a -> go bound a acc) acc args
    | For_stack { var; iter; body } ->
        let acc = if Sset.mem iter bound then acc else Sset.add iter acc in
        go (Sset.add var bound) body acc
  in
  Sset.elements (go Sset.empty t Sset.empty)

let subst_inputs bindings t =
  let rec go bindings t =
    match t with
    | Input n -> (
        match List.assoc_opt n bindings with Some r -> r | None -> t)
    | Const _ -> t
    | App (op, args) -> App (op, List.map (go bindings) args)
    | For_stack fs -> (
        match List.filter (fun (n, _) -> n <> fs.var) bindings with
        | [] -> t (* everything shadowed *)
        | live -> For_stack { fs with body = go live fs.body })
  in
  if bindings = [] then t else go bindings t

let pp_int_list ppf xs =
  Format.fprintf ppf "[%s]" (String.concat ", " (List.map string_of_int xs))

let pp_int_array ppf xs = pp_int_list ppf (Array.to_list xs)

let pp_axis ppf = function
  | None -> ()
  | Some a -> Format.fprintf ppf ", axis=%d" a

let pp_reduce ppf { axis; keepdims } =
  pp_axis ppf axis;
  if keepdims then Format.fprintf ppf ", keepdims=True"

(* The shortest of the integer form, [%g], [%.15g], [%.16g] and [%.17g]
   that reads back to the same bits, so the canonical rendering keeps
   every finite constant exactly ([-0.] included) and stays byte-identical
   wherever the older integer-or-[%g] rendering was already exact. *)
let const_literal f =
  let bits = Int64.bits_of_float in
  let exact s = Int64.equal (bits (float_of_string s)) (bits f) in
  let forms : (float -> string, unit, string) format list =
    if Float.is_integer f && Float.abs f < 1e9 then
      [ "%.0f"; "%g"; "%.15g"; "%.16g"; "%.17g" ]
    else [ "%g"; "%.15g"; "%.16g"; "%.17g" ]
  in
  List.to_seq forms
  |> Seq.map (fun fmt -> Printf.sprintf fmt f)
  |> Seq.find exact
  |> Option.value ~default:(Printf.sprintf "%g" f)

let rec pp ppf t =
  match t with
  | Input name -> Format.pp_print_string ppf name
  | Const f -> Format.pp_print_string ppf (const_literal f)
  | App (op, args) -> pp_app ppf op args
  | For_stack { var; iter; body } ->
      Format.fprintf ppf "np.stack([%a for %s in %s])" pp body var iter

and pp_app ppf op args =
  let call name extras =
    Format.fprintf ppf "np.%s(%a%s)" name
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         pp)
      args extras
  in
  match (op, args) with
  | Sum r, [ _ ] -> call "sum" (Format.asprintf "%a" pp_reduce r)
  | Max r, [ _ ] -> call "max" (Format.asprintf "%a" pp_reduce r)
  | Stack axis, _ ->
      Format.fprintf ppf "np.stack([%a], axis=%d)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           pp)
        args axis
  | Transpose None, [ x ] -> Format.fprintf ppf "np.transpose(%a)" pp x
  | Transpose (Some perm), [ x ] ->
      Format.fprintf ppf "np.transpose(%a, %a)" pp x pp_int_array perm
  | Tensordot (xa, xb), [ a; b ] ->
      Format.fprintf ppf "np.tensordot(%a, %a, (%a, %a))" pp a pp b
        pp_int_list xa pp_int_list xb
  | Reshape shape, [ x ] ->
      Format.fprintf ppf "np.reshape(%a, %a)" pp x pp_int_array shape
  | Full shape, [ v ] ->
      Format.fprintf ppf "np.full(%a, %a)" pp_int_array shape pp v
  | _, _ -> call (op_name op) ""

let to_string t = Format.asprintf "%a" pp t
