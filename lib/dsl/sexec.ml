open Symbolic

module Expr_elt : Tensor.Elt.S with type t = Expr.t = struct
  type t = Expr.t

  let zero = Expr.zero
  let one = Expr.one

  let of_float f =
    match Q.of_float f with
    | Some q -> Expr.rat q
    | None ->
        (* Non-dyadic constant: approximate with a fixed denominator so
           both sides of any comparison use the same conversion. *)
        Expr.rat (Q.make (int_of_float (Float.round (f *. 1e9))) 1_000_000_000)

  let add a b = Expr.add [ a; b ]
  let sub = Expr.sub
  let mul a b = Expr.mul [ a; b ]
  let div = Expr.div
  let pow = Expr.pow
  let neg = Expr.neg
  let sqrt = Expr.sqrt
  let exp = Expr.exp
  let log = Expr.log
  let max = Expr.max2
  let less = Expr.less
  let where = Expr.where
  let is_zero = Expr.is_zero
  let equal = Expr.equal
  let pp = Expr.pp
end

module Stensor = Tensor.Nd.Make (Expr_elt)

let input_tensor name shape =
  Stensor.init shape (fun idx -> Expr.var (Sym.make name (Array.copy idx)))

let sym_env (env : Types.env) =
  List.map (fun (name, (vt : Types.vt)) -> (name, input_tensor name vt.shape)) env

include Eval.Make (Stensor) (struct
  let const = Expr_elt.of_float
end)

let exec = eval
let exec_env env t = eval_alist (sym_env env) t

let equivalent env a b =
  try
    let sa = exec_env env a and sb = exec_env env b in
    Stensor.equal sa sb
  with Eval.Eval_error _ | Invalid_argument _ | Symbolic.Q.Overflow -> false

let density t =
  let n = Stensor.numel t in
  if n = 0 then 0.
  else
    let nonzero =
      Array.fold_left
        (fun acc e -> if Expr.is_zero e then acc else acc + 1)
        0 (Stensor.to_array t)
    in
    float_of_int nonzero /. float_of_int n

let complexity t =
  let n = Stensor.numel t in
  if n = 0 then 0.
  else
    let total =
      Array.fold_left
        (fun acc e -> acc + Sym.Set.cardinal (Expr.vars e))
        0 (Stensor.to_array t)
    in
    let mean_vars = float_of_int total /. float_of_int n in
    mean_vars *. density t

let eval_concrete assignment t =
  Tensor.Ftensor.of_array (Stensor.shape t)
    (Array.map (Expr.eval assignment) (Stensor.to_array t))
