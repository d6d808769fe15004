module F = Tensor.Ftensor

include Eval.Make (F) (struct
  let const = Fun.id
end)

let random_inputs ?(lo = 0.5) ?(hi = 1.5) st (env : Types.env) =
  List.map
    (fun (name, (vt : Types.vt)) ->
      let v =
        match vt.dtype with
        | Types.Float -> F.randomize ~lo ~hi st vt.shape
        | Types.Bool ->
            F.init vt.shape (fun _ ->
                if Random.State.bool st then 1. else 0.)
      in
      (name, v))
    env
