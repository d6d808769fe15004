(* Correctness against an independent reference: the tree-walking
   interpreter [Dsl.Interp], on inputs drawn from the run's seed.  The
   code under test (search, store, VM) never computes the reference. *)

let close a b =
  Tensor.Ftensor.shape a = Tensor.Ftensor.shape b
  && Tensor.Ftensor.allclose ~rtol:1e-6 ~atol:1e-9 a b

let finite t = Tensor.Ftensor.fold (fun ok x -> ok && Float.is_finite x) true t

(* [optimized] computes what [original] computes: equal results on
   [trials] seed-drawn inputs on which the original is finite (draws
   outside the positive-value domain the rewrites assume are redrawn).
   [Error] explains the first disagreement. *)
let equivalent ?(trials = 3) st ~env ~original ~optimized =
  let rec go ok draws =
    if ok >= trials then Ok ()
    else if draws >= 64 then
      if ok > 0 then Ok () else Error "no in-domain input draw"
    else
      let inputs = Dsl.Interp.random_inputs st env in
      match Dsl.Interp.eval_alist inputs original with
      | exception e -> Error ("reference raised " ^ Printexc.to_string e)
      | expected when not (finite expected) -> go ok (draws + 1)
      | expected -> (
          match Dsl.Interp.eval_alist inputs optimized with
          | exception e -> Error ("optimized raised " ^ Printexc.to_string e)
          | got when close got expected -> go (ok + 1) (draws + 1)
          | _ -> Error "optimized program disagrees with the original")
  in
  go 0 0

(* A served or stored program text, checked against the original. *)
let equivalent_text st ~env ~original text =
  match Dsl.Parser.program text with
  | exception e -> Error ("unparseable result: " ^ Printexc.to_string e)
  | env', optimized when env' = env -> equivalent st ~env ~original ~optimized
  | _ -> Error "result has a different input signature"
