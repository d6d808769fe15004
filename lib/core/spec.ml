module St = Dsl.Sexec.Stensor
module Expr = Symbolic.Expr
module Shape = Tensor.Shape

type t = St.t

let shape = St.shape
let equal = St.equal

let build_key t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Shape.to_string (St.shape t));
  Array.iter
    (fun e ->
      Buffer.add_char buf '|';
      Expr.render buf e)
    (St.to_array t);
  Buffer.contents buf

(* Key-build accounting: each [key] render counts as one build; [hash],
   which runs on every memo probe, stays uncounted.  One process-wide
   cell keeps the historical totals, and an {e ambient} per-run cell
   (installed by [with_counters] in every domain working on a given
   search) gives each telemetry sink its own attribution — two
   concurrent traced runs no longer count each other's key builds. *)
type key_counters = { builds : int Atomic.t; build_ns : int Atomic.t }

let fresh_counters () = { builds = Atomic.make 0; build_ns = Atomic.make 0 }
let global_counters = fresh_counters ()

let counters_stats c =
  (Atomic.get c.builds, float_of_int (Atomic.get c.build_ns) *. 1e-9)

let key_stats () =
  let builds, secs = counters_stats global_counters in
  (builds, 0, secs)

let ambient_counters : key_counters option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let with_counters c f =
  let prev = Domain.DLS.get ambient_counters in
  Domain.DLS.set ambient_counters (Some c);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set ambient_counters prev)
    f

let note_build c ns =
  Atomic.incr c.builds;
  ignore (Atomic.fetch_and_add c.build_ns ns)

let count_build f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
  note_build global_counters ns;
  Option.iter (fun c -> note_build c ns) (Domain.DLS.get ambient_counters);
  r

let key t = count_build (fun () -> build_key t)

let hash t =
  Array.fold_left
    (fun h e -> Expr.hash_combine h (Expr.hash e))
    (Array.fold_left Expr.hash_combine (St.rank t) (St.shape t))
    (St.unsafe_data t)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let complexity = Dsl.Sexec.complexity

let axis_uniform t axis =
  (* Are all slices along [axis] identical? *)
  let s = St.shape t in
  let n = s.(axis) in
  n > 1
  &&
  let ok = ref true in
  Shape.iter_indices s (fun idx ->
      if !ok && idx.(axis) > 0 then begin
        let first = Array.copy idx in
        first.(axis) <- 0;
        if not (Expr.equal (St.get t idx) (St.get t first)) then ok := false
      end);
  !ok

let shrink_axis t axis =
  let s = St.shape t in
  let s' = Array.copy s in
  s'.(axis) <- 1;
  St.init s' (fun idx -> St.get t idx)

let collapse t =
  let t = ref t in
  let changed = ref true in
  while !changed do
    changed := false;
    let s = St.shape !t in
    for axis = 0 to Shape.rank s - 1 do
      if axis_uniform !t axis then begin
        t := shrink_axis !t axis;
        changed := true
      end
    done
  done;
  (* Drop leading unit axes (broadcast-neutral). *)
  let s = St.shape !t in
  let lead = ref 0 in
  while !lead < Shape.rank s && s.(!lead) = 1 do
    incr lead
  done;
  if !lead = 0 then !t
  else
    St.reshape !t (Array.sub s !lead (Shape.rank s - !lead))

let is_uniform t =
  if St.numel t = 0 then None
  else
    let arr = St.to_array t in
    let first = arr.(0) in
    if Array.for_all (Expr.equal first) arr then Some first else None

let to_const t =
  match is_uniform t with Some e -> Expr.to_const e | None -> None

let scalar e = St.scalar e
let pp = St.pp
