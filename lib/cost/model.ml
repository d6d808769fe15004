module Shape = Tensor.Shape

type t = {
  name : string;
  op_cost : Dsl.Ast.op -> Dsl.Types.vt list -> float;
  iter_scale : int;
      (* scaling factor for data-dependent iteration counts (loop trip
         counts grow with the representative shapes the op costs are
         measured at) *)
}

let numel_out op args = float_of_int (Shape.numel (Dsl.Types.infer_op op args).shape)

let contracted_size (op : Dsl.Ast.op) (args : Dsl.Types.vt list) =
  match (op, args) with
  | Dsl.Ast.Dot, [ a; b ] ->
      let ra = Shape.rank a.shape and rb = Shape.rank b.shape in
      if ra = 0 || rb = 0 then 1 else if rb = 1 then b.shape.(0)
      else b.shape.(rb - 2)
  | Dsl.Ast.Tensordot (axes_a, _), [ a; _ ] ->
      List.fold_left
        (fun acc ax -> acc * a.shape.(Shape.normalize_axis a.shape ax))
        1 axes_a
  | _ -> 1

(* The [_out] variants take the output element count explicitly, for
   callers whose arguments do not type-check as given (the measured
   model's fallback proxy costs scaled shapes whose scaled attributes no
   longer infer). *)
let flop_count_out ~out (op : Dsl.Ast.op) (args : Dsl.Types.vt list) =
  let in_numel =
    List.fold_left (fun acc (a : Dsl.Types.vt) -> acc + Shape.numel a.shape) 0 args
  in
  match op with
  | Add | Sub | Mul | Div | Pow_op | Maximum | Less | Where | Sqrt | Exp | Log
    ->
      out
  | Dot | Tensordot _ ->
      (* multiply + add per contracted element *)
      2. *. out *. float_of_int (contracted_size op args)
  | Sum _ | Max _ | Trace -> float_of_int in_numel
  | Triu | Tril -> out (* one select per element, as XLA counts *)
  | Transpose _ | Reshape _ | Stack _ | Diag | Full _ -> 0.

let flop_count op args = flop_count_out ~out:(numel_out op args) op args

let bytes_moved_out ~out (op : Dsl.Ast.op) (args : Dsl.Types.vt list) =
  ignore op;
  let in_numel =
    List.fold_left (fun acc (a : Dsl.Types.vt) -> acc + Shape.numel a.shape) 0 args
  in
  8. *. (float_of_int in_numel +. out)

let bytes_moved op args = bytes_moved_out ~out:(numel_out op args) op args

let flops = { name = "flops"; op_cost = flop_count; iter_scale = 1 }

(* ------------------------------------------------------------------ *)
(* Analytic roofline model                                             *)
(* ------------------------------------------------------------------ *)

(* Per-element arithmetic weight: transcendental and power operations
   cost many machine operations each — the distinction the plain FLOPs
   model misses (power(A,2) vs A*A). *)
let op_weight (op : Dsl.Ast.op) =
  match op with
  | Pow_op -> 40.
  | Exp | Log -> 32.
  | Sqrt -> 8.
  | Add | Sub | Mul | Div | Maximum | Where | Less | Dot | Tensordot _
  | Transpose _ | Sum _ | Max _ | Stack _ | Triu | Tril | Diag | Trace
  | Reshape _ | Full _ ->
      1.

let roofline =
  let flops_per_sec = 4.0e10 and mem_bw = 6.0e10 and dispatch = 5e-7 in
  let op_cost op args =
    let weighted = op_weight op *. flop_count op args in
    let bytes =
      match op with
      | Dsl.Ast.Reshape _ -> 0. (* view *)
      | _ -> bytes_moved op args
    in
    dispatch +. Float.max (weighted /. flops_per_sec) (bytes /. mem_bw)
  in
  { name = "roofline"; op_cost; iter_scale = 12 }

(* ------------------------------------------------------------------ *)
(* Measured model                                                     *)
(* ------------------------------------------------------------------ *)

let scale_dim scale d = if d <= 1 then d else d * scale

let scale_vt scale (vt : Dsl.Types.vt) : Dsl.Types.vt =
  { vt with shape = Array.map (scale_dim scale) vt.shape }

(* Shape-carrying attributes must scale with their operands or the
   operation no longer applies (e.g. [reshape]). *)
let scale_op scale (op : Dsl.Ast.op) : Dsl.Ast.op =
  match op with
  | Reshape s -> Reshape (Array.map (scale_dim scale) s)
  | Full s -> Full (Array.map (scale_dim scale) s)
  | Add | Sub | Mul | Div | Pow_op | Maximum | Sqrt | Exp | Log | Dot
  | Tensordot _ | Transpose _ | Sum _ | Max _ | Stack _ | Where | Less
  | Triu | Tril | Diag | Trace ->
      op

let op_fingerprint (op : Dsl.Ast.op) (args : Dsl.Types.vt list) =
  Format.asprintf "%s%a|%a" (Dsl.Ast.op_name op)
    (fun ppf (op : Dsl.Ast.op) ->
      match op with
      | Tensordot (a, b) ->
          Format.fprintf ppf "[%s;%s]"
            (String.concat "," (List.map string_of_int a))
            (String.concat "," (List.map string_of_int b))
      | Transpose (Some p) ->
          Format.fprintf ppf "[%s]"
            (String.concat ","
               (Array.to_list (Array.map string_of_int p)))
      | Transpose None -> Format.fprintf ppf "[rev]"
      | Sum { axis; keepdims } | Max { axis; keepdims } ->
          Format.fprintf ppf "[%s%s]"
            (match axis with None -> "all" | Some a -> string_of_int a)
            (if keepdims then ";k" else "")
      | Stack ax -> Format.fprintf ppf "[%d]" ax
      | Reshape s | Full s ->
          Format.fprintf ppf "[%s]"
            (String.concat ","
               (Array.to_list (Array.map string_of_int s)))
      | Add | Sub | Mul | Div | Pow_op | Maximum | Sqrt | Exp | Log | Dot
      | Where | Less | Triu | Tril | Diag | Trace ->
          ())
    op
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
       Dsl.Types.pp_vt)
    args

(* Work proxy used to extrapolate timings measured at a reduced scale
   and to sanity-cap what we are willing to execute. *)
let work_units op args =
  flop_count op args +. (bytes_moved op args /. 8.)

(* One timing window: the minimum of per-batch means — the minimum is
   the standard robust statistic against scheduling noise. *)
let min_window ~min_time runner =
  let best = ref infinity in
  let total = ref 0. and reps = ref 1 in
  while !total < min_time do
    let batch = !reps in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to batch do
      runner ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    let mean = dt /. float_of_int batch in
    if mean < !best then best := mean;
    total := !total +. dt;
    reps := !reps * 2
  done;
  !best

(* Warm, then take the median of three windows (robust against a whole
   window landing on a descheduled slice); the sample standard
   deviation across the windows is kept alongside as the
   per-fingerprint noise estimate. *)
let time_windows ~min_time runner =
  runner ();
  let w = Array.init 3 (fun _ -> min_window ~min_time runner) in
  Array.sort Float.compare w;
  let mean = (w.(0) +. w.(1) +. w.(2)) /. 3. in
  let var =
    (Array.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0. w)
    /. 2.
  in
  (w.(1), sqrt var)

let time_op ~min_time ~exec_options op (args : Dsl.Types.vt list) =
  let st = Random.State.make [| 0x5e50; Hashtbl.hash (op_fingerprint op args) |] in
  let tensors =
    List.map
      (fun (vt : Dsl.Types.vt) ->
        match vt.dtype with
        | Dsl.Types.Float -> Tensor.Ftensor.randomize st vt.shape
        | Dsl.Types.Bool ->
            Tensor.Ftensor.init vt.shape (fun _ ->
                if Random.State.bool st then 1. else 0.))
      args
  in
  (* Compile the single-op program once per fingerprint; only the run
     loop is timed, so the table measures steady-state kernel time
     rather than planning overhead.  Pool worker domains are likewise
     spawned lazily by the warm-up run [time_windows] performs before
     its first window, so parallel kernels are timed in steady state —
     Domain spawn is never inside a window. *)
  let name i = "x" ^ string_of_int i in
  let env = List.mapi (fun i vt -> (name i, vt)) args in
  let prog =
    Dsl.Ast.App (op, List.mapi (fun i _ -> Dsl.Ast.Input (name i)) args)
  in
  let compiled = Texec.Engine.compile ~options:exec_options ~env prog in
  let bound = List.map2 (fun (n, _) t -> (n, t)) env tensors in
  let lookup n = List.assoc n bound in
  time_windows ~min_time (fun () -> ignore (Texec.Engine.run compiled lookup))

(* Profile at the largest scale (halving from [scale]) whose predicted
   work stays affordable, then extrapolate linearly in work units.  Big
   contractions are compute-bound, so linear extrapolation preserves
   their ranking while keeping the offline profiling phase fast. *)
let profile_budget = 3_000_000.

let profile_extrapolated ~min_time ~scale ~exec_options op args =
  let rec usable s =
    if s <= 1 then 1
    else
      let args' = List.map (scale_vt s) args in
      let op' = scale_op s op in
      if work_units op' args' <= profile_budget then s else usable (s / 2)
  in
  let s = usable scale in
  let args_s = List.map (scale_vt s) args in
  let op_s = scale_op s op in
  let t, sd = time_op ~min_time ~exec_options op_s args_s in
  if s = scale then (t, sd)
  else
    let full =
      work_units (scale_op scale op) (List.map (scale_vt scale) args)
    in
    let f = full /. work_units op_s args_s in
    (t *. f, sd *. f)

(* Persistent lookup-table support: the paper amortizes the one-time
   profiling phase by caching it (Section VII-E); entries are
   "fingerprint<TAB>seconds<TAB>stddev" lines, keyed by the VM's
   options ("vm[...]:...").  Older two-column files load with a zero
   noise estimate. *)
let load_cache table file =
  match open_in file with
  | exception Sys_error _ -> ()
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          try
            while true do
              let line = input_line ic in
              match String.split_on_char '\t' line with
              | key :: secs :: rest -> (
                  match float_of_string_opt secs with
                  | Some v ->
                      let sd =
                        match rest with
                        | sd :: _ ->
                            Option.value ~default:0. (float_of_string_opt sd)
                        | [] -> 0.
                      in
                      Hashtbl.replace table key (v, sd)
                  | None -> ())
              | _ -> ()
            done
          with End_of_file -> ())

(* The whole table is rewritten through the store's atomic
   write-rename path: a concurrent reader never observes a torn file,
   and two processes profiling against the same cache file converge on
   the union of their tables (each write reload-merges the file first,
   and timings for a given fingerprint agree up to noise). *)
let save_cache file table =
  let merged = Hashtbl.copy table in
  load_cache merged file;
  Hashtbl.iter (Hashtbl.replace merged) table;
  let lines =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) merged []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (k, (v, sd)) -> Printf.sprintf "%s\t%.17g\t%.17g\n" k v sd)
  in
  match Pstore.write_atomic file (String.concat "" lines) with
  | () -> ()
  | exception (Sys_error _ | Unix.Unix_error _) -> ()

let measured ?(tel = Obs.Telemetry.null)
    ?(exec_options = Texec.Engine.Options.default) ?(scale = 12)
    ?(min_time = 1e-3) ?(overhead = 5e-7) ?cache_file () =
  let table : (string, float * float) Hashtbl.t = Hashtbl.create 256 in
  (* The profiling table is shared by every domain of the parallel
     synthesis engine; the lock also serializes the timing runs
     themselves, so concurrent profiling cannot contend for the CPU and
     skew each other's measurements, and each fingerprint is measured
     exactly once. *)
  let lock = Mutex.create () in
  Option.iter (load_cache table) cache_file;
  let cache_hits = Obs.Telemetry.counter tel "cost.cache_hits" in
  let cache_misses = Obs.Telemetry.counter tel "cost.cache_misses" in
  let profile_secs = Obs.Telemetry.acc tel "cost.profile_seconds" in
  let key_prefix =
    "vm[" ^ Texec.Engine.Options.fingerprint exec_options ^ "]:"
  in
  let op_cost op args =
    (* Type-check at the original shapes, profile at representative
       (scaled) shapes.  [overhead] models the eager framework's per-op
       dispatch cost, which the sub-microsecond synthesis shapes would
       otherwise hide. *)
    ignore (Dsl.Types.infer_op op args);
    let args' = List.map (scale_vt scale) args in
    let op' = scale_op scale op in
    let key = key_prefix ^ op_fingerprint op' args' in
    let measured_time, _stddev =
      Mutex.protect lock (fun () ->
          match Hashtbl.find_opt table key with
          | Some c ->
              Obs.Telemetry.Counter.incr cache_hits;
              c
          | None ->
              Obs.Telemetry.Counter.incr cache_misses;
              let t0 = Unix.gettimeofday () in
              let c, sd =
                match
                  profile_extrapolated ~min_time ~scale ~exec_options op args
                with
                | r -> r
                | exception (Dsl.Types.Type_error _ | Invalid_argument _) ->
                    (* Scaling broke an attribute constraint; fall back
                       to a FLOPs+traffic proxy at the same scaled
                       shapes the table key describes (the scaled
                       attributes no longer infer, so the output size
                       is scaled separately from the unscaled
                       inference). *)
                    let out' =
                      float_of_int
                        (Shape.numel
                           (scale_vt scale (Dsl.Types.infer_op op args)).shape)
                    in
                    ( (flop_count_out ~out:out' op' args' *. 1e-9)
                      +. (bytes_moved_out ~out:out' op' args' *. 1e-10),
                      0. )
              in
              Obs.Telemetry.Acc.add profile_secs
                (Unix.gettimeofday () -. t0);
              if Obs.Telemetry.enabled tel then
                Obs.Telemetry.event tel "cost.profile"
                  [
                    ("key", Obs.Telemetry.Str key);
                    ("seconds", Obs.Telemetry.Float c);
                    ("stddev", Obs.Telemetry.Float sd);
                  ];
              Hashtbl.replace table key (c, sd);
              Option.iter (fun f -> save_cache f table) cache_file;
              (c, sd))
    in
    measured_time +. overhead
  in
  { name = "measured"; op_cost; iter_scale = scale }

let program_cost model (env : Dsl.Types.env) (prog : Dsl.Ast.t) =
  let rec go env (t : Dsl.Ast.t) : Dsl.Types.vt * float =
    match t with
    | Input name -> (
        match List.assoc_opt name env with
        | Some vt -> (vt, 0.)
        | None -> raise (Dsl.Types.Type_error ("unbound input " ^ name)))
    | Const _ -> (Dsl.Types.scalar_f, 0.)
    | App (op, args) ->
        let arg_results = List.map (go env) args in
        let arg_ts = List.map fst arg_results in
        let arg_cost = List.fold_left (fun acc (_, c) -> acc +. c) 0. arg_results in
        (Dsl.Types.infer_op op arg_ts, arg_cost +. model.op_cost op arg_ts)
    | For_stack { var; iter; body } -> (
        match List.assoc_opt iter env with
        | None -> raise (Dsl.Types.Type_error ("unbound input " ^ iter))
        | Some it ->
            let n = it.shape.(0) in
            let slice : Dsl.Types.vt =
              { it with shape = Shape.remove_axis it.shape 0 }
            in
            let body_t, body_cost = go ((var, slice) :: env) body in
            let out : Dsl.Types.vt =
              { body_t with shape = Shape.insert_axis body_t.shape 0 n }
            in
            (* Each iteration re-evaluates the body; the stack itself is
               charged as one stack op over the slices. *)
            let stack_cost =
              model.op_cost (Dsl.Ast.Stack 0) (List.init n (fun _ -> body_t))
            in
            let trips = n * if n > 1 then model.iter_scale else 1 in
            (out, (float_of_int trips *. body_cost) +. stack_cost))
  in
  snd (go env prog)
