module Ast = Dsl.Ast
module Types = Dsl.Types
module Sexec = Dsl.Sexec
module Shape = Tensor.Shape
module Expr = Symbolic.Expr
module Sym = Symbolic.Sym

type t = {
  prog : Ast.t;
  vt : Types.vt;
  sem : Spec.t;
  cost : float;
  depth : int;
}

type config = {
  depth : int;
  max_stubs : int;
  extended_ops : bool;
  full_binary : bool;
  deadline : float option;
  jobs : int;
}

let default_config =
  {
    depth = 2;
    max_stubs = 20_000;
    extended_ops = false;
    full_binary = false;
    deadline = None;
    jobs = 1;
  }

exception Stop_enumeration

(* One candidate application of an operation to stubs.  [value] holds
   its evaluation ([None] for a candidate that does not type-check or
   evaluate) when a repeat will replay it or a domain pool made it;
   otherwise the evaluation is dropped once registered. *)
type cand = { op : Ast.op; args : t list; mutable value : t option }

type operand = {
  stub : t;
  vars : Sym.Set.t;
  elem_vars : Sym.Set.t array;
}

type index = {
  concrete : operand list;
  planes : t list;
  masks : (t * Sym.Set.t) list;
}

(* A library entry: the cheapest stub seen for one symbolic value, and
   the order in which that value was first registered (the tie-breaker
   that keeps [all] independent of hash-table layout). *)
type entry = { stub : t; index : int }

type library = {
  all : t list;
  atom_list : t list;
  by_sem : entry Spec.Tbl.t;
  lib_env : Types.env;
  hit_cap : bool;
  attempts : int;  (* candidate programs examined before deduplication *)
  index : index option Atomic.t;
      (* the operand index, published by compare-and-set (see [index]) *)
}

let stubs l = l.all
let attempts l = l.attempts
let atoms l = l.atom_list
let size l = List.length l.all
let env l = l.lib_env
let truncated l = l.hit_cap

(* Candidate operations for a given argument count, specialized by the
   ranks available.  Attribute-carrying ops are expanded per rank. *)
let unary_ops ~extended rank =
  let axes = List.init rank (fun i -> Some i) in
  let sums = List.map (fun a -> Ast.sum_op a) (None :: axes) in
  let maxes = List.map (fun a -> Ast.max_op a) (None :: axes) in
  (* keepdims variants keep the reduced axis as size 1 so the result
     broadcasts back over its source — the shape softmax/layernorm-style
     kernels need.  Only per-axis variants: a keepdims full reduction is
     just a reshape of the scalar and never appears in the workloads. *)
  let keep_sums = List.map (fun a -> Ast.sum_op ~keepdims:true a) axes in
  let keep_maxes = List.map (fun a -> Ast.max_op ~keepdims:true a) axes in
  let base = [ Ast.Sqrt; Ast.Exp; Ast.Log ] in
  let structural =
    (if rank >= 2 then [ Ast.Transpose None; Ast.Diag; Ast.Trace ] else [])
    @ (if rank >= 1 then sums @ maxes else [])
    @ if rank >= 2 then keep_sums @ keep_maxes else []
  in
  let masks = if extended && rank = 2 then [ Ast.Triu; Ast.Tril ] else [] in
  base @ structural @ masks

let binary_ops ~extended =
  [
    Ast.Add;
    Ast.Sub;
    Ast.Mul;
    Ast.Div;
    Ast.Pow_op;
    Ast.Maximum;
    Ast.Dot;
    Ast.Tensordot ([ 0 ], [ 0 ]);
  ]
  @ if extended then [ Ast.Less ] else []

let enumerate ?(config = default_config) ?(tel = Obs.Telemetry.null) ?on_dup
    ~model ~consts (env : Types.env) =
  let enum_t0 = Unix.gettimeofday () in
  let sym_inputs = Sexec.sym_env env in
  let sym_lookup name =
    match List.assoc_opt name sym_inputs with
    | Some v -> v
    | None -> raise (Dsl.Eval.Eval_error ("unbound input " ^ name))
  in
  let by_sem : entry Spec.Tbl.t = Spec.Tbl.create 4096 in
  let count = ref 0 in
  let attempts = ref 0 in
  let hit_cap = ref false in
  let levels : t list array = Array.make (config.depth + 1) [] in
  let dup stub =
    match on_dup with Some f -> f stub | None -> ()
  in
  (* The values a library keeps share their equal products and powers:
     stubs build them independently, and sharing them cuts the memory
     of the suite's libraries by a third. *)
  let interned = Expr.Intern.create () in
  (* [Some stub] for a stub with a new value: the stub as kept, its value
     interned. *)
  let register stub =
    match Spec.Tbl.find_opt by_sem stub.sem with
    | Some { stub = existing; _ } when existing.cost <= stub.cost ->
        (* A strictly worse implementation of a known value is exactly
           what rule mining wants to see (worse ⇒ representative is a
           rewrite proven by construction); equal-cost duplicates carry
           no improvement and are not reported. *)
        if existing.cost < stub.cost then dup stub;
        None
    | Some { stub = existing; index } ->
        (* Cheaper implementation of a known value: replace the
           representative but do not re-expand it.  The displaced
           program is the [dup]: it is now strictly worse than the
           library's representative of its semantics. *)
        Spec.Tbl.replace by_sem existing.sem
          { stub = { stub with sem = existing.sem }; index };
        dup existing;
        None
    | None ->
        if !count >= config.max_stubs then begin
          hit_cap := true;
          None
        end
        else begin
          let stub =
            {
              stub with
              sem = Sexec.Stensor.map (Expr.Intern.intern interned) stub.sem;
            }
          in
          Spec.Tbl.add by_sem stub.sem { stub; index = !count };
          incr count;
          Some stub
        end
  in
  (* Depth 0: inputs and program constants. *)
  let atom_list =
    List.filter_map
      (fun (name, vt) ->
        let stub =
          {
            prog = Ast.Input name;
            vt;
            sem = sym_lookup name;
            cost = 0.;
            depth = 0;
          }
        in
        register stub)
      env
    @ List.filter_map
        (fun c ->
          let stub =
            {
              prog = Ast.Const c;
              vt = Types.scalar_f;
              sem = Sexec.exec (fun _ -> assert false) (Ast.Const c);
              cost = 0.;
              depth = 0;
            }
          in
          register stub)
        (List.sort_uniq compare consts)
  in
  levels.(0) <- atom_list;
  (* The per-depth work is split into three phases so the expensive one
     can run on a domain pool without perturbing results: (1) the
     candidate applications are listed in the exact order the sequential
     enumeration would attempt them; (2) each candidate is evaluated —
     type check, symbolic execution, costing — independently (this is
     the embarrassingly parallel part); (3) evaluations are folded
     through [register] sequentially in list order, so deduplication,
     the [max_stubs] cap and the deadline cut off at the same attempt
     regardless of [jobs].  The library is byte-identical either way.

     The exhaustive order pairs every newest stub with every lower one
     and every lower stub with every newest one, so a pair of two
     newest stubs comes up three times; and a commutative operation
     meets each unordered pair in both orders.  A repeat always
     evaluates to a stub equal to the first, and a twin to one with the
     same value and the same cost when the model prices both orders
     alike; both then meet a representative at most as expensive, and
     registering them changes nothing.  So each distinct candidate is
     evaluated once and later twins are dropped.  An [on_dup] observer
     is the exception: a repeat or twin can be reported as a duplicate
     when an earlier stub has since become cheaper, so with one
     attached, twins are kept and each repeat re-registers its first
     evaluation at its exhaustive position. *)
  let observed = Option.is_some on_dup in
  let binaries = binary_ops ~extended:config.extended_ops in
  let twin_free op (a : t) (b : t) =
    (not observed)
    && (match op with Ast.Add | Ast.Mul | Ast.Maximum -> true | _ -> false)
    &&
    match model.Cost.Model.op_cost op [ a.vt; b.vt ] with
    | c -> c = model.Cost.Model.op_cost op [ b.vt; a.vt ]
    | exception Types.Type_error _ -> true (* ill-typed both ways *)
  in
  let tasks_of_depth d older newest =
    let acc = ref [] in
    let push fresh c = acc := (c, fresh) :: !acc in
    let cand op args = { op; args; value = None } in
    (* Unary ops applied to the newest level (lower levels were already
       expanded at previous depths). *)
    List.iter
      (fun (a : t) ->
        if a.vt.dtype = Types.Float then
          List.iter
            (fun op -> push true (cand op [ a ]))
            (unary_ops ~extended:config.extended_ops
               (Shape.rank a.vt.shape)))
      newest;
    (* Beyond depth 1, non-atom x non-atom products are redundant with
       what the recursive search reconstructs through sketches; unless
       [full_binary] is set (the TASO-style baseline), one operand must
       be an atom.  Power exponents are restricted to scalars: the
       grammar's [power] is used with scalar exponents and tensor-tensor
       powers explode the atom vocabulary without ever being cheaper.
       [twin] says the pair was already listed in the other order. *)
    let consider ?(twin = false) (a : t) (b : t) =
      if d = 1 || config.full_binary || a.depth = 0 || b.depth = 0 then
        List.filter_map
          (fun op ->
            if
              (match op with
              | Ast.Pow_op -> Shape.rank b.vt.shape > 0
              | _ -> false)
              || (twin && twin_free op a b)
            then None
            else
              let c = cand op [ a; b ] in
              push true c;
              Some c)
          binaries
      else []
    in
    (* Binary ops: at least one operand from the newest level; the
       lower levels are [older], then [newest]. *)
    let rows =
      List.mapi
        (fun i a ->
          List.iter (fun b -> ignore (consider a b)) older;
          let row =
            List.concat
              (List.mapi (fun j b -> consider ~twin:(j < i) a b) newest)
          in
          if observed then List.iter (push false) row;
          row)
        newest
    in
    List.iter
      (fun a -> List.iter (fun b -> ignore (consider ~twin:true a b)) newest)
      older;
    if observed then List.iter (List.iter (push false)) rows;
    List.rev !acc
  in
  let eval d { op; args; _ } =
    match Types.infer_op op (List.map (fun (s : t) -> s.vt) args) with
    | exception Types.Type_error _ -> None
    | vt -> (
        match Sexec.apply_op op (List.map (fun s -> s.sem) args) with
        | exception
            ( Dsl.Eval.Eval_error _ | Invalid_argument _
            | Symbolic.Q.Overflow (* e.g. pow towers of constants *) ) ->
            None
        | sem ->
            let arg_ts = List.map (fun s -> s.vt) args in
            let cost =
              List.fold_left (fun a s -> a +. s.cost) 0. args
              +. model.Cost.Model.op_cost op arg_ts
            in
            Some
              { prog = Ast.App (op, List.map (fun s -> s.prog) args);
                vt; sem; cost; depth = d })
  in
  (* Called before every registration: a fresh candidate counts as an
     attempt, a replayed repeat does not. *)
  let guard fresh =
    if fresh then incr attempts;
    if !count >= config.max_stubs then begin
      hit_cap := true;
      raise Stop_enumeration
    end;
    (* Checked on every attempt: a single candidate evaluation can take
       milliseconds (symbolic towers of rational exponents), so any
       batching here turns the deadline into a suggestion.  The clock
       read is vDSO-cheap next to even the fastest evaluation. *)
    match config.deadline with
    | Some d when Unix.gettimeofday () > d ->
        hit_cap := true;
        raise Stop_enumeration
    | _ -> ()
  in
  (try
  for d = 1 to config.depth do
    let depth_t0 = Unix.gettimeofday () in
    let attempts_before = !attempts in
    let older = List.concat (Array.to_list (Array.sub levels 0 (d - 1))) in
    let tasks = tasks_of_depth d older levels.(d - 1) in
    let produced = ref [] in
    let accept = function
      | None -> ()
      | Some stub -> (
          match register stub with
          | Some stub -> produced := stub :: !produced
          | None -> ())
    in
    let finished =
      try
        if config.jobs > 1 then begin
          let fresh =
            Array.of_list
              (List.filter_map (fun (c, f) -> if f then Some c else None) tasks)
          in
          Array.iter2
            (fun c v -> c.value <- v)
            fresh
            (Par.map_array ~jobs:config.jobs ~chunk:32 (eval d) fresh);
          List.iter
            (fun (c, fresh) ->
              guard fresh;
              accept c.value)
            tasks
        end
        else
          (* Single-domain path: evaluate lazily so work past the cap or
             deadline is never attempted. *)
          List.iter
            (fun (c, fresh) ->
              guard fresh;
              if not fresh then accept c.value
              else begin
                let v = eval d c in
                if observed then c.value <- v;
                accept v
              end)
            tasks;
        true
      with Stop_enumeration -> false
    in
    levels.(d) <- !produced;
    if Obs.Telemetry.enabled tel then
      Obs.Telemetry.event tel "stub.depth"
        [
          ("depth", Obs.Telemetry.Int d);
          ("candidates", Obs.Telemetry.Int (!attempts - attempts_before));
          ("kept", Obs.Telemetry.Int (List.length !produced));
          ("elapsed", Obs.Telemetry.Float (Unix.gettimeofday () -. depth_t0));
        ];
    if not finished then raise Stop_enumeration
  done
  with Stop_enumeration -> ());
  let all =
    Spec.Tbl.fold (fun _ e acc -> e :: acc) by_sem []
    |> List.sort (fun a b ->
           compare
             (a.stub.cost, a.stub.depth, a.index)
             (b.stub.cost, b.stub.depth, b.index))
    |> List.map (fun e -> e.stub)
  in
  if Obs.Telemetry.enabled tel then
    Obs.Telemetry.event tel "stub.library"
      [
        ("size", Obs.Telemetry.Int !count);
        ("attempts", Obs.Telemetry.Int !attempts);
        ("truncated", Obs.Telemetry.Bool !hit_cap);
        ("elapsed", Obs.Telemetry.Float (Unix.gettimeofday () -. enum_t0));
      ];
  { all; atom_list; by_sem; lib_env = env; hit_cap = !hit_cap;
    attempts = !attempts; index = Atomic.make None }

(* Canonical identity of an enumeration: everything the resulting
   library depends on.  [deadline] and [jobs] are deliberately excluded
   — [jobs] never changes the library (registration is sequential) and
   [deadline] only truncates it; a truncated library is never published
   to the cache (see {!Cache}), so the key does not need to capture it. *)
let fingerprint (config : config) ~consts (env : Types.env) =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "stub:d=%d,max=%d,ext=%b,full=%b" config.depth
       config.max_stubs config.extended_ops config.full_binary);
  Buffer.add_string buf ";consts=";
  (* Constants are keyed by IEEE-754 bit pattern (like the e-graph's
     hashconsing): polymorphic compare on floats mis-sorts NaN, and
     printf rounding must not be what decides cache identity. *)
  List.iter
    (fun bits -> Buffer.add_string buf (Printf.sprintf "%Lx," bits))
    (List.sort_uniq Int64.compare (List.map Int64.bits_of_float consts));
  Buffer.add_string buf ";env=";
  List.iter
    (fun ((name, vt) : string * Types.vt) ->
      Buffer.add_string buf
        (Format.asprintf "%s:%a|" name Types.pp_vt vt))
    env;
  Buffer.contents buf

(* Share one enumerated library per (config, consts, env, model)
   fingerprint: the suite driver and the serve daemon optimize many
   programs over recurring input environments, and enumeration is a
   fixed cost per environment, not per program.  A slot under
   construction is awaited, not rebuilt, so concurrent requests for the
   same environment enumerate exactly once. *)
module Cache = struct
  type slot = Building | Ready of library

  type cache = {
    lock : Mutex.t;
    cond : Condition.t;
    slots : (string, slot) Hashtbl.t;
  }

  let create () =
    { lock = Mutex.create (); cond = Condition.create (); slots = Hashtbl.create 16 }

  let enumerate cache ?(config = default_config) ?tel ~model ~consts env =
    let key =
      fingerprint config ~consts env ^ ";model=" ^ model.Cost.Model.name
    in
    let rec obtain () =
      match Hashtbl.find_opt cache.slots key with
      | Some (Ready lib) -> `Hit lib
      | Some Building ->
          Condition.wait cache.cond cache.lock;
          obtain ()
      | None ->
          Hashtbl.replace cache.slots key Building;
          `Build
    in
    match Mutex.protect cache.lock obtain with
    | `Hit lib -> (lib, true)
    | `Build ->
        let finish slot =
          Mutex.protect cache.lock (fun () ->
              (match slot with
              | Some lib -> Hashtbl.replace cache.slots key (Ready lib)
              | None -> Hashtbl.remove cache.slots key);
              Condition.broadcast cache.cond)
        in
        (match enumerate ?tel ~config ~model ~consts env with
        | lib ->
            (* A library truncated by the deadline or the stub cap is
               complete only for the run that built it: publishing it
               would serve callers with fresh deadlines a partial answer
               forever.  They re-enumerate instead. *)
            finish (if lib.hit_cap then None else Some lib);
            (lib, false)
        | exception e ->
            finish None;
            raise e)
end

let resolve ?cache ?config ?(tel = Obs.Telemetry.null) ~model ~consts env =
  match cache with
  | None -> enumerate ?config ~tel ~model ~consts env
  | Some cache ->
      let lib, hit = Cache.enumerate cache ?config ~tel ~model ~consts env in
      if hit then Obs.Telemetry.incr tel "stub.cache_hits";
      lib

let lookup_exact lib spec =
  Option.map (fun e -> e.stub) (Spec.Tbl.find_opt lib.by_sem spec)

let lookup_broadcast lib spec =
  (* Only the collapsed lookup: exact matches are the caller's business
     (it compares both by cost; returning the exact match here would let
     an expensive same-shape stub shadow a zero-cost broadcastable
     atom). *)
  let collapsed = Spec.collapse spec in
  if Shape.equal (Spec.shape collapsed) (Spec.shape spec) then None
  else lookup_exact lib collapsed

(* ------------------------------------------------------------------ *)
(* Concrete-operand index                                              *)
(* ------------------------------------------------------------------ *)

(* Stubs up to this depth are concrete sketch operands: the paper's
   depth-2 library yields depth-1 concrete parts. *)
let max_conc_depth = 1

let build_index lib =
  let elems (s : t) = Sexec.Stensor.unsafe_data s.sem in
  let union = Array.fold_left Sym.Set.union Sym.Set.empty in
  let concrete =
    List.filter_map
      (fun (s : t) ->
        if
          s.depth <= max_conc_depth
          && s.vt.dtype = Types.Float
          && Array.exists (fun e -> not (Expr.is_zero e)) (elems s)
        then
          let elem_vars = Array.map Expr.vars (elems s) in
          Some { stub = s; vars = union elem_vars; elem_vars }
        else None)
      lib.all
  in
  {
    concrete;
    planes =
      List.filter
        (fun s -> s.vt.dtype = Types.Float && Shape.rank s.vt.shape = 2)
        lib.all;
    masks =
      List.filter_map
        (fun s ->
          if s.vt.dtype = Types.Bool then
            Some (s, union (Array.map Expr.vars (elems s)))
          else None)
        lib.all;
  }

(* Built on first use and published with a compare-and-set: a library
   shared through [Cache] may be indexed by several domains at once, and
   a loser of the race adopts the winner's index (both are built from
   the same immutable library, so they are equal anyway). *)
let index lib =
  match Atomic.get lib.index with
  | Some ix -> ix
  | None ->
      let ix = build_index lib in
      if Atomic.compare_and_set lib.index None (Some ix) then ix
      else Option.get (Atomic.get lib.index)

let const_stub lib q =
  let prog = Ast.Const (Symbolic.Q.to_float q) in
  let sem = Spec.scalar (Expr.rat q) in
  let fresh = { prog; vt = Types.scalar_f; sem; cost = 0.; depth = 0 } in
  (* A library stub may share the semantics (e.g. sum(A/A) is the
     constant 4 on a 2x2 input) but a literal is never more expensive. *)
  match lookup_exact lib sem with
  | Some s when s.cost < fresh.cost -> Some s
  | Some _ | None -> Some fresh

(* ------------------------------------------------------------------ *)
(* Concrete value tables (TF-Coder-style signatures)                  *)
(* ------------------------------------------------------------------ *)

module Values = struct
  type table = (t * Tensor.Ftensor.t list) list
      (* every stub with one output tensor per sample, in library order *)

  (* Sampled inputs are identified by the IEEE-754 bit pattern of every
     element (plus name and shape), like the enumeration fingerprint's
     constants: printf rounding or NaN comparison must never make two
     different input draws share a cache entry. *)
  let inputs_fingerprint (samples : (string * Tensor.Ftensor.t) list list) =
    let buf = Buffer.create 256 in
    List.iter
      (fun sample ->
        Buffer.add_char buf '(';
        List.iter
          (fun (name, t) ->
            Buffer.add_string buf name;
            Buffer.add_char buf ':';
            Array.iter
              (fun d -> Buffer.add_string buf (Printf.sprintf "%dx" d))
              (Tensor.Ftensor.shape t);
            Buffer.add_char buf '=';
            Array.iter
              (fun v ->
                Buffer.add_string buf
                  (Printf.sprintf "%Lx," (Int64.bits_of_float v)))
              (Tensor.Ftensor.to_array t))
          sample;
        Buffer.add_char buf ')')
      samples;
    (* The raw rendering is long (every element of every sample); the
       table key only needs to distinguish draws, so hash it down. *)
    Digest.to_hex (Digest.string (Buffer.contents buf))

  let fingerprint ~library_fp samples =
    Printf.sprintf "values:%s;inputs=%s" library_fp
      (inputs_fingerprint samples)

  let build (lib : library) samples =
    List.filter_map
      (fun stub ->
        (* Ill-behaved evaluations (a stub is well-typed but its value
           may still overflow or hit 0/0 on a given draw) keep their
           non-finite floats: they simply never match a finite target
           signature. *)
        match
          List.map
            (fun inputs -> Dsl.Interp.eval_alist inputs stub.prog)
            samples
        with
        | outs -> Some (stub, outs)
        | exception _ -> None)
      lib.all

  let to_list t = t

  (* One table per (library, input draw) fingerprint, shared across
     lifts the same way [Cache] shares enumerated libraries.  Truncated
     libraries are never cached (their contents are not determined by
     their fingerprint), mirroring [Cache.enumerate]. *)
  let cache : (string, table) Hashtbl.t = Hashtbl.create 8
  let cache_mutex = Mutex.create ()

  let get ?(tel = Obs.Telemetry.null) ~library_fp (lib : library) samples =
    let fp = fingerprint ~library_fp samples in
    let cached =
      Mutex.protect cache_mutex (fun () -> Hashtbl.find_opt cache fp)
    in
    match cached with
    | Some t ->
        Obs.Telemetry.incr tel "stub.values_cache_hits";
        t
    | None ->
        let t = build lib samples in
        if not lib.hit_cap then
          Mutex.protect cache_mutex (fun () ->
              if not (Hashtbl.mem cache fp) then Hashtbl.replace cache fp t);
        t
end
