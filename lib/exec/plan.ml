(* Planning: from IR to an executable program over a preallocated arena.

   The planner makes every decision that would otherwise cost time or
   allocation at run time:

   - {e fusion}: maximal chains of elementwise operations collapse into
     one loop nest evaluating a postfix scalar program ({!sop}) per
     output element, so intermediates of a chain like
     [sqrt(A*A + B*B) / C] never materialize.  A producer is inlined
     exactly when it is elementwise, has a single consumer, and that
     consumer is either an elementwise operation of the same output
     shape or a [Sum]/[Max] reduction, whose loop then evaluates the
     producer body on the fly ({!Reduce_fused}) so [sum (f x)] runs as a
     single pass with no materialized intermediate.  Never across [Dot]/[Tensordot] or any
     layout operation, whose inputs must exist as whole buffers;
   - {e superinstructions}: a peephole pass rewrites the postfix body so
     a binary opcode whose second operand is a literal ({!BinC}) or a
     leaf load ({!BinL}) reads it directly instead of first
     materializing a scratch strip, roughly halving strip traffic on
     typical chains;
   - {e aliasing}: [reshape], identity [transpose] and the axis-0 slices
     of unrolled comprehensions are zero-cost views (slot + offset) of
     their operand's buffer;
   - {e buffer planning}: every materialized value gets a slot in a
     preallocated arena of flat float buffers (the same unboxed
     [float array] storage the tensor substrate uses, so inputs bind
     zero-copy), with liveness-driven reuse (exact-size free list), so
     steady-state evaluation performs no allocation;
   - {e index maps}: broadcasting, transposition and the permutations
     that reduce [dot]/[tensordot] to a row-major matrix multiply are
     precomputed as gather maps (output linear index to source linear
     index); rank-2 transposes skip the map entirely and run as a tiled
     kernel ({!Transpose2});
   - {e parallelism}: each step is assigned a static lane count
     ({!step_lanes}) from {!Opts.domains} and its work size; per-lane
     scratch (strip stacks, reduction partials) is preallocated here so
     parallel execution stays allocation-free.  Lane partitioning is
     chosen so results are bitwise identical for every domain count:
     elementwise and tiled steps write disjoint ranges, axis reductions
     split only across independent outputs, and full reductions
     accumulate into fixed-size blocks whose count is independent of
     the lane count, combined in ascending order.

   A compiled program's arena and scratch are mutable state, owned by
   one run at a time ([busy]); a run that overlaps it works on a {!copy},
   so concurrent runs of one program never race. *)

module Ast = Dsl.Ast
module Types = Dsl.Types
module Shape = Tensor.Shape
module F = Tensor.Ftensor

type buf = float array
(* Same storage as [Ftensor]: input slots are rebound to the caller's
   arrays on each run (zero-copy), so a slot an input occupies is never
   recycled for a step output. *)

(* Postfix scalar bytecode for fused loop bodies, executed by the VM as
   a {e vectorized} stack machine: each opcode processes one strip
   (up to {!strip_len} elements) in a tight monomorphic float loop, so
   dispatch is amortized over the strip and intermediates stay in a few
   L1-resident scratch strips instead of materializing whole tensors.
   Boolean tensors are 0./1. floats, so [SLess] and [Where3] need no
   separate representation. *)
type sbin = SAdd | SSub | SMul | SDiv | SPow | SMax | SLess

type sop =
  | Load of int  (* push the current element of leaf operand i *)
  | Lit of float
  | Bin2 of sbin  (* pop y, pop x, push (x OP y) *)
  | BinC of sbin * float  (* top := top OP literal, in place *)
  | BinL of sbin * int  (* top := top OP leaf i, read directly *)
  | Sqrt1
  | Exp1
  | Log1
  | Where3

(* How a leaf operand is indexed relative to the loop's output index. *)
type access =
  | Dense  (* same shape as the output: the output's linear index *)
  | Cell  (* one-element operand: always element 0 *)
  | Gather of int array  (* precomputed output index -> source index *)

type operand = { src : int; ofs : int; acc : access }

type bin_kind = BAdd | BSub | BMul | BDiv

type step =
  | Bin of { kind : bin_kind; out : int; a : operand; b : operand; n : int }
    (* specialized binary arithmetic over dense/scalar operands, the
       hottest case: one pass, no scratch strips *)
  | Ew of {
      out : int;
      n : int;
      code : sop array;
      leaves : operand array;
      strips : float array array array;
        (* scratch: lane -> stack level -> strip *)
    }
  | Reduce of {
      kind : [ `Sum | `Max ];
      out : int;
      src : int;
      sofs : int;
      outer : int;
      mid : int;
      inner : int;
      partials : float array;
        (* full (scalar) reductions only: fixed-size-block partial
           accumulators — the block count depends on the problem size,
           never on the lane count, so parallel and sequential runs
           combine identically *)
    }  (* source viewed as outer x mid x inner; [mid] is reduced *)
  | Reduce_fused of {
      kind : [ `Sum | `Max ];
      out : int;
      outer : int;
      mid : int;
      inner : int;
      code : sop array;  (* producer body, evaluated per source strip *)
      leaves : operand array;  (* indexed in the *source* space *)
      strips : float array array array;  (* lane -> level -> strip *)
      partials : float array;  (* as in {!Reduce} *)
    }
  | Matmul of {
      out : int;
      a : int;
      aofs : int;
      b : int;
      bofs : int;
      m : int;
      k : int;
      n : int;
    }  (* out[m,n] = a[m,k] . b[k,n], all row-major *)
  | Transpose2 of {
      out : int;
      src : int;
      sofs : int;
      rows : int;
      cols : int;
    }  (* out[c,r] = src[r,c]: rank-2 transpose as a tiled kernel *)
  | Copy of { out : int; src : operand; n : int }
  | Stack_part of {
      out : int;
      oofs : int;
      src : int;
      sofs : int;
      outer : int;
      inner : int;
      stride : int;
    }  (* one stacked operand: outer blocks of [inner], strided out *)
  | Mask of {
      kind : [ `Upper | `Lower ];
      out : int;
      src : int;
      sofs : int;
      rows : int;
      cols : int;
    }
  | Trace_of of { out : int; src : int; sofs : int; rows : int; cols : int }
  | Fill of { out : int; src : int; sofs : int; n : int }

type stats = {
  ir_nodes : int;
  steps : int;
  ops_fused : int;  (* operation nodes absorbed into a fused loop *)
  consts_folded : int;
  buffers_reused : int;  (* arena slots serving more than one value *)
  arena_slots : int;
  arena_bytes : int;  (* the arena is fully preallocated: peak = total *)
  parallel_strips : int;  (* steps planned for more than one lane *)
}

type t = {
  steps : step array;
  slots : buf array;
  inputs : (string * int * int) list;  (* name, slot, element count *)
  result_slot : int;
  result_ofs : int;
  result_shape : Shape.t;
  env : Types.env;
  opts : Opts.t;
  stats : stats;
  busy : bool Atomic.t;  (* a run owns [slots] and the steps' scratch *)
}

(* Strip length of the vectorized stack machine: 4 KB per scratch strip
   keeps a typical fused body (2-4 stack levels) L1-resident while
   amortizing opcode dispatch over 512 elements. *)
let strip_len = 512

(* Work below this many elements stays sequential: lane handoff costs a
   CAS + signal + wake, which only pays off above L2-ish sizes. *)
let par_threshold = 32768

(* Full (scalar) reductions accumulate this many source elements per
   partial block.  The block count is a function of the problem size
   only, so any lane count — including 1 — produces bitwise-identical
   results. *)
let red_block = 16384

let blocks_of total = if total <= red_block then 1 else (total + red_block - 1) / red_block

let lanes_for ~domains work =
  if domains <= 1 then 1 else max 1 (min domains (work / par_threshold))

(* Lanes a step runs on (1 = sequential).  Shared by the planner (to
   size per-lane scratch and count [parallel_strips]) and the VM (to
   partition ranges): both must agree, and the per-lane scratch of
   [Ew]/[Reduce_fused] is authoritative for them. *)
let step_lanes (opts : Opts.t) (s : step) =
  let domains = opts.Opts.domains in
  match s with
  | Bin b -> lanes_for ~domains b.n
  | Ew e -> Array.length e.strips
  | Reduce r ->
      if r.outer = 1 && r.inner = 1 then
        min (lanes_for ~domains r.mid) (Array.length r.partials)
      else if r.inner = 1 then
        min (lanes_for ~domains (r.outer * r.mid)) r.outer
      else if r.outer = 1 then
        min (lanes_for ~domains (r.mid * r.inner)) r.inner
      else min (lanes_for ~domains (r.outer * r.mid * r.inner)) r.outer
  | Reduce_fused rf -> Array.length rf.strips
  | Matmul mm -> min (lanes_for ~domains (mm.m * mm.k * mm.n)) mm.m
  | Transpose2 tp -> min (lanes_for ~domains (tp.rows * tp.cols)) tp.rows
  | Copy c -> lanes_for ~domains c.n
  | Stack_part _ | Mask _ | Trace_of _ | Fill _ -> 1

(* ------------------------------------------------------------------ *)
(* Postfix bodies                                                      *)
(* ------------------------------------------------------------------ *)

let sop_of_op (op : Ast.op) =
  match op with
  | Ast.Add -> Bin2 SAdd
  | Ast.Sub -> Bin2 SSub
  | Ast.Mul -> Bin2 SMul
  | Ast.Div -> Bin2 SDiv
  | Ast.Pow_op -> Bin2 SPow
  | Ast.Maximum -> Bin2 SMax
  | Ast.Less -> Bin2 SLess
  | Ast.Sqrt -> Sqrt1
  | Ast.Exp -> Exp1
  | Ast.Log -> Log1
  | Ast.Where -> Where3
  | _ -> invalid_arg "sop_of_op: not elementwise"

let sop_delta = function
  | Load _ | Lit _ -> 1
  | Bin2 _ -> -1
  | BinC _ | BinL _ | Sqrt1 | Exp1 | Log1 -> 0
  | Where3 -> -2

(* Fold […; Lit c; Bin2 k] into […; BinC (k, c)] and
   […; Load l; Bin2 k] into […; BinL (k, l)] — valid whenever the
   popped second operand is the literal/load just pushed and an x
   remains beneath it (depth >= 2). *)
let peephole code =
  let out = ref [] and depth = ref 0 in
  let emit c =
    out := c :: !out;
    depth := !depth + sop_delta c
  in
  Array.iter
    (fun c ->
      match (c, !out) with
      | Bin2 k, Lit v :: rest when !depth >= 2 ->
          out := rest;
          depth := !depth - 1;
          emit (BinC (k, v))
      | Bin2 k, Load l :: rest when !depth >= 2 ->
          out := rest;
          depth := !depth - 1;
          emit (BinL (k, l))
      | _ -> emit c)
    code;
  Array.of_list (List.rev !out)

let body_depth code =
  let d = ref 0 and m = ref 1 in
  Array.iter
    (fun c ->
      d := !d + sop_delta c;
      if !d > !m then m := !d)
    code;
  !m

let lane_strips ~lanes ~depth ~len =
  Array.init lanes (fun _ ->
      Array.init depth (fun _ -> Array.make (min len strip_len) 0.))

(* ------------------------------------------------------------------ *)
(* Index-map construction                                              *)
(* ------------------------------------------------------------------ *)

let broadcast_map src_shape out_shape =
  let map = Array.make (Shape.numel out_shape) 0 in
  let li = ref 0 in
  Shape.iter_indices out_shape (fun oi ->
      map.(!li) <- Shape.broadcast_offset src_shape oi;
      incr li);
  map

(* out = transpose(src, perm): out[oi] = src[si] with si.(perm.(d)) =
   oi.(d), i.e. src linear index = sum oi.(d) * strides(src).(perm.(d)). *)
let transpose_map src_shape perm =
  let out_shape = Shape.transpose src_shape perm in
  let st = Shape.strides src_shape in
  let map = Array.make (Shape.numel out_shape) 0 in
  let li = ref 0 in
  Shape.iter_indices out_shape (fun oi ->
      let s = ref 0 in
      Array.iteri (fun d od -> s := !s + (od * st.(perm.(d)))) oi;
      map.(!li) <- !s;
      incr li);
  map

let identity_perm perm =
  let ok = ref true in
  Array.iteri (fun i p -> if p <> i then ok := false) perm;
  !ok

let effective_perm rank = function
  | None -> Shape.reverse_perm rank
  | Some p -> p

(* ------------------------------------------------------------------ *)
(* Contraction lowering                                                *)
(* ------------------------------------------------------------------ *)

(* [dot]/[tensordot] reduce to one row-major matrix multiply, with the
   operands permuted so the contracted axes are trailing (left operand)
   and leading (right operand).  The output needs no permutation: kept
   axes appear left-to-right in exactly the order NumPy specifies. *)
type contraction = {
  a_perm : int array option;  (* gather a into (m, k) layout first *)
  b_perm : int array option;  (* gather b into (k, n) layout first *)
  m : int;
  k : int;
  n : int;
}

let contraction_of op (sa : Shape.t) (sb : Shape.t) : contraction =
  let ra = Shape.rank sa and rb = Shape.rank sb in
  let nontrivial perm = if identity_perm perm then None else Some perm in
  match op with
  | Ast.Dot ->
      (* a's contracted axis is already last; b contracts axis rb-2
         (rb > 1) or axis 0 (vector), which must be brought first. *)
      let k = sa.(ra - 1) in
      let m = Shape.numel sa / k in
      let n = Shape.numel sb / k in
      let b_perm =
        if rb <= 2 then None
        else
          nontrivial
            (Array.init rb (fun i ->
                 if i = 0 then rb - 2
                 else if i <= rb - 2 then i - 1
                 else rb - 1))
      in
      { a_perm = None; b_perm; m; k; n }
  | Ast.Tensordot (axes_a, axes_b) ->
      let axes_a = List.map (Shape.normalize_axis sa) axes_a in
      let axes_b = List.map (Shape.normalize_axis sb) axes_b in
      let keep shape axes =
        List.filter
          (fun i -> not (List.mem i axes))
          (List.init (Shape.rank shape) Fun.id)
      in
      let keep_a = keep sa axes_a and keep_b = keep sb axes_b in
      let k = List.fold_left (fun acc ax -> acc * sa.(ax)) 1 axes_a in
      let m = List.fold_left (fun acc ax -> acc * sa.(ax)) 1 keep_a in
      let n = List.fold_left (fun acc ax -> acc * sb.(ax)) 1 keep_b in
      {
        a_perm = nontrivial (Array.of_list (keep_a @ axes_a));
        b_perm = nontrivial (Array.of_list (axes_b @ keep_b));
        m;
        k;
        n;
      }
  | _ -> invalid_arg "contraction_of: not a contraction"

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

type kind = Dead | KInput | KConst of F.t | KAlias | KInlined | KStep

let compile ~(opts : Opts.t) (ir : Ir.t) : t =
  let nodes = ir.Ir.nodes in
  let n_nodes = Array.length nodes in
  let uses = Ir.use_counts ir in
  let shape id = nodes.(id).Ir.vt.Types.shape in
  let numel id = Shape.numel (shape id) in

  (* Sole consumer of single-use nodes (for fusion decisions). *)
  let consumer = Array.make n_nodes (-1) in
  Array.iteri
    (fun u (nd : Ir.node) ->
      let reg a = if uses.(a) = 1 then consumer.(a) <- u in
      match nd.expr with
      | Ir.Op (_, args) -> Array.iter reg args
      | Ir.Slice0 (s, _) -> reg s
      | Ir.Input _ | Ir.Const _ -> ())
    nodes;

  (* Classify nodes.  Aliases record their base and element offset. *)
  let kind = Array.make n_nodes KStep in
  let alias_base = Array.make n_nodes (-1) in
  let alias_delta = Array.make n_nodes 0 in
  let inlineable id (op : Ast.op) =
    Ir.is_elementwise op && uses.(id) = 1 && consumer.(id) >= 0
    &&
    let c = consumer.(id) in
    match nodes.(c).Ir.expr with
    | Ir.Op (cop, _) when Ir.is_elementwise cop ->
        Shape.equal (shape id) (shape c)
    | Ir.Op ((Ast.Sum _ | Ast.Max _), _) -> true
    | _ -> false
  in
  for id = 0 to n_nodes - 1 do
    let nd = nodes.(id) in
    if uses.(id) = 0 && id <> ir.Ir.result then kind.(id) <- Dead
    else
      match nd.Ir.expr with
      | Ir.Input _ -> kind.(id) <- KInput
      | Ir.Const c -> kind.(id) <- KConst c
      | Ir.Slice0 (src, i) ->
          kind.(id) <- KAlias;
          alias_base.(id) <- src;
          alias_delta.(id) <- i * numel id
      | Ir.Op (Ast.Reshape _, args) ->
          kind.(id) <- KAlias;
          alias_base.(id) <- args.(0)
      | Ir.Op (Ast.Transpose p, args)
        when identity_perm (effective_perm (Shape.rank (shape args.(0))) p) ->
          kind.(id) <- KAlias;
          alias_base.(id) <- args.(0)
      | Ir.Op (op, _) when inlineable id op -> kind.(id) <- KInlined
      | Ir.Op _ -> kind.(id) <- KStep
  done;

  (* The loop an inlined node's reads actually happen in: its chain's
     fusion root (possibly a reduction step). *)
  let group_root = Array.make n_nodes (-1) in
  for id = n_nodes - 1 downto 0 do
    group_root.(id) <-
      (match kind.(id) with
      | KInlined -> group_root.(consumer.(id))
      | _ -> id)
  done;

  (* Storage roots: follow alias chains to the owning node. *)
  let sroot = Array.make n_nodes (-1) in
  let sdelta = Array.make n_nodes 0 in
  for id = 0 to n_nodes - 1 do
    match kind.(id) with
    | KInput | KConst _ | KStep -> sroot.(id) <- id
    | KAlias ->
        let b = alias_base.(id) in
        sroot.(id) <- sroot.(b);
        sdelta.(id) <- sdelta.(b) + alias_delta.(id)
    | Dead | KInlined -> ()
  done;

  (* Liveness over storage roots, in step (= node) order.  An argument
     of an inlined node is read inside the fusion root's loop, so it
     must survive until then. *)
  let last_use = Array.make n_nodes (-1) in
  Array.iteri
    (fun id (nd : Ir.node) ->
      match (kind.(id), nd.Ir.expr) with
      | (KStep | KInlined), Ir.Op (_, args) ->
          let pos = group_root.(id) in
          Array.iter
            (fun a ->
              let r = sroot.(a) in
              if r >= 0 then last_use.(r) <- max last_use.(r) pos)
            args
      | _ -> ())
    nodes;
  let result_root = sroot.(ir.Ir.result) in
  last_use.(result_root) <- max_int;

  (* Arena slot assignment: linear scan with an exact-size free list.
     Input and constant slots are written before the step sequence runs
     (at run start and at compile time respectively), so they can never
     recycle a slot some step writes — they are always fresh.  Constants
     additionally persist across runs and are pinned forever. *)
  let slot_sizes = ref [] in
  let n_slots = ref 0 in
  let free : (int, int list ref) Hashtbl.t = Hashtbl.create 16 in
  let reused = ref 0 in
  let fresh size =
    let s = !n_slots in
    incr n_slots;
    slot_sizes := size :: !slot_sizes;
    s
  in
  let alloc ~reusable size =
    if not reusable then fresh size
    else
      match Hashtbl.find_opt free size with
      | Some ({ contents = s :: rest } as cell) ->
          cell := rest;
          incr reused;
          s
      | _ -> fresh size
  in
  let release size slot =
    match Hashtbl.find_opt free size with
    | Some cell -> cell := slot :: !cell
    | None -> Hashtbl.add free size (ref [ slot ])
  in
  let slot_of = Array.make n_nodes (-1) in
  let ofs_of = Array.make n_nodes 0 in
  let temp_slots = Array.make n_nodes [||] in
  for id = 0 to n_nodes - 1 do
    match kind.(id) with
    | Dead | KInlined -> ()
    | KInput | KConst _ -> slot_of.(id) <- alloc ~reusable:false (numel id)
    | KAlias ->
        let r = sroot.(id) in
        slot_of.(id) <- slot_of.(r);
        ofs_of.(id) <- sdelta.(id)
    | KStep ->
        slot_of.(id) <- alloc ~reusable:true (numel id);
        (match nodes.(id).Ir.expr with
        | Ir.Op (((Ast.Dot | Ast.Tensordot _) as op), args) ->
            let c = contraction_of op (shape args.(0)) (shape args.(1)) in
            let temps =
              List.filter_map Fun.id
                [
                  Option.map (fun _ -> numel args.(0)) c.a_perm;
                  Option.map (fun _ -> numel args.(1)) c.b_perm;
                ]
            in
            let slots =
              List.map (fun size -> (size, alloc ~reusable:true size)) temps
            in
            temp_slots.(id) <- Array.of_list (List.map snd slots);
            List.iter (fun (size, s) -> release size s) slots
        | _ -> ());
        (* Operands whose last read was this step free their slots for
           everything downstream; the output was allocated first, so a
           step never writes into a buffer it is still reading.
           Constants persist across runs and input slots are rebound to
           the caller's arrays (which no step may overwrite), so both
           stay pinned. *)
        for r = 0 to n_nodes - 1 do
          if
            last_use.(r) = id && slot_of.(r) >= 0
            && (match kind.(r) with KConst _ | KInput -> false | _ -> true)
          then release (numel r) slot_of.(r)
        done
  done;
  let sizes = Array.of_list (List.rev !slot_sizes) in

  (* Step emission. *)
  let steps = ref [] in
  let emit s = steps := s :: !steps in
  let ops_fused = ref 0 in
  let storage id = (slot_of.(id), ofs_of.(id)) in
  let operand_for ~out_shape a =
    let s, o = storage a in
    if Shape.equal (shape a) out_shape then { src = s; ofs = o; acc = Dense }
    else if numel a = 1 then { src = s; ofs = o; acc = Cell }
    else { src = s; ofs = o; acc = Gather (broadcast_map (shape a) out_shape) }
  in
  (* Build the postfix body whose per-element value is node [root]'s,
     expanding KInlined producers.  With [as_value] the root itself is
     walked (reduction sources — the root must then be inlineable);
     otherwise the root's own operation is applied over its walked
     arguments (elementwise step roots).  Returns the peepholed code,
     the leaf operands (indexed in [out_shape]'s linear space) and the
     number of operation nodes the body evaluates. *)
  let build_body ~out_shape ~root ~as_value =
    let code = ref [] in
    let leaves = ref [] in
    let n_leaves = ref 0 in
    let leaf_ix : (int, int) Hashtbl.t = Hashtbl.create 8 in
    let n_ops = ref 0 in
    let push c = code := c :: !code in
    let rec walk nid =
      match (kind.(nid), nodes.(nid).Ir.expr) with
      | KInlined, Ir.Op (op, args) -> apply op args
      | KConst c, _ when F.numel c = 1 -> push (Lit (F.to_scalar c))
      | _ -> (
          match Hashtbl.find_opt leaf_ix nid with
          | Some i -> push (Load i)
          | None ->
              let i = !n_leaves in
              incr n_leaves;
              Hashtbl.add leaf_ix nid i;
              leaves := operand_for ~out_shape nid :: !leaves;
              push (Load i))
    and apply op args =
      Array.iter walk args;
      incr n_ops;
      push (sop_of_op op)
    in
    (if as_value then walk root
     else
       match nodes.(root).Ir.expr with
       | Ir.Op (op, args) -> apply op args
       | _ -> assert false);
    let code = peephole (Array.of_list (List.rev !code)) in
    (code, Array.of_list (List.rev !leaves), !n_ops)
  in
  let emit_elementwise id =
    let out_shape = shape id in
    let code, leaves, n_ops = build_body ~out_shape ~root:id ~as_value:false in
    ops_fused := !ops_fused + n_ops - 1;
    let n = Shape.numel out_shape in
    let out = slot_of.(id) in
    let dense_or_cell (o : operand) =
      match o.acc with Dense | Cell -> true | Gather _ -> false
    in
    match code with
    | [| Load a; BinL (((SAdd | SSub | SMul | SDiv) as k), b) |]
      when dense_or_cell leaves.(a)
           && dense_or_cell leaves.(b)
           && (leaves.(a).acc = Dense || leaves.(b).acc = Dense) ->
        let kind =
          match k with SAdd -> BAdd | SSub -> BSub | SMul -> BMul | _ -> BDiv
        in
        emit (Bin { kind; out; a = leaves.(a); b = leaves.(b); n })
    | _ ->
        let lanes = lanes_for ~domains:opts.Opts.domains n in
        let strips = lane_strips ~lanes ~depth:(body_depth code) ~len:n in
        emit (Ew { out; n; code; leaves; strips })
  in
  let emit_permute ~out src perm =
    let ss = shape src in
    let s, o = storage src in
    if Array.length perm = 2 && perm.(0) = 1 && perm.(1) = 0 then
      emit (Transpose2 { out; src = s; sofs = o; rows = ss.(0); cols = ss.(1) })
    else
      emit
        (Copy
           {
             out;
             src = { src = s; ofs = o; acc = Gather (transpose_map ss perm) };
             n = numel src;
           })
  in
  let emit_contraction id op args =
    let a = args.(0) and b = args.(1) in
    let c = contraction_of op (shape a) (shape b) in
    let temps = ref (Array.to_list temp_slots.(id)) in
    let take () =
      match !temps with
      | t :: rest ->
          temps := rest;
          t
      | [] -> assert false
    in
    let materialize src = function
      | None -> storage src
      | Some perm ->
          let t = take () in
          emit_permute ~out:t src perm;
          (t, 0)
    in
    let sa, aofs = materialize a c.a_perm in
    let sb, bofs = materialize b c.b_perm in
    emit
      (Matmul
         {
           out = slot_of.(id);
           a = sa;
           aofs;
           b = sb;
           bofs;
           m = c.m;
           k = c.k;
           n = c.n;
         })
  in
  for id = 0 to n_nodes - 1 do
    if kind.(id) = KStep then
      match nodes.(id).Ir.expr with
      | Ir.Op (op, _) when Ir.is_elementwise op -> emit_elementwise id
      | Ir.Op (((Ast.Dot | Ast.Tensordot _) as op), args) ->
          emit_contraction id op args
      | Ir.Op ((Ast.Sum { axis; _ } | Ast.Max { axis; _ }) as op, args) ->
          (* keepdims only re-tags the output shape (the reduced layout is
             identical either way), so the loop structure ignores it. *)
          let a = args.(0) in
          let s = shape a in
          let outer, mid, inner =
            match axis with
            | None -> (1, Shape.numel s, 1)
            | Some ax ->
                let ax = Shape.normalize_axis s ax in
                let outer = ref 1 and inner = ref 1 in
                Array.iteri
                  (fun i d ->
                    if i < ax then outer := !outer * d
                    else if i > ax then inner := !inner * d)
                  s;
                (!outer, s.(ax), !inner)
          in
          let rkind = match op with Ast.Max _ -> `Max | _ -> `Sum in
          let total = outer * mid * inner in
          let scalar = outer = 1 && inner = 1 in
          let partials =
            if scalar then Array.make (blocks_of total) 0. else [||]
          in
          if kind.(a) = KInlined then begin
            (* The producer body is evaluated strip by strip over the
               *source* index space and drained straight into the
               accumulators: sum (f x) in one pass. *)
            let code, leaves, n_ops =
              build_body ~out_shape:(shape a) ~root:a ~as_value:true
            in
            ops_fused := !ops_fused + n_ops;
            let lanes =
              let domains = opts.Opts.domains in
              if scalar then
                min (lanes_for ~domains total) (Array.length partials)
              else if outer = 1 then 1 (* axis-0: strided drain, keep serial *)
              else min (lanes_for ~domains total) outer
            in
            let strips =
              lane_strips ~lanes ~depth:(body_depth code) ~len:total
            in
            emit
              (Reduce_fused
                 {
                   kind = rkind;
                   out = slot_of.(id);
                   outer;
                   mid;
                   inner;
                   code;
                   leaves;
                   strips;
                   partials;
                 })
          end
          else
            let sa, sofs = storage a in
            emit
              (Reduce
                 {
                   kind = rkind;
                   out = slot_of.(id);
                   src = sa;
                   sofs;
                   outer;
                   mid;
                   inner;
                   partials;
                 })
      | Ir.Op (Ast.Transpose p, args) ->
          let a = args.(0) in
          let perm = effective_perm (Shape.rank (shape a)) p in
          emit_permute ~out:slot_of.(id) a perm
      | Ir.Op (Ast.Stack axis, args) ->
          let parts = Array.length args in
          let es = shape args.(0) in
          let r = Shape.rank es in
          let axis = if axis < 0 then axis + r + 1 else axis in
          let outer = ref 1 and inner = ref 1 in
          Array.iteri
            (fun i d ->
              if i < axis then outer := !outer * d else inner := !inner * d)
            es;
          Array.iteri
            (fun j a ->
              let s, o = storage a in
              emit
                (Stack_part
                   {
                     out = slot_of.(id);
                     oofs = j * !inner;
                     src = s;
                     sofs = o;
                     outer = !outer;
                     inner = !inner;
                     stride = parts * !inner;
                   }))
            args
      | Ir.Op (((Ast.Triu | Ast.Tril) as op), args) ->
          let s = shape args.(0) in
          let sa, sofs = storage args.(0) in
          emit
            (Mask
               {
                 kind = (if op = Ast.Triu then `Upper else `Lower);
                 out = slot_of.(id);
                 src = sa;
                 sofs;
                 rows = s.(0);
                 cols = s.(1);
               })
      | Ir.Op (Ast.Diag, args) ->
          let s = shape args.(0) in
          let rows = s.(0) and cols = s.(1) in
          let sa, sofs = storage args.(0) in
          let map = Array.init (min rows cols) (fun i -> i * (cols + 1)) in
          emit
            (Copy
               {
                 out = slot_of.(id);
                 src = { src = sa; ofs = sofs; acc = Gather map };
                 n = min rows cols;
               })
      | Ir.Op (Ast.Trace, args) ->
          let s = shape args.(0) in
          let sa, sofs = storage args.(0) in
          emit
            (Trace_of
               { out = slot_of.(id); src = sa; sofs; rows = s.(0); cols = s.(1) })
      | Ir.Op (Ast.Full _, args) ->
          let sa, sofs = storage args.(0) in
          emit (Fill { out = slot_of.(id); src = sa; sofs; n = numel id })
      | Ir.Op (Ast.Reshape _, _) ->
          assert false (* aliases, classified above *)
      | Ir.Op _ -> assert false (* elementwise, matched by the guard *)
      | Ir.Input _ | Ir.Const _ | Ir.Slice0 _ -> assert false
  done;

  (* Materialize the arena.  Input slots hold empty placeholders — each
     run rebinds them to the caller's arrays, so they cost nothing here
     and are excluded from the arena accounting.  Constants are written
     once, now. *)
  let input_slot = Array.make (Array.length sizes) false in
  for id = 0 to n_nodes - 1 do
    if kind.(id) = KInput then input_slot.(slot_of.(id)) <- true
  done;
  let slots =
    Array.mapi
      (fun s size -> if input_slot.(s) then [||] else Array.make size 0.)
      sizes
  in
  for id = 0 to n_nodes - 1 do
    match kind.(id) with
    | KConst c ->
        Array.blit (F.unsafe_data c) 0 slots.(slot_of.(id)) 0 (numel id)
    | _ -> ()
  done;
  let inputs =
    List.filter_map Fun.id
      (List.init n_nodes (fun id ->
           match (kind.(id), nodes.(id).Ir.expr) with
           | KInput, Ir.Input name -> Some (name, slot_of.(id), numel id)
           | _ -> None))
  in
  let steps = Array.of_list (List.rev !steps) in
  let arena_bytes = ref 0 in
  Array.iteri
    (fun s size ->
      if not input_slot.(s) then arena_bytes := !arena_bytes + (8 * size))
    sizes;
  let arena_bytes = !arena_bytes in
  let parallel_strips =
    Array.fold_left
      (fun acc s -> if step_lanes opts s > 1 then acc + 1 else acc)
      0 steps
  in
  {
    steps;
    slots;
    inputs;
    result_slot = slot_of.(ir.Ir.result);
    result_ofs = ofs_of.(ir.Ir.result);
    result_shape = shape ir.Ir.result;
    env = ir.Ir.env;
    opts;
    stats =
      {
        ir_nodes = n_nodes;
        steps = Array.length steps;
        ops_fused = !ops_fused;
        consts_folded = ir.Ir.folded;
        buffers_reused = !reused;
        arena_slots = Array.length sizes;
        arena_bytes;
        parallel_strips;
      };
    busy = Atomic.make false;
  }

(* Every step writes its output and scratch before reading them, so a
   copy only needs the sizes: its contents never matter (constants are
   never written, so copying them while a run is under way is safe). *)
let copy p =
  let strips = Array.map (Array.map Array.copy) in
  let step = function
    | Ew e -> Ew { e with strips = strips e.strips }
    | Reduce r -> Reduce { r with partials = Array.copy r.partials }
    | Reduce_fused rf ->
        Reduce_fused
          {
            rf with
            strips = strips rf.strips;
            partials = Array.copy rf.partials;
          }
    | s -> s
  in
  let slots = Array.map Array.copy p.slots in
  { p with slots; steps = Array.map step p.steps }
