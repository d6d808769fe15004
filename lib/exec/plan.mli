(** Planning: from {!Ir} to an executable program over a preallocated
    arena.

    The planner makes every decision that would otherwise cost time or
    allocation at run time: elementwise fusion into postfix strip
    bodies (including inlining producers into their [sum]/[max]
    consumer), a superinstruction peephole ({!BinC}/{!BinL}, with a
    literal first operand of a commutative opcode walked second), view
    aliasing, liveness-driven arena slot reuse, precomputed gather
    maps, and a static lane count per step ({!step_lanes}) with
    per-lane scratch preallocated so parallel execution stays
    allocation-free.  Lane partitioning is chosen so
    results are bitwise identical for every domain count.

    Private to [texec]: the library exports only {!Engine}.  The
    constructors below are the whole contract between the planner and
    the VM. *)

type buf = float array
(** Same storage as [Ftensor]: input slots are rebound to the caller's
    arrays on each run. *)

(** Postfix scalar bytecode for fused loop bodies, executed by the VM
    as a vectorized strip machine. *)
type sbin = SAdd | SSub | SMul | SDiv | SPow | SMax | SLess

type sop =
  | Load of int  (** push the current element of leaf operand i *)
  | Lit of float
  | Bin2 of sbin  (** pop y, pop x, push (x OP y) *)
  | BinC of sbin * float  (** top := top OP literal, in place *)
  | BinL of sbin * int  (** top := top OP leaf i, read directly *)
  | Sqrt1
  | Exp1
  | Log1
  | Where3

(** How a leaf operand is indexed relative to the loop's output index. *)
type access =
  | Dense  (** same shape as the output: the output's linear index *)
  | Cell  (** one-element operand: always element 0 *)
  | Gather of int array  (** precomputed output index -> source index *)

type operand = { src : int; ofs : int; acc : access }

type step =
  | Bin of { kind : sbin; out : int; a : operand; b : operand; n : int }
      (** specialized binary arithmetic ([SAdd], [SSub], [SMul], [SDiv])
          over dense/scalar operands: at least one operand is [Dense],
          neither is [Gather] *)
  | Ew of {
      out : int;
      n : int;
      code : sop array;
      leaves : operand array;
      strips : float array array array;
          (** scratch: lane -> stack level -> strip *)
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
          (** full (scalar) reductions only: fixed-size-block partial
              accumulators, block count independent of the lane count *)
    }  (** source viewed as outer x mid x inner; [mid] is reduced *)
  | Reduce_fused of {
      kind : [ `Sum | `Max ];
      out : int;
      outer : int;
      mid : int;
      inner : int;
      code : sop array;  (** producer body, evaluated per source strip *)
      leaves : operand array;  (** indexed in the {e source} space *)
      strips : float array array array;  (** lane -> level -> strip *)
      partials : float array;  (** as in {!Reduce} *)
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
      pack : float array array;
          (** scratch: lane -> one k x 4 panel of b, packed row by row, or
              empty where the lane reads b in place (n < 4, or at most
              one row pair per lane) *)
    }  (** out[m,n] = a[m,k] . b[k,n], all row-major *)
  | Transpose2 of {
      out : int;
      src : int;
      sofs : int;
      rows : int;
      cols : int;
    }  (** out[c,r] = src[r,c]: rank-2 transpose as a tiled kernel *)
  | Copy of { out : int; src : operand; n : int }
  | Stack_part of {
      out : int;
      oofs : int;
      src : int;
      sofs : int;
      outer : int;
      inner : int;
      stride : int;
    }  (** one stacked operand: outer blocks of [inner], strided out *)
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
  ops_fused : int;  (** operation nodes absorbed into fused loops *)
  consts_folded : int;
  buffers_reused : int;
  arena_slots : int;
  arena_bytes : int;
  parallel_strips : int;  (** steps planned for more than one lane *)
}

type t = {
  steps : step array;
  slots : buf array;
  inputs : (string * int * int) list;  (** name, slot, element count *)
  result_slot : int;
  result_ofs : int;
  result_shape : Tensor.Shape.t;
  env : Dsl.Types.env;
  opts : Opts.t;
  stats : stats;
  busy : bool Atomic.t;  (** set while a run owns [slots] and the scratch *)
}

val red_block : int
(** Source elements per partial block of a full reduction: a function
    of the problem size only, so every lane count combines the same
    blocks in the same ascending order. *)

val step_lanes : Opts.t -> step -> int
(** Lanes a step runs on (1 = sequential).  The planner sizes per-lane
    scratch with it and the VM partitions ranges with it; for
    [Ew]/[Reduce_fused]/[Matmul] the preallocated scratch is
    authoritative. *)

val compile : opts:Opts.t -> Ir.t -> t

val copy : t -> t
(** The same program over a fresh arena and scratch, for a run that
    overlaps the one owning [p]'s. *)
