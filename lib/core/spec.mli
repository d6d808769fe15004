(** Specification tensors and the simplification metric.

    A specification is a symbolic tensor [Φ] (the result of symbolically
    executing a program).  The synthesis search manipulates specs:
    computing their complexity (Section V-A of the paper), hashing them
    for memoization and deduplication, and collapsing broadcastable
    uniformity (a residual tensor whose elements are all [4] is better
    synthesized as the scalar constant [4]). *)

type t = Dsl.Sexec.Stensor.t

val shape : t -> Tensor.Shape.t
val equal : t -> t -> bool

val key : t -> string
(** Canonical rendering; equal specs have equal keys.  This is the
    persistent identity — outcome-store keys and rules-database digests
    are built from it, so its bytes must not change across versions.
    Every call renders the spec afresh — O(numel * |expr|) — and counts
    one build.  In-process identity (memo tables, deduplication) uses
    {!hash} and {!Tbl} instead. *)

val hash : t -> int
(** Structural hash of the shape and every element ({!Symbolic.Expr.hash}),
    consistent with {!equal}.  Not counted as a build: the figures below
    cover rendered {!key}s only. *)

(** Hash tables keyed by spec value ({!hash} with {!equal}). *)
module Tbl : Hashtbl.S with type key = t

val key_stats : unit -> int * int * float
(** [(builds, 0, build_seconds)] — process-wide totals of {!key}
    renders since start.  Keys are not cached, so the
    middle (hit-count) slot always reads 0; it stays for callers of the
    three-slot shape.  For per-run attribution (what the telemetry layer
    reports) use an ambient {!key_counters} cell instead: concurrent
    runs each read their own cell, not each other's work. *)

(** {2 Per-run key-build attribution} *)

type key_counters
(** An attribution cell: atomic, shareable across the domains of one
    search. *)

val fresh_counters : unit -> key_counters

val counters_stats : key_counters -> int * float
(** [(builds, build_seconds)] recorded into this cell. *)

val with_counters : key_counters -> (unit -> 'a) -> 'a
(** Run [f] with [c] installed as the calling domain's ambient cell
    (restored afterwards): every {!key} build inside is
    credited to [c] in addition to the process-wide totals.  The cell is
    domain-local — code that fans work out to other domains re-installs
    it in each worker (the search engine does). *)

val complexity : t -> float
(** [|var(Φ)| * density(Φ)] — mean per-element distinct-symbol count
    times the fraction of nonzero elements (Section V-A). *)

val collapse : t -> t
(** Shrink axes along which all slices are identical to size 1 and drop
    leading unit axes.  The result broadcasts back to the original
    shape, so it is interchangeable in elementwise positions. *)

val is_uniform : t -> Symbolic.Expr.t option
(** [Some e] when every element equals [e]. *)

val to_const : t -> Symbolic.Q.t option
(** [Some q] when every element is the rational constant [q]. *)

val scalar : Symbolic.Expr.t -> t

val pp : Format.formatter -> t -> unit
