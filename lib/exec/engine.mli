(** Compiled execution of DSL programs (exported as [Stenso.Exec]).

    The lowering pipeline turns a {!Dsl.Ast.t} into an SSA tensor IR,
    plans it — fusing elementwise chains into single loop nests and
    elementwise producers into their reduction consumers, folding
    constant subtrees, aliasing [reshape]/slice views, and
    preallocating an arena of flat unboxed [float array] buffers with
    liveness-driven reuse — and executes it on a bytecode VM whose
    inner loops are specialized for the hot operations: binary
    arithmetic, fused bodies run as a vectorized strip machine,
    reductions with dedicated scalar/row/column kernels,
    [dot]/[tensordot] as cache-blocked row-major matrix multiplies,
    tiled rank-2 [transpose], [where].  Steps over enough data fan out
    across a process-wide domain pool; lane partitioning is chosen so
    results are bitwise identical for every {!Options.domains} value.

    The VM is the one execution path: the measured cost model times it
    and concrete validation runs candidates on it.  The tree-walking
    {!Dsl.Interp} is the reference it is checked against — by
    [Stenso.Superopt.differential], the differential fuzz suite and the
    [stenso bench vm] comparison — not a backend to select.

    The VM's settings travel through one {!Options} record — there are
    no loose optional arguments on {!compile}. *)

(** VM settings: domain lanes and the telemetry sink.  Built with
    [Options.default |> Options.with_*] in the same style as
    [Stenso.Config]. *)
module Options : sig
  include module type of Opts with type t = Opts.t
end

type compiled
(** A planned program with its preallocated arena and scratch.
    {!run} is safe to call concurrently from any number of domains: a
    run that overlaps another works on a private copy of the arena. *)

type stats = {
  ir_nodes : int;  (** IR nodes after CSE, unrolling and folding *)
  steps : int;  (** VM steps emitted *)
  ops_fused : int;
      (** operation nodes absorbed into fused loops, including
          elementwise producers inlined into reduction loops *)
  consts_folded : int;  (** operation nodes evaluated at compile time *)
  buffers_reused : int;  (** arena slots serving more than one value *)
  arena_slots : int;
  arena_bytes : int;  (** total = peak: the arena is preallocated *)
  parallel_strips : int;  (** steps planned for more than one lane *)
}

val compile :
  ?options:Options.t -> env:Dsl.Types.env -> Dsl.Ast.t -> compiled
(** Lower, plan and materialize the arena under [options]
    (default {!Options.default}).  [Options.telemetry] records the
    [exec.compiles] / [exec.ops_fused] / [exec.buffers_reused] /
    [exec.consts_folded] / [exec.parallel_strips] counters, the
    [exec.arena_bytes] gauge and one [exec.compile] event per
    compilation.  Raises {!Dsl.Types.Type_error} on ill-typed programs
    (including zero-trip comprehensions, which cannot be unrolled). *)

val run : compiled -> (string -> Tensor.Ftensor.t) -> Tensor.Ftensor.t
(** Execute.  Steady-state allocation-free: input slots are rebound to
    the caller's arrays (zero-copy), steps run in place over the arena
    and per-lane scratch, only the final read-out allocates.  Raises
    [Invalid_argument] when an input's element count disagrees with the
    compilation environment. *)

val stats : compiled -> stats

val options : compiled -> Options.t
(** The options the program was planned under. *)
