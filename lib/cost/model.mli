(** Cost estimation for DSL programs (paper Sections V-B and VI-C).

    Two estimators guide the branch-and-bound search:

    - {!flops}: the theoretical FLOP count in the style of JAX's cost
      analysis — every elementwise operation costs one FLOP per output
      element regardless of which operation it is.
    - {!measured}: an empirical model built by timing each operation on
      random inputs of representative shapes, memoized in a lookup
      table.  Unlike the FLOPs model it distinguishes FLOP-equivalent
      programs (e.g. [power(A,2)] vs [A*A]) and charges data movement
      for layout operations such as [transpose], enabling the more
      effective pruning the paper reports.

    Costs are abstract nonnegative units; only comparisons matter. *)

type t = {
  name : string;
  op_cost : Dsl.Ast.op -> Dsl.Types.vt list -> float;
      (** Cost of one application; raises [Dsl.Types.Type_error] when the
          operation does not apply to the argument types. *)
  iter_scale : int;
      (** How much data-dependent loop trip counts grow at the
          representative shapes the op costs correspond to: 1 for the
          FLOPs model, the shape-scaling factor for the measured model.
          Without it a Python-level comprehension would be charged its
          synthesis-time trip count against representative-size
          broadcast alternatives. *)
}

val flops : t

val roofline : t
(** Deterministic analytic estimator: per-op dispatch overhead plus a
    roofline of weighted arithmetic (transcendentals and [power] cost
    many machine ops per element) against memory traffic.  Sits between
    {!flops} (blind to op kind and data movement) and {!measured}
    (accurate but profiling-noise-dependent); useful when reproducible
    search outcomes matter more than platform fidelity. *)

val measured :
  ?tel:Obs.Telemetry.t ->
  ?exec_options:Texec.Engine.Options.t ->
  ?scale:int ->
  ?min_time:float ->
  ?overhead:float ->
  ?cache_file:string ->
  unit ->
  t
(** Profiling-based model (model name ["measured"]).  Each timed
    operation runs on the compiled VM: its single-op program is
    compiled once per fingerprint under [exec_options] (default
    [Options.default]), whose fingerprint prefixes the table keys, and
    only its run loop is timed, so the table reflects steady-state
    kernel time (pool worker domains are spawned by a warm-up run
    before the first timing window, never inside one).  Each measurement is the median of three timing windows
    ({!min_window} with [min_time], default 1e-3), and the sample standard deviation across
    windows is recorded per fingerprint in the cache and in the
    [cost.profile] telemetry event.  [scale] multiplies every tensor
    dimension (and shape attribute) before timing so that small
    synthesis-time shapes are measured at representative sizes (default
    12).  [overhead] (default 0.5 microseconds) is added per operation,
    modelling the eager framework's per-op dispatch cost — this is what
    makes replacing a Python-level loop by one broadcast operation
    profitable, as in the paper's Vectorization class.  Measurements are
    memoized per (exec options, operation, shapes) in an
    internal table,
    mirroring the paper's one-time offline profiling phase; with
    [cache_file] the table persists across processes
    ("key<TAB>seconds<TAB>stddev" lines; older two-column files still
    load), amortizing the profiling cost as Section VII-E describes.
    [tel] counts table hits and misses ([cost.cache_hits] /
    [cost.cache_misses]) and accumulates profiling wall time
    ([cost.profile_seconds]). *)

val min_window : min_time:float -> (unit -> unit) -> float
(** [min_window ~min_time f] runs [f] in doubling batches (1, 2, 4, ...)
    until [min_time] seconds of wall clock have elapsed and returns the
    minimum per-call mean over the batches, in seconds: the timing
    window {!measured} profiles each operation with.  It does not warm
    up; run [f] once first. *)

val flop_count : Dsl.Ast.op -> Dsl.Types.vt list -> float
(** The raw FLOP count used by {!flops}. *)

val bytes_moved : Dsl.Ast.op -> Dsl.Types.vt list -> float
(** Memory traffic in bytes (reads + writes, 8-byte elements) — used by
    the roofline timing model of the framework simulators. *)

val program_cost : t -> Dsl.Types.env -> Dsl.Ast.t -> float
(** Total cost of a program: the sum over all operation nodes, with
    comprehension bodies charged once per iteration. *)
