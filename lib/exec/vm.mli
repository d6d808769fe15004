(** The bytecode VM: executes a planned program over its preallocated
    arena, allocation-free in steady state.

    Steps whose {!Plan.step_lanes} exceeds 1 fan out over the
    process-wide domain pool; partitioning is chosen so results are
    bitwise identical for every lane count (disjoint writes for
    elementwise/tiled/copy steps, per-output ascending chains for axis
    reductions, fixed-size ascending-combined blocks for full
    reductions).  Accumulation orders otherwise match the reference
    interpreter, except full [sum] reductions, which use interleaved
    accumulator chains whose grouping differs by ordinary rounding
    noise.

    Concurrent runs of one program are safe: a run that overlaps another
    works on a {!Plan.copy} of the arena and per-lane scratch.

    Private to [texec]: the library exports only {!Engine}. *)

val run : Plan.t -> (string -> Tensor.Ftensor.t) -> Tensor.Ftensor.t
(** Rebind input slots to the caller's arrays (zero-copy), execute the
    step sequence, and read out the result tensor (the only steady-state
    allocation).  Raises [Invalid_argument] when an input's element
    count disagrees with the compilation environment. *)
