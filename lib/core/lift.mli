(** Lifting front-end: synthesize a tensor-DSL program equivalent to a
    scalar loop-nest kernel, then superoptimize it.

    The loop language (AST, parser with positioned diagnostics, and a
    reference interpreter generic over the element domain) lives in
    [lib/lift] and is re-exported here as {!Loop_ast}, {!Loop_parser},
    {!Loop_interp} — the same layering as [Exec] over [Texec].

    Lifting is sketch-guided search in the style of Guided Tensor
    Lifting, made tractable by TF-Coder-style value pruning
    (PAPERS.md): the kernel runs on sampled inputs to produce a
    behavioral signature; shape/rank analysis of the loop nest proposes
    sketches (a bare library hole, reduce-of-reshape pooling patterns,
    binary-operator skeletons); holes are filled from the {!Stub}
    library enumerated over the kernel's input environment; candidates
    whose concrete outputs mismatch the signature are pruned before any
    symbolic work.  A surviving candidate is accepted only when {e
    certified}: the kernel's symbolic specification (the loop
    interpreter run over {!Symbolic.Expr} scalars) equals the
    candidate's, and a differential check against the execution engine
    agrees on fresh draws.

    Telemetry: [lift.sketches] and [lift.pruned_by_value] counters, a
    [lift.verify_ms] accumulator, and [lift.done] / [lift.failed]
    events per kernel. *)

module Loop_ast = Tlift.Loop_ast
module Loop_parser = Tlift.Loop_parser
module Loop_interp = Tlift.Loop_interp

type stats = {
  sketches : int;  (** sketch templates proposed by loop analysis *)
  pruned_by_value : int;  (** candidates rejected by the value check *)
  certified : int;  (** value matches submitted to certification *)
  library_size : int;
  lift_s : float;  (** end-to-end lifting wall time *)
  verify_s : float;  (** time inside symbolic + differential checks *)
}

type lifted = {
  kernel : Loop_ast.kernel;
  env : Dsl.Types.env;  (** the [in] parameters as DSL inputs *)
  prog : Dsl.Ast.t;  (** the certified lifted program *)
  stats : stats;
}

type error =
  | Unsupported of string
      (** Semantic error from the reference interpreter: the kernel is
          outside the liftable fragment. *)
  | Not_lifted of stats
      (** The sketch space was exhausted without a certified lift (a
          [lift.failed] event records the counters). *)

val error_message : error -> string

val error_stats : error -> stats
(** The counters of a failed lift: all zero for [Unsupported]. *)

(** {!Stub.default_config} with [full_binary] on: lifted programs are
    matched whole against the library rather than recursively
    decomposed, so the atom-operand redundancy cut does not apply. *)

val lift :
  ?tel:Obs.Telemetry.t ->
  ?config:Config.t ->
  ?stub_cache:Stub.Cache.cache ->
  ?samples:int ->
  ?seed:int ->
  Loop_ast.kernel ->
  (lifted, error) result
(** Lift one kernel.  [samples] (default 3) input draws from the suite
    generator's distribution form the value signature; [seed] makes
    the draw deterministic.  [stub_cache] shares enumerated libraries
    across lifts of kernels with equal input environments; the value
    tables derived from them are keyed by library {e and} sampled-input
    fingerprint ({!Stub.Values}), so different draws never collide. *)

val optimize :
  ?tel:Obs.Telemetry.t ->
  ?config:Config.t ->
  ?store:Store.t ->
  ?stub_cache:Stub.Cache.cache ->
  ?samples:int ->
  ?seed:int ->
  Loop_ast.kernel ->
  (lifted * Superopt.outcome, error) result
(** {!lift}, then hand the certified program to {!Superopt.optimize}
    (store-first, tiered) — the result is both lifted and
    superoptimized. *)
