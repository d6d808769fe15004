(** Builder-style configuration for the whole superoptimizer.

    [Config.t] wraps the nested {!Search.config} / {!Stub.config}
    records (which remain the implementation: read
    them through {!search_config}, set any field without a builder
    through the [search] field) together with the cost-estimator
    choice, so call sites read as a pipeline:

    {[
      let config =
        Config.default
        |> Config.with_timeout 60.
        |> Config.with_jobs 8
        |> Config.with_estimator `Flops
      in
      Superopt.optimize ~config ~env prog
    ]} *)

type estimator = [ `Flops | `Roofline | `Measured ]

type t = {
  search : Search.config;
      (** the legacy nested records — the implementation *)
  estimator : estimator;
  cost_cache : string option;
      (** persists the measured estimator's profiling table *)
  exec : Texec.Engine.Options.t;
      (** VM settings for every compiled execution reached through this
          configuration — the measured estimator's timing runs and
          concrete validation (default [Exec.Options.default]) *)
  rules_depth : int option;
      (** enables the tiered fast path of {!Superopt.optimize}: consult
          the mined rule database for this depth (its optima table +
          e-graph saturation with its rules) before entering the full
          search.  [None]
          (the default) preserves the classic two-step store-then-search
          behaviour. *)
}

val default : t
(** {!Search.default_config} with the [`Measured] estimator. *)

(** {2 Builders} — each takes the configuration last, for [|>]. *)

val with_timeout : float -> t -> t
val with_jobs : int -> t -> t
(** Sets both the search's root-level fan-out and the stub enumeration
    pool. *)

val with_estimator : estimator -> t -> t

val with_rules_depth : int -> t -> t
(** Enable the tiered fast path against the depth-[d] mined rule
    database ({!Rules_db}); [d <= 0] disables it again. *)

val with_cost_cache : string -> t -> t
val with_exec_options : Texec.Engine.Options.t -> t -> t
val with_bnb : bool -> t -> t
val with_simplification : bool -> t -> t
val with_extended_ops : bool -> t -> t
val with_max_depth : int -> t -> t
val with_node_budget : int -> t -> t

(** {2 Accessors} *)

val search_config : t -> Search.config
val rules_depth : t -> int option
val jobs : t -> int
val timeout : t -> float
val estimator : t -> estimator
val exec_options : t -> Texec.Engine.Options.t

val model : ?tel:Obs.Telemetry.t -> t -> Cost.Model.t
(** Instantiate the configured cost estimator.  A fresh model each call:
    the measured estimator starts with an empty profiling table (seeded
    from [cost_cache] when set), so hoist the result when optimizing
    many programs.  [tel] feeds the measured estimator's profiling-cache
    counters ([cost.cache_hits] / [cost.cache_misses]) and wall-time
    accumulator ([cost.profile_seconds]). *)

val fingerprint : t -> string
(** Canonical rendering of every field that determines a synthesis
    result: estimator id, pruning switches, budgets, depths, the
    nested stub parameters, and the executor's constants ([eng=vm],
    [exec[fus=true,red=true,tile=64]]), kept as literals so stored
    keys keep their bytes.  [jobs] and the exec [domains] count are
    excluded (results are independent of them by construction), as is
    the [cost_cache] path.
    Together with the spec key, a {!Stub.fingerprint} and the cost-model
    id, this keys the persistent outcome store. *)

val estimator_of_string : string -> (estimator, string) result
(** ["flops"], ["roofline"], or ["measured"]. *)

val estimator_name : estimator -> string
