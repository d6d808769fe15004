(** Suite-scale superoptimization: run many benchmarks concurrently on a
    bounded pool of domains.

    Each benchmark is synthesized by a single-domain search (so [jobs]
    bounds the process's total concurrency) that honours the configured
    per-benchmark timeout internally — a timing-out benchmark only
    occupies its own worker and cannot stall the rest of the run.
    Results come back in benchmark order and, for a deterministic
    estimator such as [`Flops], are byte-identical for any [jobs].

    With [trace] each benchmark records into its own telemetry sink, and
    {!report} renders the whole run as a schema-stable JSON document
    ([stenso.suite-report/1]) — the format the repository's
    [BENCH_*.json] performance trajectory is archived in.  The writers
    here take their schema tags from {!Report}, which owns every
    archived schema's fields, invariants, gates and summary line;
    validate their output with {!Report.validate}. *)

type bench_result = {
  bench : Benchmarks.t;
  outcome : Stenso.Superopt.outcome;
  elapsed : float;  (** wall-clock seconds for this benchmark *)
  tel : Stenso.Telemetry.t;
      (** this benchmark's telemetry sink; {!Stenso.Telemetry.null}
          unless the run was traced *)
}

type t = {
  results : bench_result list;  (** in input benchmark order *)
  elapsed : float;  (** wall clock for the whole run *)
}

val run :
  ?config:Stenso.Config.t ->
  ?model:Cost.Model.t ->
  ?store:Stenso.Store.t ->
  ?jobs:int ->
  ?trace:bool ->
  ?on_result:(bench_result -> unit) ->
  Benchmarks.t list ->
  t
(** [run benches] superoptimizes every benchmark at its synthesis
    shapes.  [jobs] (default 1) sizes the benchmark pool; the search
    config's own [jobs] field is overridden to 1 inside the pool.
    [model] defaults to [Config.model config] built once and shared —
    the measured estimator's profiling table is domain-safe.  [store]
    serves benchmarks cache-first from the persistent synthesis store
    and records fresh outcomes into it ({!Stenso.Superopt.optimize}).
    Benchmarks sharing an input environment share one enumerated stub
    library per run regardless.  [trace] (default false) gives each
    benchmark a fresh recording sink (search counters, phase spans,
    bound trajectory) on its result.  [on_result] is invoked as each
    benchmark finishes (serialized by a mutex; ordering follows
    completion, not input order). *)

val run_tiers :
  ?on_pass:(string -> unit) ->
  config:Stenso.Config.t ->
  store:Stenso.Store.t ->
  Benchmarks.t list ->
  t * t * t
(** [run_tiers ~config ~store benches] is the three-pass tiered-serving
    comparison {!tiers_report} renders, as [(baseline, cold, warm)]:
    a full search with tier 2 off and no store, then two tiered passes
    under [config] against [store], whose mined rule database must
    already be in place — cold (empty outcome store) and warm (the same
    requests again, now also hitting the outcome store).  [on_pass] is
    called with each pass's name before it starts.  Every pass runs
    [Stenso.Config.jobs config] benchmarks at a time under the model
    [config] selects. *)

val report : ?config:Stenso.Config.t -> t -> Stenso.Telemetry.Json.t
(** Render a run as the suite-report document: run metadata (schema,
    estimator, jobs, timeout, wall clock) and one record per benchmark —
    name, source, class, costs before/after, speedup, synthesis time,
    both programs, the search statistics, and the branch-and-bound bound
    trajectory ([(seconds, bound)] pairs; empty when the run was not
    traced).  [config] supplies the metadata and should be the one the
    run used. *)

val tiers_report :
  ?config:Stenso.Config.t -> baseline:t -> cold:t -> warm:t -> unit ->
  Stenso.Telemetry.Json.t
(** Render a tiered-serving comparison over three runs of the {e same}
    benchmarks: [baseline] (full search, no store), [cold] (tiered
    against a pre-mined rule database with an empty outcome store) and
    [warm] (the same requests again, now also hitting the outcome
    store).  Reports per-pass tier counts, the fraction of requests
    answered without entering the search ([tier12_fraction]),
    end-to-end speedups over the baseline, and — honesty check — the
    number of benchmarks whose cold-pass final cost differs from the
    baseline's ([n_cost_mismatches]). *)

val mlsuite_report :
  exec:Stenso.Telemetry.Json.t ->
  tiers:Stenso.Telemetry.Json.t ->
  unit ->
  Stenso.Telemetry.Json.t
(** Compose the two archived points into one [stenso.mlsuite/1]
    document: the ML-kernel workload archive written by
    [stenso bench mlsuite --report] ([BENCH_mlsuite.json]).  The
    components must already conform to their own schemas. *)

val classify_serve_response : string -> int
(** Map one [stenso.serve/1] response line to the load generator's
    integer response class: successful responses encode
    [tier + 10·coalesced + 20·refined] (tiers 1–3), a shed response is
    its own class, and anything unparseable — or [ok:false] for any
    other reason — counts as a protocol error.  Pass as the [classify]
    callback of {!Stenso.Net.Loadgen.run}. *)

val serve_load_report :
  ?config:Stenso.Config.t ->
  endpoints:string list ->
  concurrency:int ->
  duration:float ->
  benchmarks:string list ->
  Stenso.Net.Loadgen.stats ->
  Stenso.Telemetry.Json.t
(** Render one load-generation run as the serve-load document: run
    parameters (endpoints, concurrency, requested duration, programs
    replayed), totals (requests, ok / busy / protocol-error / transport
    splits, coalesced and refined counts, ok-throughput in requests per
    second) and nearest-rank latency percentiles — overall and split by
    serving tier. *)

type lift_entry = {
  lift_name : string;  (** kernel name ({!Lifted} / CLI file stem) *)
  lifted : bool;
  lifted_program : string;  (** certified DSL program; [""] on failure *)
  optimized_program : string;  (** after {!Stenso.Superopt.optimize} *)
  lift_improved : bool;  (** superoptimizer found a cheaper form *)
  lift_stats : Stenso.Lift.stats;
  lift_speedup : float option;
      (** large-shape scalar-loop-interpreter time over VM time for the
          lifted-and-optimized program; absent when not measured *)
}

val lift_entry_of :
  ?speedup:float ->
  string ->
  (Stenso.Lift.lifted * Stenso.Superopt.outcome, Stenso.Lift.error) result ->
  lift_entry
(** [lift_entry_of name r] is the entry for kernel [name] given the
    result of {!Stenso.Lift.optimize}; a failed lift carries
    {!Stenso.Lift.error_stats}. *)

val lift_report :
  ?config:Stenso.Config.t ->
  elapsed:float ->
  lift_entry list ->
  Stenso.Telemetry.Json.t
(** Render lifting results as the [stenso.lift/1] document: run
    metadata, [n_kernels] / [n_lifted] / [success_rate], and one
    record per kernel (sketch, pruning and certification counters,
    lift and verify times, optional end-to-end speedup). *)
