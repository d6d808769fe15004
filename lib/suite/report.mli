(** The archived report schemas, in one table.

    Every [BENCH_*.json] trajectory point is a JSON document tagged by
    its ["schema"] field.  This module owns each schema's field spec
    (the kind of every field, nested objects and arrays included; fields
    added after a schema froze stay optional), its invariants (count
    agreement, percentile monotonicity, …), the gate it accepts and its
    one-line summary.  Writers take their tag from here; [stenso report],
    the writers' self-checks and the tests all go through {!validate}. *)

val suite_report : string
(** ["stenso.suite-report/1"]: {!Driver.report}, [stenso suite --report]. *)

val exec_bench : string
(** ["stenso.exec-bench/1"]: the interp-vs-VM microbenchmark archive
    written by [bench vm --report].  Accepts [min_speedup]: every
    benchmark's VM speedup must reach the floor.  Benchmarks flagged
    [expects_fused_reduction] must have [ops_fused] > 0 regardless. *)

val tiers : string
(** ["stenso.tiers/1"]: {!Driver.tiers_report},
    [stenso suite --tiers-report]. *)

val mlsuite : string
(** ["stenso.mlsuite/1"]: {!Driver.mlsuite_report}, one embedded
    [stenso.exec-bench/1] and one [stenso.tiers/1] document, each
    validated against its own schema.  Accepts [min_speedup], applied
    to the exec document. *)

val serve_load : string
(** ["stenso.serve-load/1"]: {!Driver.serve_load_report},
    [stenso loadgen --report].  [n_requests] = ok + busy + protocol
    errors, per-tier sample counts sum to [n_ok], and percentiles are
    monotone (p50 ≤ p95 ≤ p99), overall and per tier. *)

val lift : string
(** ["stenso.lift/1"]: {!Driver.lift_report}, [stenso lift --report].
    [n_lifted] and [success_rate] agree with the kernels array, lifted
    entries carry a certified program and failed ones none.  Accepts
    [min_success]: a floor on [success_rate]. *)

val validate :
  ?min_speedup:float ->
  ?min_success:float ->
  Stenso.Telemetry.Json.t ->
  (string * string, string) result
(** Dispatch on the document's ["schema"] field and check its fields,
    invariants and the requested gate.  [Ok (schema, summary)] carries
    the one-line summary that [stenso report] prints (the gate's floor
    included).  An unknown schema, a gate the schema does not accept
    and a non-conforming document are errors. *)
