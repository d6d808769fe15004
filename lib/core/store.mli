(** The persistent synthesis store ([stenso.store/1]).

    Superoptimization outcomes are correct by construction and fully
    determined by (specification, configuration, cost model), which
    makes them ideal cache entries: a spec solved once never re-enters
    the search.  This module layers the outcome record — optimized and
    original program text (rendered by {!Dsl.Parser.unparse}, so cached
    and fresh runs are byte-identical), costs, search statistics, and
    the build {!Version} — over the generic content-addressed store
    ({!Pstore}: [~/.cache/stenso] by default, in-memory LRU front,
    atomic write-rename persistence, corruption-tolerant loads, and
    [store.*] telemetry counters).

    Keys compose the canonical spec rendering ({!Spec.key}), the stub
    enumeration fingerprint ({!Stub.fingerprint} — environment, consts,
    grammar switches), the configuration fingerprint
    ({!Config.fingerprint}) and the cost-model id; see {!outcome_key}.
    {!Superopt.optimize} consults the store before searching and records
    after; the suite driver and the serve daemon share the same path. *)

include module type of struct
  include Pstore
end

val schema : string
(** ["stenso.store/1"]. *)

val outcome_key :
  spec_key:string ->
  stub_fp:string ->
  config_fp:string ->
  model_id:string ->
  string
(** The full store key for one synthesis request.  Two requests with
    equal keys are guaranteed the same deterministic answer (for the
    [measured] estimator: the same answer up to profiling noise, which
    the cache deliberately freezes). *)

type outcome_entry = {
  version : string;  (** build that produced the entry *)
  original : string;  (** full program source, {!Dsl.Parser.unparse} *)
  optimized : string;
  improved : bool;
  original_cost : float;
  optimized_cost : float;
  stats : Search.stats;  (** statistics of the search that ran *)
  refined : bool;
      (** finalized by a full tier-3 search — either served by one, or
          upgraded by background refinement; entries written by older
          builds decode as unrefined *)
}

val stats_json : Search.stats -> Obs.Telemetry.Json.t
(** The one JSON encoding of {!Search.stats}: the [search] object of
    store entries and of suite reports. *)

val find_outcome : t -> key:string -> outcome_entry option
(** Decode the stored outcome for this key.  An entry whose envelope is
    readable but whose payload no longer decodes is invalidated (deleted
    and counted corrupt) and reported as a miss. *)

val record_outcome : t -> key:string -> outcome_entry -> unit
