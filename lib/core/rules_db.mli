(** The mined rewrite-rule database ([stenso.rules/1]).

    [stenso mine] batch-superoptimizes the bounded stub space offline:
    every semantic duplicate the enumeration deduplicates away is a
    rewrite proven equivalent by construction (duplicate ⇒ cheapest
    representative), generalized into a {!Rules.t} and recorded here,
    together with an {e optima table} mapping each enumerated symbolic
    value (by spec-key digest) to the cheapest known program computing
    it.  {!Superopt.optimize}'s tier 2 consults the optima table and
    saturates an e-graph with these rules instead of entering the
    branch-and-bound search; improvements that tier 3 does
    discover are fed back through {!record_feedback}, so the database
    grows with traffic — the paper's §VII-D integration path, in the
    TENSAT/Prism mostly-lookup direction.

    Entries live in the same {!Store} directory as synthesis outcomes,
    under their own schema tag, keyed by the mining stub fingerprint
    (environment, depth, the standard constant set) plus the cost-model
    id — see {!key}. *)

module Json = Obs.Telemetry.Json

val schema : string
(** ["stenso.rules/1"]. *)

val standard_consts : float list
(** The constant terminals every mining run enumerates with.  Fixed —
    and part of the database key via the stub fingerprint — so a serving
    process can recompute the key of a request's environment without
    knowing what constants the miner saw. *)

val mine_config : ?jobs:int -> depth:int -> unit -> Stub.config
(** The enumeration configuration mining uses for a given rule depth.
    Everything except [depth] (and [jobs], which never changes the
    library) is pinned to the defaults, so the database key derived from
    its fingerprint is stable across processes. *)

val key : env:Dsl.Types.env -> model_id:string -> depth:int -> string
(** Database key for one (environment, cost model, mining depth). *)

type rule = {
  rule : Rules.t;
  gain : float;
      (** cost improvement of rhs over lhs at the mined shapes, under
          the database's cost model — the ranking criterion *)
}

type t = {
  version : string;  (** build that mined the entry *)
  model_id : string;
  depth : int;
  truncated : bool;
      (** the mining enumeration hit its stub cap or deadline.  Rules
          stay sound (each was verified within the enumerated library),
          but the miner refuses to record optima from a truncated
          library — a "cheapest known" claim over a partial space is
          not one — so this flag on a decoded entry means its optima
          came solely from tier-3 feedback (or predate the flag). *)
  rules : rule list;  (** sorted by decreasing gain *)
  optima : (string, float * string) Hashtbl.t;
      (** spec-key digest ↦ (cost, program text) of the cheapest known
          implementation of that symbolic value *)
}

val spec_digest : string -> string
(** Digest of a canonical spec rendering ({!Spec.key}) — the
    optima-table key. *)

val entry :
  ?truncated:bool ->
  model_id:string ->
  depth:int ->
  rules:rule list ->
  optima:(string * (float * string)) list ->
  unit ->
  t
(** Assemble a fresh entry: rules are deduplicated (by rendered
    lhs/rhs), sorted by decreasing gain and capped at 1024 rules;
    optima keep the cheapest binding per digest.  [truncated] (default
    [false]) stamps the entry as mined from a capped enumeration. *)

val lookup_optimum : t -> string -> (float * Dsl.Ast.t) option
(** The recorded cheapest implementation of a spec digest, parsed.
    [None] when the digest is unknown or the stored text no longer
    parses. *)

val find : Store.t -> key:string -> t option
(** Decode the database entry under this key, read from its file in
    the store directory (not the store's memory front, so an entry
    whose write failed is not served).  The process keeps one decode
    per key: a lookup whose file is unchanged (path, inode, size,
    mtime) only stats it, and a file with the same bytes (another copy
    of the database, or a touched file) is digested but not parsed
    again.  An entry whose envelope is unreadable or whose
    payload no longer decodes is invalidated (deleted, counted corrupt)
    and reported as a miss.  Individually malformed rules or optima
    lines are dropped rather than failing the entry. *)

val record : Store.t -> key:string -> t -> unit
(** Persist an entry (write-through), replacing any previous one. *)

val record_feedback :
  Store.t ->
  key:string ->
  model_id:string ->
  depth:int ->
  ?rule:Rules.t * float ->
  spec_digest:string ->
  cost:float ->
  prog:string ->
  unit ->
  unit
(** Fold one tier-3 discovery into the database: add the generalized
    rule (if any, skipped when an equal lhs/rhs pair is already
    present) and the (digest, cost, program) optimum (kept only if
    cheaper than the recorded one).  Creates the entry when the
    environment was never mined — the organic-growth path. *)
