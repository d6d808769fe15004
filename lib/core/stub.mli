(** Bottom-up enumeration of program stubs (Section IV-B).

    A {e stub} is a small, hole-free program from the grammar, paired
    with its symbolic semantics and estimated cost.  Stubs are the base
    material of the synthesis search: the recursion's base case matches
    the remaining specification against the stub library, and sketches
    are formed by pairing grammar operations with stub operands.

    Enumeration is type-directed (ill-shaped candidates are discarded,
    as in the paper) and semantically deduplicated: among stubs with
    identical symbolic values only the cheapest survives, so e.g.
    [transpose(transpose(A))] is subsumed by [A].

    Each distinct candidate — an operation applied to operand stubs —
    is evaluated at most once per enumeration.  Without an [on_dup]
    observer, the swapped-operand twin of an [add], [multiply] or
    [maximum] candidate is skipped when the cost model prices both
    operand orders equally: it has the same value and cost as the
    candidate listed first, so it cannot change the library.  The
    library is the one the exhaustive order (every pair in every order,
    repeats included) builds.  The values it keeps share their equal
    products and powers. *)

type t = {
  prog : Dsl.Ast.t;
  vt : Dsl.Types.vt;
  sem : Spec.t;
  cost : float;
  depth : int;
}

type config = {
  depth : int;  (** bottom-up iterations; the paper fixes 2 *)
  max_stubs : int;  (** enumeration budget *)
  extended_ops : bool;  (** include triu/tril/less/where *)
  full_binary : bool;
      (** combine arbitrary stub pairs at every depth (full bottom-up
          enumeration, used by the TASO-style baseline); the default
          requires one atom operand beyond depth 1, a redundancy cut
          that the recursive sketch search compensates for *)
  deadline : float option;
      (** absolute wall-clock instant (as [Unix.gettimeofday]) after
          which enumeration stops and reports truncation *)
  jobs : int;
      (** domains used to evaluate candidate stubs (type check, symbolic
          execution, costing).  Registration — deduplication, the
          [max_stubs] cap, the deadline — stays sequential and ordered,
          so the resulting library is byte-identical to a [jobs = 1]
          run. *)
}

val default_config : config

type library

val enumerate :
  ?config:config ->
  ?tel:Obs.Telemetry.t ->
  ?on_dup:(t -> unit) ->
  model:Cost.Model.t ->
  consts:float list ->
  Dsl.Types.env ->
  library
(** Build the stub library for a set of inputs plus the constants that
    occur in the original program (the grammar's [FCons] terminals).
    [tel] receives one [stub.depth] event per bottom-up iteration
    (candidates examined, stubs kept, elapsed seconds) and a final
    [stub.library] summary.

    [on_dup] observes semantic duplicates that deduplication would
    silently discard: it is called with every enumerated stub that is
    strictly more expensive than the library's (final) representative
    of the same symbolic value — the raw material of rule mining, where
    each (duplicate, representative) pair is a rewrite proven
    equivalent by construction.  Equal-cost duplicates are not
    reported.  With an observer attached, swapped-operand twins are
    evaluated, and each repeat the exhaustive order makes re-registers
    its first evaluation at the repeat's position, so the observer sees
    exactly the exhaustive order's report sequence, repeated reports
    included. *)

val fingerprint : config -> consts:float list -> Dsl.Types.env -> string
(** Canonical identity of an enumeration: the config fields that shape
    the library ([depth], [max_stubs], [extended_ops], [full_binary]),
    the constant terminals, and the input environment.  [jobs] and
    [deadline] are excluded — the former never changes the library, the
    latter only truncates it.  Two calls with equal fingerprints (and
    the same cost model) produce interchangeable libraries; this keys
    both {!Cache} and the persistent outcome store. *)

(** Share one enumerated library per [(config, consts, env, model)]
    fingerprint across many synthesis runs — the suite driver and the
    serve daemon hit the same input environments over and over, and
    enumeration is a per-environment fixed cost. *)
module Cache : sig
  type cache

  val create : unit -> cache

  val enumerate :
    cache ->
    ?config:config ->
    ?tel:Obs.Telemetry.t ->
    model:Cost.Model.t ->
    consts:float list ->
    Dsl.Types.env ->
    library * bool
  (** The library for this fingerprint, built on first request and
      shared afterwards; the flag is [true] when it was served from the
      cache.  Concurrent requests for a fingerprint under construction
      block until it is ready instead of re-enumerating. *)
end

val resolve :
  ?cache:Cache.cache ->
  ?config:config ->
  ?tel:Obs.Telemetry.t ->
  model:Cost.Model.t ->
  consts:float list ->
  Dsl.Types.env ->
  library
(** The library for this call's own fingerprint: [cache]'s (built on
    first request, see {!Cache.enumerate}), or a fresh {!enumerate}
    without one.  A hit increments [tel]'s [stub.cache_hits] counter.
    The synthesis search and the lifting front-end obtain their
    libraries here. *)

val stubs : library -> t list
val atoms : library -> t list
val size : library -> int

val attempts : library -> int
(** Distinct candidate programs evaluated during enumeration, before
    semantic deduplication: repeats are not counted, and skipped
    swapped-operand twins (see above) are not attempted. *)

val env : library -> Dsl.Types.env
val truncated : library -> bool
(** Did enumeration stop early — at [max_stubs] or the deadline?  A
    truncated library is sound but incomplete: "no cheaper program
    exists" conclusions must not be drawn from it, and {!Cache} never
    shares one across requests. *)

val lookup_exact : library -> Spec.t -> t option
(** Cheapest stub whose symbolic value (and shape) equals the spec. *)

val lookup_broadcast : library -> Spec.t -> t option
(** A stub matching the {e collapsed} spec — a value that broadcasts to
    the spec (safe in elementwise positions).  Exact-shape matches are
    deliberately not consulted; callers combine this with
    {!lookup_exact} and pick the cheaper. *)

(** {2 Concrete-operand index}

    What the solver ({!Invert}) reads about the library at every search
    node, computed once per library instead of once per node. *)

type operand = {
  stub : t;
  vars : Symbolic.Sym.Set.t;  (** every symbol of the stub's value *)
  elem_vars : Symbolic.Sym.Set.t array;
      (** the symbols of each element, in row-major order *)
}

type index = {
  concrete : operand list;
      (** Float stubs with a nonzero element and depth at most 1 (the
          paper's depth-2 library yields depth-1 concrete parts), in
          library order: the concrete operands of sketches *)
  planes : t list;
      (** rank-2 Float stubs of any depth, in library order: the
          operands of masking completions *)
  masks : (t * Symbolic.Sym.Set.t) list;
      (** Bool stubs of any depth with their symbols, in library order:
          the conditions of [where] sketches *)
}

val index : library -> index
(** The library's index, built on the first call and shared afterwards.
    Safe to call from several domains at once: a racing builder
    publishes by compare-and-set, and every caller gets an index equal
    to the one a single caller would get. *)

val const_stub : library -> Symbolic.Q.t -> t option
(** A [Const] leaf for a uniform-constant spec (the solver may conjure
    constants not present in the library, e.g. the 4 in
    [AB + 3AB -> 4AB]). *)

(** Concrete value tables: every stub's outputs on a fixed list of
    sampled input draws — the TF-Coder-style behavioral signatures the
    lifting front-end prunes candidates against before any symbolic
    work ([Stenso.Lift]). *)
module Values : sig
  type table

  val fingerprint :
    library_fp:string -> (string * Tensor.Ftensor.t) list list -> string
  (** Cache identity of a table: the stub-library fingerprint
      ({!fingerprint} of the enumeration, including the cost-model id
      if the caller keys by it) combined with a digest of the sampled
      inputs — name, shape and the IEEE-754 bit pattern of every
      element of every sample.  Two different draws, even from the same
      distribution, never share a fingerprint. *)

  val get :
    ?tel:Obs.Telemetry.t ->
    library_fp:string ->
    library ->
    (string * Tensor.Ftensor.t) list list ->
    table
  (** Evaluate every stub on every sample, sharing one table per
      {!fingerprint} across lifts (never for truncated libraries,
      mirroring {!Cache}).  A shared hit increments the
      [stub.values_cache_hits] counter. *)

  val to_list : table -> (t * Tensor.Ftensor.t list) list
  (** All stubs with their outputs, in library (cost) order; a stub
      whose evaluation raises on some sample is left out. *)
end
