(** Top-down synthesis via recursive sketch simplification with
    branch-and-bound pruning — Algorithm 2 of the paper.

    The search decomposes the specification with sketches from
    {!Invert}, recursing on each hole specification.  Two admissible
    filters keep it tractable:

    - {e simplification pruning} ([use_simplification]): only
      decompositions whose average hole complexity is below the current
      spec's complexity are explored (structural operations such as
      [transpose] may tie), and a decomposition with a hole equal to a
      spec on the current path is never explored.  The
      solver works under this budget ({!Invert.candidates}): it skips
      elementwise holes a variable-set bound proves too complex without
      building them, and only candidates the filter keeps are checked
      by recombination, so every node explores exactly the
      decompositions the filter keeps from every candidate, built and
      recombined;
    - {e branch and bound} ([use_bnb]): a path whose accumulated cost
      reaches the best complete program's cost is abandoned.

    Both can be disabled independently to reproduce the paper's
    simplification-only configuration (Fig. 5).

    Every run memoizes, per spec, the best sub-program found and its
    cost; a later visit reuses it when it fits under the bound.  Failures
    are not memoized: whether a spec fails depends on the remaining depth
    and the path, which a spec key does not capture.

    With [jobs > 1] the root level runs on a fixed pool of domains: the
    viable top-level decompositions are distributed round-robin, the
    branch-and-bound bound is shared atomically (a complete program
    found by one worker prunes the others), and per-worker results merge
    deterministically by minimal (cost, program size, decomposition
    index) — reproducing the sequential tie-breaking, so parallel and
    sequential runs return the same program and cost.

    The search is {e anytime}: when the node budget or timeout expires,
    the best complete program found so far is returned with
    [stats.timed_out] set, in both the sequential and parallel engines.

    Statistics are kept in atomic counters shared by all workers and
    surfaced twice: as the flat {!stats} record on every result, and —
    when a {!Telemetry} sink is passed — as named telemetry counters,
    phase spans ([phase.stub_enum], [phase.search]), a prune breakdown
    by cause, and the branch-and-bound bound trajectory over time
    (gauge [search.bound]). *)

type config = {
  stub_config : Stub.config;
  use_bnb : bool;
  use_simplification : bool;
  node_budget : int;
      (** maximum DFS nodes before giving up — one global budget shared
          by all workers, independent of [jobs] *)
  timeout : float;  (** wall-clock seconds before giving up *)
  max_depth : int;  (** recursion depth cap *)
  jobs : int;
      (** domains for the root-level decomposition fan-out; [1] is the
          fully sequential engine *)
}

val default_config : config

type stats = {
  nodes : int;  (** DFS invocations *)
  decomps : int;
      (** sketch candidates whose holes were built and handed to the
          filter ([invert.proposed]); the elementwise candidates the
          solver's variable-set bound skipped unbuilt are counted apart,
          as [invert.skipped] *)
  pruned_simp : int;
      (** built candidates cut by the simplification objective, checked
          before recombination, so it includes candidates that would not
          have recombined; the skipped ones are not in it *)
  pruned_bnb : int;
      (** branches cut by branch-and-bound (all causes; the telemetry
          counters [search.pruned.bnb_local] / [bnb_global] / [bnb_hole]
          give the breakdown) *)
  memo_hits : int;  (** sub-spec memo table hits *)
  memo_misses : int;  (** sub-spec memo table misses *)
  elapsed : float;
  timed_out : bool;
  library_size : int;
}

type result = {
  program : Dsl.Ast.t option;
      (** best synthesized program, [None] if nothing was found within
          budget *)
  cost : float;  (** its estimated cost (meaningful when program set) *)
  stats : stats;
}

type observer =
  visited:Spec.t list -> Spec.t -> (Invert.decomposition * float) list -> unit
(** Called at every expanded node with the path (the spec first), the
    spec, and the viable decompositions with their immediate cost in the
    order they are explored.  With [jobs > 1] it is called from several
    domains. *)

val run :
  ?tel:Obs.Telemetry.t ->
  ?config:config ->
  ?stub_cache:Stub.Cache.cache ->
  ?observe:observer ->
  model:Cost.Model.t ->
  env:Dsl.Types.env ->
  spec:Spec.t ->
  initial_bound:float ->
  consts:float list ->
  unit ->
  result
(** Synthesize a program equivalent to [spec] with estimated cost below
    [initial_bound].  [consts] seeds the grammar's constant terminals
    (the constants of the original program).  The stub library comes
    from {!Stub.resolve}: [stub_cache]'s library for this call's
    [env]/[consts]/model fingerprint when a cache is given (the suite
    driver and serve daemon share one library per input environment
    this way), a fresh enumeration otherwise.  Either way [timeout] and
    [stats.elapsed] count from the start of this call, library build
    included, and the build is the [phase.stub_enum] span, a sibling of
    [phase.search].  [tel] (default {!Telemetry.null}, which costs
    nothing) receives phase spans, the prune/memo counter breakdown, and
    the bound trajectory; its [spec.key_*] counters are attributed to
    this run's search alone even when other searches run concurrently.
    [observe] sees every expanded node (tests use it to compare the
    search's filter with {!Invert.candidates} filtered by
    {!Invert.recombines}). *)
