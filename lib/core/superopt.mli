(** The STENSO superoptimizer — Algorithm 1 of the paper.

    [superoptimize] symbolically executes the input program to obtain
    the target specification, estimates the input's cost as the initial
    branch-and-bound bound, enumerates the stub/sketch library, runs the
    synthesis search, and returns the cheaper of (best synthesized
    program, original program).  Every improved result is re-verified by
    symbolic equivalence before being returned, so outputs are correct
    by construction. *)

type outcome = {
  original : Dsl.Ast.t;
  optimized : Dsl.Ast.t;  (** equals [original] when nothing better was found *)
  improved : bool;
  original_cost : float;
  optimized_cost : float;
  search : Search.result;
  verified : bool;
      (** symbolic equivalence of [optimized] and [original]; always
          true for [improved] outcomes (enforced), trivially true
          otherwise *)
  tier : int;
      (** which tier answered: 1 = outcome-store lookup (served from
          the persistent store without entering the search, only
          possible through {!optimize} with a store), 2 = the rule
          database's optima table or e-graph saturation with its mined
          rules, 3 =
          full branch-and-bound search (always 3 for bare
          {!superoptimize}) *)
  refined : bool;
      (** the answer is final: a full tier-3 search produced it (or an
          earlier one upgraded the store entry it was served from).
          Unrefined answers (tier 2, or tier 1 over a tier-2-written
          entry) are candidates for background {!refine}ment. *)
}

val consts_of : Dsl.Ast.t -> float list
(** The constant terminals of a program (the grammar's [FCons]), plus
    the always-available unit constant. *)

val superoptimize :
  ?tel:Obs.Telemetry.t ->
  ?config:Search.config ->
  ?stub_cache:Stub.Cache.cache ->
  ?spec:Spec.t ->
  ?bound:float ->
  model:Cost.Model.t ->
  env:Dsl.Types.env ->
  Dsl.Ast.t ->
  outcome
(** [tel] (default {!Telemetry.null}) receives the full synthesis trace:
    phase spans ([phase.symbolic_exec], [phase.stub_enum],
    [phase.search]), search counters and the bound trajectory.
    [stub_cache] shares one enumerated stub library per input
    environment across calls (see {!Stub.Cache}); [spec], when the
    caller has already symbolically executed the program, skips the
    redundant execution.  [bound], when below the original program's
    cost, tightens the initial branch-and-bound bound (used by tiered
    serving to prune against an already-verified tier-2 candidate);
    the search then only returns programs cheaper than it. *)

type key = {
  spec_key : string;  (** {!Spec.key} of the request's spec *)
  store_key : string;
      (** {!Store.outcome_key} over the spec key, stub fingerprint,
          config fingerprint and model id *)
}

val key :
  config:Config.t ->
  model:Cost.Model.t ->
  env:Dsl.Types.env ->
  spec:Spec.t ->
  Dsl.Ast.t ->
  key
(** Key one request, building its spec key once.  [store_key] is
    exactly the key {!optimize} consults, exposed so serving layers can
    deduplicate identical in-flight requests on it; hand the whole
    record to {!optimize} so it does not key the spec again. *)

val store_key :
  config:Config.t ->
  model:Cost.Model.t ->
  env:Dsl.Types.env ->
  spec:Spec.t ->
  Dsl.Ast.t ->
  string
(** [(key ~config ~model ~env ~spec prog).store_key]. *)

val optimize :
  ?tel:Obs.Telemetry.t ->
  ?config:Config.t ->
  ?store:Store.t ->
  ?stub_cache:Stub.Cache.cache ->
  ?model:Cost.Model.t ->
  ?spec:Spec.t ->
  ?key:key ->
  env:Dsl.Types.env ->
  Dsl.Ast.t ->
  outcome
(** {!superoptimize} driven by the builder-style {!Config} surface.
    When [model] is omitted it is instantiated from the configuration
    ({!Config.model}), wired to the same [tel] — pass one explicitly to
    share a measured model's profiling table across many calls.

    With [store], serving is {e tiered}:

    {ol
    {- {b Tier 1 — outcome store.}  The request key (spec +
       fingerprints + model id, {!Store.outcome_key}) is looked up
       first — a hit reconstitutes the outcome (with [outcome.tier] 1,
       [store.hits] bumped, and [store.serve]
       / [tier.serve] events in the trace) without entering {!Search}.
       A stale or undecodable entry is invalidated.}
    {- {b Tier 2 — mined rules} (only when the configuration sets
       {!Config.with_rules_depth} and the store holds a {!Rules_db}
       entry for this environment).  At most two candidates: the
       database's optima table entry for this very spec, and e-graph
       equality saturation over the mined rules with cheapest
       extraction ({!Egraph}).  The cheapest (the optimum on a tie)
       candidate that passes full re-verification
       ({!robust_equivalent} + {!validate_concrete}) is served — and
       recorded to the outcome store — iff it is {e certified}: it
       strictly improves the request and reaches the database's
       recorded optimum for this spec (or costs nothing at all, which
       no search can undercut).  Tier 2 never trusts the database for
       correctness, only for guidance, and never certifies a
       "keep the original" verdict — that can only come from the full
       search.}
    {- {b Tier 3 — full search.}  Anything uncertified falls through to
       {!superoptimize}, with a verified tier-2 candidate tightening
       the initial branch-and-bound bound (and serving as the answer if
       the search cannot beat it).  Verified results are fed back into
       the rule database ({!Rules_db.record_feedback}: the generalized
       rewrite when improved, plus the spec optimum) and recorded to
       the outcome store.}}

    Per-tier telemetry: [tier.hit], [tier1.hits]/[tier2.hits]/
    [tier3.hits], [tier.rules_applied] (saturation's rule
    applications), [tier.saturation_ms], and one [tier.serve] event per
    answer.  A tier-2 answer's event names its candidate's [source]
    (["optimum"] or ["saturation"]); so does a tier-3 answer whose
    search a tier-2 candidate bounded.

    [spec], when the caller already symbolically executed the program
    (for example to compute the {!key}), skips the redundant execution;
    [key], when the caller already keyed the request with the same
    [config], [model] and [spec], skips rebuilding the spec key (it is
    only used with [store]). *)

val refine :
  ?tel:Obs.Telemetry.t ->
  ?config:Config.t ->
  store:Store.t ->
  ?stub_cache:Stub.Cache.cache ->
  ?model:Cost.Model.t ->
  ?spec:Spec.t ->
  ?key:key ->
  env:Dsl.Types.env ->
  Dsl.Ast.t ->
  outcome
(** Run the full tier-3 search for this request unconditionally and
    finalize its store entry with the result — [refined:true] even when
    the search only confirms what was stored, so the same spec is never
    re-refined.  Verified results also feed the rule database
    ({!Rules_db.record_feedback}), closing the loop for future tier-2
    answers.  This is the serving layer's background-refinement hook: a
    tier-2 answer goes out immediately and this call upgrades the entry
    on spare capacity ([tier.refined] counter, [tier.refine] event). *)

val robust_equivalent :
  env:Dsl.Types.env -> Dsl.Ast.t -> Dsl.Ast.t -> bool
(** Symbolic equivalence at the given shapes {e and} at shapes with
    every non-unit dimension bumped by one (when both programs still
    type-check there) — guards against rewrites that only hold at a
    size coincidence of the synthesis shapes. *)

val validate_concrete :
  ?trials:int ->
  ?max_draws:int ->
  ?engine:Texec.Engine.kind ->
  ?exec_options:Texec.Engine.Options.t ->
  env:Dsl.Types.env ->
  Dsl.Ast.t ->
  Dsl.Ast.t ->
  bool
(** Differential testing on random concrete inputs — a secondary check
    used by the test-suite alongside symbolic verification.  The
    reference program (first argument) always runs on the tree-walking
    interpreter; the candidate runs on [engine] (default [`Vm], compiled
    once under [exec_options] — default [Exec.Options.default] — and
    reused across trials), so VM-backed validation doubles as a
    differential test of the compiled path.  Draws whose original output
    is non-finite fall outside the engine's positive-value domain and
    are redrawn rather than counted, until [trials] in-domain
    comparisons have actually run or [max_draws] (default 512, never
    below [trials]) draws are exhausted. *)
