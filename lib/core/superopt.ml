module Ast = Dsl.Ast
module Types = Dsl.Types

type outcome = {
  original : Ast.t;
  optimized : Ast.t;
  improved : bool;
  original_cost : float;
  optimized_cost : float;
  search : Search.result;
  verified : bool;
  tier : int;
  refined : bool;
}

let consts_of prog =
  let rec go acc (t : Ast.t) =
    match t with
    | Const f -> f :: acc
    | Input _ -> acc
    | App (_, args) -> List.fold_left go acc args
    | For_stack { body; _ } -> go acc body
  in
  List.sort_uniq compare (1.0 :: go [] prog)

(* Second verification environment: every non-unit dimension bumped by
   one.  Symbolic execution fixes concrete sizes, so an equivalence that
   silently depended on a size coincidence (e.g. a term count happening
   to match a dimension) passes at the synthesis shapes but fails
   here. *)
let perturbed_env (env : Types.env) : Types.env =
  List.map
    (fun (name, (vt : Types.vt)) ->
      ( name,
        {
          vt with
          Types.shape =
            Array.map (fun d -> if d > 1 then d + 1 else d) vt.shape;
        } ))
    env

let rec has_shape_attrs (t : Ast.t) =
  match t with
  | App ((Full _ | Reshape _), _) -> true
  | Input _ | Const _ -> false
  | App (_, args) -> List.exists has_shape_attrs args
  | For_stack { body; _ } -> has_shape_attrs body

let robust_equivalent ~env a b =
  Dsl.Sexec.equivalent env a b
  &&
  let env' = perturbed_env env in
  (* Programs that bake shapes into attributes ([full]/[reshape]) are
     legitimately shape-specific, and anything that no longer
     type-checks at the perturbed sizes cannot be compared there; the
     primary check stands alone in those cases. *)
  has_shape_attrs a || has_shape_attrs b
  || (not (Types.well_typed env' a && Types.well_typed env' b))
  || Dsl.Sexec.equivalent env' a b

(* The one outcome constructor, for every tier: [best] is a verified
   program cheaper than the original with its cost, [None] keeps the
   original (trivially verified). *)
let make_outcome ~tier ~refined ~original_cost ~stats prog best =
  let optimized, optimized_cost =
    match best with Some b -> b | None -> (prog, original_cost)
  in
  {
    original = prog;
    optimized;
    improved = Option.is_some best;
    original_cost;
    optimized_cost;
    search =
      { Search.program = Option.map fst best; cost = optimized_cost; stats };
    verified = true;
    tier;
    refined;
  }

type key = { spec_key : string option; store_key : string }

(* The full store key for one request: what will be synthesized (the
   spec), from what material (stub fingerprint: env, consts, grammar),
   under which search parameters (config fingerprint) and which cost
   notion (model id).  The spec key is kept beside it: the rules
   database keys its optima by the spec key alone. *)
let key ~config ~model ~env ~spec prog =
  let search = Config.search_config config in
  let spec_key = Spec.key spec in
  {
    spec_key = Some spec_key;
    store_key =
      Store.outcome_key ~spec_key
        ~stub_fp:
          (Stub.fingerprint search.Search.stub_config ~consts:(consts_of prog)
             env)
        ~config_fp:(Config.fingerprint config)
        ~model_id:model.Cost.Model.name;
  }

let store_key ~config ~model ~env ~spec prog =
  (key ~config ~model ~env ~spec prog).store_key

let spec_key_of k spec =
  match k.spec_key with Some s -> s | None -> Spec.key spec

(* Reconstitute an outcome from a store entry.  The entry's program text
   must still parse, type-check and match this request's environment —
   anything else means the entry is stale or corrupt and is invalidated
   so the search runs instead.  The key holds the spec, not the program:
   an entry written for another program with the same spec keeps its
   answer but is priced against this request's own program, which is
   served when it is no dearer. *)
let outcome_of_entry ~model ~env prog (e : Store.outcome_entry) :
    outcome option =
  match Dsl.Parser.program e.optimized with
  | exception _ -> None
  | entry_env, optimized ->
      if entry_env <> env then None
      else if not (Dsl.Types.well_typed env optimized) then None
      else
        let original_cost, improved =
          if String.equal e.original (Dsl.Parser.unparse env prog) then
            (e.original_cost, e.improved)
          else
            let c = Cost.Model.program_cost model env prog in
            (c, e.optimized_cost < c)
        in
        Some
          (make_outcome ~tier:1 ~refined:e.refined ~original_cost
             ~stats:e.stats prog
             (if improved then Some (optimized, e.optimized_cost) else None))

(* The outcome-store entry for a verified outcome. *)
let store_entry ~env (o : outcome) =
  {
    Store.version = Version.current;
    original = Dsl.Parser.unparse env o.original;
    optimized = Dsl.Parser.unparse env o.optimized;
    improved = o.improved;
    original_cost = o.original_cost;
    optimized_cost = o.optimized_cost;
    stats = o.search.stats;
    refined = o.refined;
  }

let differential ~trials ~max_draws ~seed ~exec_options ~env ~reference
    cand =
  let st = Random.State.make [| seed |] in
  (* The candidate runs on the VM, so validation doubles as a
     differential test of the compiled path.  Compile once, reuse across
     trials. *)
  let compiled = Texec.Engine.compile ~options:exec_options ~env cand in
  let eval_cand inputs =
    Texec.Engine.run compiled (fun n -> List.assoc n inputs)
  in
  (* Rewrites hold on the engine's positive-value domain (see
     {!Symbolic.Expr}); a trial whose reference output is non-finite
     (sqrt/log of a negative intermediate) is outside that domain and
     carries no evidence either way, so it is skipped — and redrawn:
     skipped draws must not count toward [trials], and a program that is
     never in domain must not pass with zero effective checks. *)
  let close x y = Float.abs (x -. y) <= 1e-9 +. (1e-6 *. Float.abs y) in
  let max_draws = max trials max_draws in
  let ok = ref true in
  let effective = ref 0 in
  let draws = ref 0 in
  while !ok && !effective < trials && !draws < max_draws do
    incr draws;
    let inputs = Dsl.Interp.random_inputs st env in
    let expected = reference inputs in
    let in_domain =
      Tensor.Ftensor.fold (fun acc x -> acc && Float.is_finite x) true expected
    in
    if in_domain then begin
      incr effective;
      if not (Tensor.Ftensor.for_all2 close expected (eval_cand inputs)) then
        ok := false
    end
  done;
  !ok && !effective > 0

let validate_concrete ?(trials = 16) ?(max_draws = 512)
    ?(exec_options = Texec.Engine.Options.default) ~env a b =
  differential ~trials ~max_draws ~seed:0xbeef ~exec_options ~env
    ~reference:(fun inputs -> Dsl.Interp.eval_alist inputs a)
    b

(* ------------------------------------------------------------------ *)
(* Tier 2: e-graph saturation and optima lookup                        *)
(* ------------------------------------------------------------------ *)

type source = Optimum | Saturation

let source_name = function Optimum -> "optimum" | Saturation -> "saturation"

type tier2 = {
  t2_prog : Ast.t;
  t2_cost : float;
  t2_source : source;  (* which candidate source supplied [t2_prog] *)
  t2_certified : bool;
      (* the candidate provably reaches the database's recorded optimum
         for this spec (or costs nothing at all), so the search cannot
         improve on what the database already knows *)
  t2_elapsed : float;
}

let empty_stats elapsed =
  {
    Search.nodes = 0;
    decomps = 0;
    pruned_simp = 0;
    pruned_bnb = 0;
    memo_hits = 0;
    memo_misses = 0;
    elapsed;
    timed_out = false;
    library_size = 0;
  }

(* Serve a request from the mined rule database, if it can be done
   soundly.  Two candidate sources, cheapest verified one wins (the
   optimum on a tie):

   - the optima table: the cheapest known implementation of this
     request's symbolic value, mined offline or fed back from earlier
     tier-3 searches;
   - e-graph equality saturation with the mined rules plus cheapest
     extraction ({!Egraph}).

   Every candidate is re-verified from scratch (symbolic equivalence at
   two shape settings + concrete differential validation) before it can
   be served — tier 2 trusts the database for *guidance*, never for
   correctness.  The answer is [certified] only when it reaches the
   recorded optimum for this very spec: mined optima are exact for the
   bounded stub space, so a certified answer is the best the database
   can prove; anything short of that falls through to the full search
   (with the candidate's cost as a tightened initial bound).

   Returns whether the consulted database was mined truncated ([false]
   when there is none) and the verified candidate, if any. *)
let tier2_attempt ~tel ~config ~model ~env ~spec_key ~depth ~store prog =
  match
    Rules_db.find store
      ~key:(Rules_db.key ~env ~model_id:model.Cost.Model.name ~depth)
  with
  | None -> (false, None)
  | Some db ->
      let t0 = Unix.gettimeofday () in
      let cost p =
        if Types.well_typed env p then
          match Cost.Model.program_cost model env p with
          | c -> c
          | exception _ -> infinity
        else infinity
      in
      let saturated =
        match
          let g = Egraph.create env in
          let cls = Egraph.add g prog in
          let ts = Unix.gettimeofday () in
          let st = Egraph.saturate_set db.Rules_db.rule_set g in
          Obs.Telemetry.Acc.add
            (Obs.Telemetry.acc tel "tier.saturation_ms")
            ((Unix.gettimeofday () -. ts) *. 1000.);
          Obs.Telemetry.add tel "tier.rules_applied" st.Egraph.applications;
          Egraph.extract g ~model cls
        with
        | p -> Some p
        | exception Egraph.Unsupported _ -> None
      in
      let optimum =
        Rules_db.lookup_optimum db (Rules_db.spec_digest spec_key)
      in
      let candidate source p =
        let c = cost p in
        if c < infinity then Some (source, p, c) else None
      in
      let from_optimum =
        Option.bind optimum (fun (_, p) -> candidate Optimum p)
      in
      let from_saturation =
        match (saturated, optimum) with
        | Some p, Some (_, o) when Ast.equal p o -> None
        | Some p, _ -> candidate Saturation p
        | None, _ -> None
      in
      let candidates =
        match (from_optimum, from_saturation) with
        | Some ((_, _, co) as o), Some ((_, _, cs) as s) when cs < co ->
            [ s; o ]
        | o, s -> List.filter_map Fun.id [ o; s ]
      in
      let verified (_, c, _) =
        Ast.equal c prog
        ||
        match
          robust_equivalent ~env prog c
          && validate_concrete ~exec_options:(Config.exec_options config)
               ~env prog c
        with
        | ok -> ok
        | exception _ -> false
      in
      let best =
        Option.map
          (fun (source, best, best_cost) ->
            let eps = 1e-9 *. (1. +. Float.abs best_cost) in
            (* Certification demands a strict improvement that reaches
               the recorded optimum (or a free program, which nothing
               can undercut).  A candidate that merely *matches* the
               database's best is not served: the optimum is exact only
               for the mined space, and the search explores deeper — a
               "nothing better exists" verdict must come from tier 3,
               never from a bounded table. *)
            let certified =
              best_cost <= 0.
              || (best_cost < cost prog
                 &&
                 match optimum with
                 | Some (opt_cost, _) -> best_cost <= opt_cost +. eps
                 | None -> false)
            in
            {
              t2_prog = best;
              t2_cost = best_cost;
              t2_source = source;
              t2_certified = certified;
              t2_elapsed = Unix.gettimeofday () -. t0;
            })
          (List.find_opt verified candidates)
      in
      (db.Rules_db.truncated, best)

(* Fold a verified search result back into the rule database: the
   generalized rewrite (when the search improved the program and the
   rule is sound to apply anywhere) and the spec's optimum.  This is
   how the database outgrows its mining depth with traffic. *)
let tier3_feedback ~model ~env ~spec_key ~depth ~store (outcome : outcome) =
  let rule =
    if not outcome.improved then None
    else
      let r = Rules.generalize outcome.original outcome.optimized in
      if
        r.Rules.metavars <> []
        && (not (Ast.equal r.Rules.lhs r.Rules.rhs))
        && Rules.closed r
      then Some (r, outcome.original_cost -. outcome.optimized_cost)
      else None
  in
  let model_id = model.Cost.Model.name in
  Rules_db.record_feedback store
    ~key:(Rules_db.key ~env ~model_id ~depth)
    ~model_id ~depth ?rule
    ~spec_digest:(Rules_db.spec_digest spec_key)
    ~cost:outcome.optimized_cost
    ~prog:(Ast.to_string outcome.optimized)
    ()

let symbolic_spec ~tel ?spec ~env prog =
  match spec with
  | Some s -> s
  | None ->
      Obs.Telemetry.span tel "phase.symbolic_exec" (fun () ->
          Dsl.Sexec.exec_env env prog)

(* The request's spec, built on first use, and its key.  Callers that
   already keyed the request (serving keys each request for single-flight
   before optimizing it) pass the key in, so no request spec is keyed
   twice and a store hit executes nothing. *)
let spec_and_key ~tel ~config ~model ?spec ?key:k ~env prog =
  let spec = lazy (symbolic_spec ~tel ?spec ~env prog) in
  ( spec,
    match k with
    | Some k -> k
    | None -> key ~config ~model ~env ~spec:(Lazy.force spec) prog )

(* Tier 3, the full branch-and-bound search: Algorithm 1 proper.  [t2],
   a verified tier-2 candidate cheaper than the original, tightens the
   initial bound and is the answer when the search cannot beat it.  With
   a [store] (and the request's spec and store keys) the result is fed
   back into the rule database and recorded. *)
let tier3 ~tel ~config ?stub_cache ?store ?t2 ~model ~env ~spec
    ~original_cost prog =
  let initial_bound =
    match t2 with Some t -> t.t2_cost | None -> original_cost
  in
  let search =
    Search.run ~tel ~config:(Config.search_config config) ?stub_cache ~model
      ~env ~spec ~initial_bound ~consts:(consts_of prog) ()
  in
  let found =
    match search.program with
    | None -> None
    | Some candidate ->
        (* Re-estimate the synthesized program as a whole: search-time
           cost accumulation prices holes at collapsed shapes, which is
           the right search heuristic but can drift from the assembled
           program. *)
        let cost = Cost.Model.program_cost model env candidate in
        if cost >= original_cost then None
          (* Correctness by construction, re-checked end-to-end — at the
             synthesis shapes and at perturbed shapes. *)
        else if robust_equivalent ~env prog candidate then
          Some (candidate, cost)
        else begin
          (* The candidate failed re-verification (for example a rewrite
             that only held at a shape coincidence of the synthesis
             sizes): fall back rather than emit wrong code. *)
          Logs.warn (fun m ->
              m "stenso: rejected unverifiable candidate %a" Ast.pp candidate);
          None
        end
  in
  let best =
    match (t2, found) with
    | Some t, Some (_, c) when c <= t.t2_cost -> found
    | Some t, _ ->
        (* The search could not beat the tier-2 candidate (it pruned
           against its cost); the candidate is already verified, so it
           is the answer. *)
        Some (t.t2_prog, t.t2_cost)
    | None, _ -> found
  in
  let outcome =
    make_outcome ~tier:3 ~refined:true ~original_cost ~stats:search.stats prog
      best
  in
  (match store with
  | None -> ()
  | Some (store, spec_key, store_key) ->
      (match Config.rules_depth config with
      | Some depth ->
          tier3_feedback ~model ~env ~spec_key ~depth ~store outcome
      | None -> ());
      Store.record_outcome store ~key:store_key (store_entry ~env outcome));
  outcome

let optimize ?(tel = Obs.Telemetry.null) ?(config = Config.default) ?store
    ?stub_cache ?model ?spec ?key ~env prog =
  let model =
    match model with Some m -> m | None -> Config.model ~tel config
  in
  match store with
  | None ->
      let original_cost = Cost.Model.program_cost model env prog in
      let spec = symbolic_spec ~tel ?spec ~env prog in
      tier3 ~tel ~config ?stub_cache ~model ~env ~spec ~original_cost prog
  | Some store -> (
      let spec, k = spec_and_key ~tel ~config ~model ?spec ?key ~env prog in
      let key = k.store_key in
      (* Events name the key by its digest, a hash of the whole key (which
         can run to hundreds of kilobytes): taken once, and only for a
         sink that records. *)
      let digest = lazy (Store.digest key) in
      let key_event name fields =
        if Obs.Telemetry.enabled tel then
          Obs.Telemetry.event tel name
            (("key", Obs.Telemetry.Str (Lazy.force digest)) :: fields)
      in
      (* [source] names the tier-2 candidate that answered, or that
         bounded the tier-3 search. *)
      let serve_event ?(db_truncated = false) ?source tier =
        Obs.Telemetry.incr tel "tier.hit";
        Obs.Telemetry.incr tel (Printf.sprintf "tier%d.hits" tier);
        key_event "tier.serve"
          (("tier", Obs.Telemetry.Int tier)
          :: ("db_truncated", Obs.Telemetry.Bool db_truncated)
          :: Option.to_list
               (Option.map
                  (fun s -> ("source", Obs.Telemetry.Str (source_name s)))
                  source))
      in
      let cached =
        match Store.find_outcome store ~key with
        | None -> None
        | Some entry -> (
            match outcome_of_entry ~model ~env prog entry with
            | Some o -> Some o
            | None ->
                Store.invalidate store key;
                None)
      in
      match cached with
      | Some outcome ->
          (* Tier 1, check-before-search: served without entering
             [Search], and with a caller's key without symbolic
             execution. *)
          Obs.Telemetry.incr tel "store.hits";
          key_event "store.serve"
            [ ("improved", Obs.Telemetry.Bool outcome.improved) ];
          serve_event 1;
          outcome
      | None -> (
          Obs.Telemetry.incr tel "store.misses";
          let spec = Lazy.force spec in
          let spec_key = spec_key_of k spec in
          let original_cost = Cost.Model.program_cost model env prog in
          let db_truncated, t2 =
            match Config.rules_depth config with
            | None -> (false, None)
            | Some depth ->
                tier2_attempt ~tel ~config ~model ~env ~spec_key ~depth
                  ~store prog
          in
          match t2 with
          | Some t2 when t2.t2_certified && t2.t2_cost <= original_cost ->
              (* Tier 2: the mined database answered, provably as well
                 as the search could against its recorded optimum, and
                 the answer re-verified — serve it without searching.  A
                 certified tier-2 answer is optimal within the mined
                 space, but the full search explores deeper: background
                 refinement may still upgrade it. *)
              let outcome =
                make_outcome ~tier:2 ~refined:false ~original_cost
                  ~stats:(empty_stats t2.t2_elapsed) prog
                  (if t2.t2_cost < original_cost then
                     Some (t2.t2_prog, t2.t2_cost)
                   else None)
              in
              serve_event ~db_truncated ~source:t2.t2_source 2;
              (* Record-after-answer: unverified candidates never reach
                 an outcome, so every recorded entry is correct by
                 construction. *)
              Store.record_outcome store ~key (store_entry ~env outcome);
              outcome
          | _ ->
              let t2 =
                match t2 with
                | Some t when t.t2_cost < original_cost -> t2
                | _ -> None
              in
              let outcome =
                tier3 ~tel ~config ?stub_cache ~store:(store, spec_key, key)
                  ?t2 ~model ~env ~spec ~original_cost prog
              in
              serve_event ~db_truncated
                ?source:(Option.map (fun t -> t.t2_source) t2)
                3;
              outcome))

(* Background refinement: run the full tier-3 search for a request that
   was answered by a faster tier, and finalize the store entry with the
   result.  The entry is marked [refined] even when the search only
   confirms the stored answer — "the full search has spoken" is exactly
   the bit that stops the service from re-refining the same spec on
   every future hit.  The upgraded answer also feeds the rule database,
   so future tier-2 answers for this spec serve the true optimum. *)
let refine ?(tel = Obs.Telemetry.null) ?(config = Config.default) ~store
    ?stub_cache ?model ?spec ?key ~env prog =
  let model =
    match model with Some m -> m | None -> Config.model ~tel config
  in
  let spec, k = spec_and_key ~tel ~config ~model ?spec ?key ~env prog in
  let spec = Lazy.force spec in
  let original_cost = Cost.Model.program_cost model env prog in
  let outcome =
    tier3 ~tel ~config ?stub_cache
      ~store:(store, spec_key_of k spec, k.store_key)
      ~model ~env ~spec ~original_cost prog
  in
  Obs.Telemetry.incr tel "tier.refined";
  Obs.Telemetry.event tel "tier.refine"
    [
      ("key", Obs.Telemetry.Str (Store.digest k.store_key));
      ("improved", Obs.Telemetry.Bool outcome.improved);
      ("cost_after", Obs.Telemetry.Float outcome.optimized_cost);
    ];
  outcome
