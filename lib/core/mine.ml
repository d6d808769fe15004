module Ast = Dsl.Ast

type env_stats = {
  label : string;
  stubs : int;
  attempts : int;
  dups : int;
  rules : int;
  optima : int;
  truncated : bool;
  elapsed : float;
}

(* The rendered rule must survive the store's text round-trip, or tier 2
   would silently lose it on reload. *)
let reparses (r : Rules.t) =
  let ok t =
    match Dsl.Parser.expression (Ast.to_string t) with
    | t' -> Ast.equal t t'
    | exception _ -> false
  in
  ok r.lhs && ok r.rhs

let mine_env ?(tel = Obs.Telemetry.null) ?(jobs = 1) ?max_stubs ~depth ~model
    env =
  let t0 = Unix.gettimeofday () in
  let config = Rules_db.mine_config ~jobs ~depth () in
  (* Test/benchmark escape hatch.  The database key deliberately does
     not capture the override: a cap small enough to matter truncates
     the library, and a truncated entry never publishes optima. *)
  let config =
    match max_stubs with
    | None -> config
    | Some n -> { config with Stub.max_stubs = n }
  in
  (* Collect every strictly-worse duplicate; key by rendering so a
     program displaced and re-attempted is recorded once. *)
  let displaced : (string, Stub.t) Hashtbl.t = Hashtbl.create 256 in
  let on_dup (s : Stub.t) =
    Hashtbl.replace displaced (Ast.to_string s.prog) s
  in
  let lib =
    Stub.enumerate ~config ~tel ~on_dup ~model
      ~consts:Rules_db.standard_consts env
  in
  let rules =
    Hashtbl.fold
      (fun _ (worse : Stub.t) acc ->
        match Stub.lookup_exact lib worse.sem with
        | Some best when best.cost < worse.cost ->
            let rule = Rules.generalize worse.prog best.prog in
            if
              rule.Rules.metavars <> []
              && (not (Ast.equal rule.Rules.lhs rule.Rules.rhs))
              && Rules.closed rule && reparses rule
            then
              { Rules_db.rule; gain = worse.cost -. best.cost } :: acc
            else acc
        | Some _ | None -> acc)
      displaced []
  in
  let truncated = Stub.truncated lib in
  (* An optima table is a "cheapest program for this spec" claim over
     the full bounded stub space.  A truncated enumeration never saw
     that space, so recording its per-spec champions would let tier 2
     certify answers against optima that deeper stubs may beat.  The
     rules are kept — each one pairs two programs verified equivalent
     within the library, truncated or not. *)
  let optima =
    if truncated then []
    else
      List.map
        (fun (s : Stub.t) ->
          ( Rules_db.spec_digest (Spec.key s.sem),
            (s.cost, Ast.to_string s.prog) ))
        (Stub.stubs lib)
  in
  let entry =
    Rules_db.entry ~truncated ~model_id:model.Cost.Model.name ~depth ~rules
      ~optima ()
  in
  let stats =
    {
      label = "";
      stubs = Stub.size lib;
      attempts = Stub.attempts lib;
      dups = Hashtbl.length displaced;
      rules = List.length entry.Rules_db.rules;
      optima = Rules_db.optima_count entry;
      truncated;
      elapsed = Unix.gettimeofday () -. t0;
    }
  in
  (entry, stats)

let mine ?(tel = Obs.Telemetry.null) ?(jobs = 1) ?max_stubs ?on_env ~depth
    ~model ~store envs =
  let model_id = model.Cost.Model.name in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  List.filter_map
    (fun (label, env) ->
      let key = Rules_db.key ~env ~model_id ~depth in
      if Hashtbl.mem seen key then None
      else begin
        Hashtbl.add seen key ();
        let entry, stats = mine_env ~tel ~jobs ?max_stubs ~depth ~model env in
        Rules_db.record store ~key entry;
        let stats = { stats with label } in
        Obs.Telemetry.event tel "mine.env"
          [
            ("label", Obs.Telemetry.Str label);
            ("stubs", Obs.Telemetry.Int stats.stubs);
            ("rules", Obs.Telemetry.Int stats.rules);
            ("optima", Obs.Telemetry.Int stats.optima);
            ("truncated", Obs.Telemetry.Bool stats.truncated);
            ("elapsed", Obs.Telemetry.Float stats.elapsed);
          ];
        (match on_env with Some f -> f stats | None -> ());
        Some stats
      end)
    envs
