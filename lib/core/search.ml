module Ast = Dsl.Ast
module Types = Dsl.Types
module St = Dsl.Sexec.Stensor
module Shape = Tensor.Shape
module Expr = Symbolic.Expr
module Tel = Obs.Telemetry

type config = {
  stub_config : Stub.config;
  use_bnb : bool;
  use_simplification : bool;
  node_budget : int;
  timeout : float;
  max_depth : int;
  jobs : int;
}

let default_config =
  {
    stub_config = Stub.default_config;
    use_bnb = true;
    use_simplification = true;
    node_budget = 200_000;
    timeout = 600.;
    max_depth = 12;
    jobs = 1;
  }

type stats = {
  nodes : int;
  decomps : int;
  pruned_simp : int;
  pruned_bnb : int;
  memo_hits : int;
  memo_misses : int;
  elapsed : float;
  timed_out : bool;
  library_size : int;
}

type result = { program : Dsl.Ast.t option; cost : float; stats : stats }

exception Out_of_budget

(* The search statistics live in atomic counters shared by every domain
   working on the search (the telemetry layer reads the same counters),
   so sequential and parallel runs account identically — in particular
   [nodes] is one global total, which is what [check_budget] compares
   against the node budget. *)
type counters = {
  nodes : Tel.Counter.t;
  decomps : Tel.Counter.t;
  solved : Tel.Counter.t;
  pruned_simp : Tel.Counter.t;
  pruned_bnb_local : Tel.Counter.t;
  pruned_bnb_global : Tel.Counter.t;
  pruned_bnb_hole : Tel.Counter.t;
  memo_hits : Tel.Counter.t;
  memo_misses : Tel.Counter.t;
}

let make_counters tel =
  {
    nodes = Tel.counter tel "search.nodes";
    decomps = Tel.counter tel "search.decomps";
    solved = Tel.counter tel "invert.solved";
    pruned_simp = Tel.counter tel "search.pruned.simp";
    pruned_bnb_local = Tel.counter tel "search.pruned.bnb_local";
    pruned_bnb_global = Tel.counter tel "search.pruned.bnb_global";
    pruned_bnb_hole = Tel.counter tel "search.pruned.bnb_hole";
    memo_hits = Tel.counter tel "search.memo_hits";
    memo_misses = Tel.counter tel "search.memo_misses";
  }

type state = {
  cfg : config;
  model : Cost.Model.t;
  lib : Stub.library;
  started : float;
  tel : Tel.t;
  c : counters;
  keyc : Spec.key_counters;
      (* per-run spec-key attribution; installed as the ambient cell in
         every worker domain of this search *)
  (* The branch-and-bound bound is shared by every domain working on the
     search, so a complete program found by one worker prunes all the
     others.  It only ever decreases (see [relax]). *)
  cost_min : float Atomic.t;
  memo : (Dsl.Ast.t * float) Spec.Tbl.t;
  observe : observer option;
}

and observer =
  visited:Spec.t list -> Spec.t -> (Invert.decomposition * float) list -> unit

(* Monotone atomic minimum: safe for concurrent publishers because a
   failed CAS means someone else lowered the bound, which we then
   re-read. *)
let rec relax a v =
  let cur = Atomic.get a in
  if v < cur && not (Atomic.compare_and_set a cur v) then relax a v

(* A complete top-level program tightens the global bound; the bound
   trajectory over time is the telemetry signal the paper's B&B-vs-
   simplification-only comparison is about. *)
let publish_bound st cost =
  relax st.cost_min cost;
  if Tel.enabled st.tel then
    Tel.gauge st.tel "search.bound" (Atomic.get st.cost_min)

let check_budget st =
  if
    Tel.Counter.get st.c.nodes > st.cfg.node_budget
    || Unix.gettimeofday () -. st.started > st.cfg.timeout
  then raise Out_of_budget

(* Cheapest base-case match for a spec: a library stub (exact shape; or,
   in hole position, one that broadcasts to it), a conjured constant, or
   a [full] of a conjured constant at top level. *)
let match_spec st ~top spec =
  let candidates = ref [] in
  let consider prog cost = candidates := (prog, cost) :: !candidates in
  (match Stub.lookup_exact st.lib spec with
  | Some s -> consider s.Stub.prog s.Stub.cost
  | None -> ());
  (if not top then
     match Stub.lookup_broadcast st.lib spec with
     | Some s -> consider s.Stub.prog s.Stub.cost
     | None -> ());
  (match Spec.to_const spec with
  | Some q ->
      let c = Ast.Const (Symbolic.Q.to_float q) in
      let shape = Spec.shape spec in
      if (not top) || Shape.rank shape = 0 then consider c 0.
      else
        consider
          (Ast.App (Ast.Full shape, [ c ]))
          (st.model.Cost.Model.op_cost (Ast.Full shape) [ Types.scalar_f ])
  | None -> ());
  match List.sort (fun (_, c1) (_, c2) -> compare c1 c2) !candidates with
  | (prog, cost) :: _ -> Some (prog, cost)
  | [] -> None

let structural_tie_op = function
  | Ast.Transpose _ -> true
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow_op | Ast.Maximum
  | Ast.Sqrt | Ast.Exp | Ast.Log | Ast.Dot | Ast.Tensordot _ | Ast.Sum _
  | Ast.Max _ | Ast.Stack _ | Ast.Where | Ast.Less | Ast.Triu | Ast.Tril
  | Ast.Diag | Ast.Trace | Ast.Reshape _ | Ast.Full _ ->
      false

(* A hole whose spec is uniform along some axes will be realized by a
   broadcastable (collapsed) operand — e.g. a residual tensor of all 4s
   becomes the scalar constant 4 — so the operation is costed at the
   collapsed shape. *)
let vt_of_spec spec : Types.vt =
  Types.float_t (Spec.shape (Spec.collapse spec))

let decomp_op_cost st (d : Invert.decomposition) =
  let arg_ts =
    List.map
      (function
        | Invert.P_hole h -> vt_of_spec h
        | Invert.P_conc s -> s.Stub.vt)
      d.parts
  in
  match st.model.Cost.Model.op_cost d.op arg_ts with
  | c -> Some c
  | exception Types.Type_error _ -> None

(* The decompositions worth recursing into — those that simplify (or
   structurally tie) and have no hole on the path — annotated with their
   immediate cost and sorted cheapest-first.  Shared by the sequential
   recursion and the parallel root.  [visited] is the list of specs on
   the current path, at most [max_depth] long, so a linear scan with
   {!Spec.equal} beats building any key per hole.

   SOLVE runs under PRUNE's budget: the solver skips the elementwise
   holes the simplification test would reject before building them, and
   recombination runs only on what the filter keeps.  The verdicts are
   the ones the filter would give on every candidate, built and
   recombined.  Without simplification there is no
   budget: every candidate is built. *)
let viable_decomps st ~visited spec =
  let spec_cx = Spec.complexity spec in
  let budget = if st.cfg.use_simplification then Some spec_cx else None in
  let ds = Invert.candidates ~tel:st.tel ?budget st.lib spec in
  Tel.Counter.add st.c.decomps (List.length ds);
  let viable =
    List.filter_map
      (fun (d : Invert.decomposition) ->
        let holes = Invert.hole_specs d in
        let on_path h = List.exists (Spec.equal h) visited in
        if List.exists on_path holes then None
        else
          let simplifies =
            if not st.cfg.use_simplification then true
            else
              let cxs = List.map Spec.complexity holes in
              let avg =
                List.fold_left ( +. ) 0. cxs
                /. float_of_int (max 1 (List.length cxs))
              in
              avg < spec_cx
              || (avg = spec_cx && structural_tie_op d.op)
          in
          if not simplifies then begin
            Tel.Counter.incr st.c.pruned_simp;
            None
          end
          else if not (Invert.recombines spec d) then None
          else begin
            Tel.Counter.incr st.c.solved;
            match decomp_op_cost st d with
            | None -> None
            | Some opc -> Some (d, holes, opc +. Invert.conc_cost d)
          end)
      ds
  in
  let viable =
    List.sort (fun (_, _, c1) (_, _, c2) -> compare c1 c2) viable
  in
  Option.iter
    (fun f -> f ~visited spec (List.map (fun (d, _, c) -> (d, c)) viable))
    st.observe;
  viable

(* Algorithm 2. *)
let rec dfs st ~level ~visited ~cost_in spec : (Dsl.Ast.t * float) option =
  Tel.Counter.incr st.c.nodes;
  check_budget st;
  let top = level = 0 in
  (* Base case: direct template match (Algorithm 2 lines 2-8).  A match
     ends the branch only when it is free (an input, constant, or other
     zero-cost leaf) — those cannot be beaten.  An expensive matching
     stub (the library also contains e.g. the original program itself)
     instead seeds the bound while decomposition continues, otherwise
     the search could never improve on a library entry. *)
  match match_spec st ~top spec with
  | Some (prog, cost) when (not top) && cost = 0. -> Some (prog, cost)
  | matched ->
      if level >= st.cfg.max_depth then matched
      else
        let memo_hit = Spec.Tbl.find_opt st.memo spec in
        Tel.Counter.incr
          (if Option.is_some memo_hit then st.c.memo_hits
           else st.c.memo_misses);
        (match memo_hit with
        | Some (prog, cost) ->
            if
              (not st.cfg.use_bnb)
              || cost_in +. cost <= Atomic.get st.cost_min
            then Some (prog, cost)
            else None
        | None ->
            let visited = spec :: visited in
            let viable = viable_decomps st ~visited spec in
            let best = ref None in
            let best_cost = ref infinity in
            let best_idx = ref (-1) in
            (match matched with
            | Some (prog, cost) ->
                best := Some prog;
                best_cost := cost;
                (* Only a top-level match is a complete program; deeper
                   in the tree, [cost_in] excludes sibling holes that
                   are still unsynthesized, so tightening the global
                   bound here would over-prune. *)
                if top && st.cfg.use_bnb then publish_bound st cost
            | None -> ());
            List.iteri
              (fun idx dhi ->
                explore st ~top ~level ~visited ~cost_in spec ~best
                  ~best_cost ~best_idx idx dhi)
              viable;
            Option.map
              (fun prog ->
                Spec.Tbl.replace st.memo spec (prog, !best_cost);
                (prog, !best_cost))
              !best)

(* Synthesize the holes of one decomposition, updating the running best
   (and, at top level, the global bound).  [best_idx] records which
   decomposition produced the running best — the deterministic
   tie-breaker when parallel workers merge their results. *)
and explore st ~top ~level ~visited ~cost_in spec ~best ~best_cost ~best_idx
    idx ((d : Invert.decomposition), holes, immediate) =
  let cost_total = ref (cost_in +. immediate) in
  (* Local bound: holes cost at least zero, so a sketch whose own
     operations already exceed this node's best candidate (often the
     direct match) cannot win.  Equal-cost sketches are NOT pruned —
     here or against the global bound below — because ties are decided
     by the (program size, decomposition index) rule, and that rule is
     only deterministic if every tying candidate is actually explored.
     This is what makes the parallel root fan-out return byte-identical
     results to the sequential engine: bound-publication timing can only
     cut strictly-losing branches, never a potential winner. *)
  if immediate > !best_cost then
    Tel.Counter.incr st.c.pruned_bnb_local
  else if st.cfg.use_bnb && !cost_total > Atomic.get st.cost_min then
    Tel.Counter.incr st.c.pruned_bnb_global
  else begin
    let progs = ref [] in
    let ok = ref true in
    List.iter
      (fun hole ->
        if !ok then
          if st.cfg.use_bnb && !cost_total > Atomic.get st.cost_min then begin
            Tel.Counter.incr st.c.pruned_bnb_hole;
            ok := false
          end
          else
            match
              dfs st ~level:(level + 1) ~visited ~cost_in:!cost_total hole
            with
            | None -> ok := false
            | Some (p, c) ->
                progs := p :: !progs;
                cost_total := !cost_total +. c)
      holes;
    if !ok then begin
      let local = !cost_total -. cost_in in
      let prog = Invert.reconstruct d (List.rev !progs) in
      (* A hole may have been filled by a broadcastable (collapsed)
         program; that is only legitimate where the assembled sketch
         still produces the spec's value — ill-typed combinations and
         shape mismatches are rejected here.  Non-top results may
         broadcast to the spec (their elementwise consumers restore the
         full extent). *)
      let shape_ok =
        match Types.check (Stub.env st.lib) prog with
        | Error _ -> false
        | Ok vt ->
            let sshape = Spec.shape spec in
            Shape.equal vt.shape sshape
            || (not top)
               &&
               (match Shape.broadcast vt.shape sshape with
               | Some s -> Shape.equal s sshape
               | None -> false)
      in
      if not shape_ok then ok := false;
      if !ok then begin
      (* Ties (common under the integral FLOPs model, e.g. a zero-cost
         transpose pair) break toward the syntactically smaller
         program. *)
      let better =
        local < !best_cost
        || local = !best_cost
           &&
           match !best with
           | Some b -> Ast.size prog < Ast.size b
           | None -> true
      in
      if better then begin
        best_cost := local;
        best := Some prog;
        best_idx := idx
      end;
      if top && st.cfg.use_bnb then publish_bound st !cost_total
      end
    end
  end

(* The root of Algorithm 2 with the viable top-level decompositions
   distributed round-robin over a fixed pool of domains; [jobs = 1] is
   the sequential engine (same code path, no domains spawned).  Workers
   share the branch-and-bound bound and the statistics counters — so the
   node budget is one global budget regardless of [jobs] — but keep
   private memo tables; results merge by minimal
   (cost, program size, decomposition index), which reproduces the
   sequential iteration's "first minimal (cost, size) wins" rule, with
   the direct match carrying index -1.

   A worker that runs out of budget keeps the best complete program it
   has found so far (anytime behaviour): the budget exception is caught
   per worker, not propagated through the root, so an expired budget
   degrades the answer instead of discarding it. *)
let search_root ~jobs st spec =
  Tel.Counter.incr st.c.nodes;
  check_budget st;
  let matched = match_spec st ~top:true spec in
  if st.cfg.max_depth <= 0 then (matched, false)
  else begin
    let visited = [ spec ] in
    let viable = viable_decomps st ~visited spec in
    (match matched with
    | Some (_, cost) when st.cfg.use_bnb -> publish_bound st cost
    | _ -> ());
    let viable = Array.of_list viable in
    let n = Array.length viable in
    let jobs = max 1 (min jobs n) in
    let worker w =
      Spec.with_counters st.keyc @@ fun () ->
      let stw = { st with memo = Spec.Tbl.create 256 } in
      let best = ref None and best_cost = ref infinity in
      let best_idx = ref (-1) in
      (match matched with
      | Some (prog, cost) ->
          best := Some prog;
          best_cost := cost
      | None -> ());
      let timed_out = ref false in
      (try
         let i = ref w in
         while !i < n do
           explore stw ~top:true ~level:0 ~visited ~cost_in:0. spec ~best
             ~best_cost ~best_idx !i viable.(!i);
           i := !i + jobs
         done
       with Out_of_budget -> timed_out := true);
      (!best, !best_cost, !best_idx, !timed_out)
    in
    let outs = Par.map_array ~jobs worker (Array.init jobs (fun w -> w)) in
    let best =
      ref
        (match matched with
        | Some (p, c) -> Some (p, c, Ast.size p, -1)
        | None -> None)
    in
    let timed_out = ref false in
    Array.iter
      (fun (b, bc, bi, t_o) ->
        if t_o then timed_out := true;
        match b with
        | Some p when bi >= 0 ->
            let size = Ast.size p in
            let replace =
              match !best with
              | None -> true
              | Some (_, c0, s0, i0) -> (bc, size, bi) < (c0, s0, i0)
            in
            if replace then best := Some (p, bc, size, bi)
        | Some _ | None -> ())
      outs;
    ( (match !best with Some (p, c, _, _) -> Some (p, c) | None -> None),
      !timed_out )
  end

let run ?(tel = Tel.null) ?(config = default_config) ?stub_cache ?observe
    ~model ~env ~spec ~initial_bound ~consts () =
  let started = Unix.gettimeofday () in
  (* The timeout counts from here with and without a cache, so it covers
     the library build as [stats.elapsed] does. *)
  let lib =
    let stub_config =
      {
        config.stub_config with
        Stub.deadline = Some (started +. config.timeout);
      }
    in
    Tel.span tel "phase.stub_enum" (fun () ->
        Stub.resolve ?cache:stub_cache ~config:stub_config ~tel ~model ~consts
          env)
  in
  let keyc = Spec.fresh_counters () in
  Spec.with_counters keyc @@ fun () ->
  let st =
    {
      cfg = config;
      model;
      lib;
      started;
      tel;
      c = make_counters tel;
      keyc;
      cost_min = Atomic.make initial_bound;
      memo = Spec.Tbl.create 256;
      observe;
    }
  in
  let outcome, timed_out =
    Tel.span tel "phase.search" (fun () ->
        match search_root ~jobs:(max 1 config.jobs) st spec with
        | r -> r
        | exception Out_of_budget ->
            (* The budget expired before the root finished setting up
               (first node or root decomposition listing). *)
            (None, true))
  in
  let elapsed = Unix.gettimeofday () -. started in
  let pruned_bnb =
    Tel.Counter.get st.c.pruned_bnb_local
    + Tel.Counter.get st.c.pruned_bnb_global
    + Tel.Counter.get st.c.pruned_bnb_hole
  in
  let stats =
    {
      nodes = Tel.Counter.get st.c.nodes;
      decomps = Tel.Counter.get st.c.decomps;
      pruned_simp = Tel.Counter.get st.c.pruned_simp;
      pruned_bnb;
      memo_hits = Tel.Counter.get st.c.memo_hits;
      memo_misses = Tel.Counter.get st.c.memo_misses;
      elapsed;
      timed_out;
      library_size = Stub.size lib;
    }
  in
  if Tel.enabled tel then begin
    (* Per-run attribution: this run's own cell, not the process-wide
       totals — concurrent traced runs no longer double-count. *)
    let key_builds, key_secs = Spec.counters_stats keyc in
    Tel.add tel "spec.key_builds" key_builds;
    Tel.Acc.add (Tel.acc tel "spec.key_build_seconds") key_secs;
    Tel.event tel "search.summary"
      [
        ("nodes", Tel.Int stats.nodes);
        ("decomps", Tel.Int stats.decomps);
        ("pruned_simp", Tel.Int stats.pruned_simp);
        ("pruned_bnb", Tel.Int pruned_bnb);
        ("memo_hits", Tel.Int stats.memo_hits);
        ("memo_misses", Tel.Int stats.memo_misses);
        ("library_size", Tel.Int stats.library_size);
        ("elapsed", Tel.Float elapsed);
        ( "node_rate",
          Tel.Float
            (if elapsed > 0. then float_of_int stats.nodes /. elapsed else 0.)
        );
        ("timed_out", Tel.Bool timed_out);
      ]
  end;
  match outcome with
  | Some (program, cost) -> { program = Some program; cost; stats }
  | None -> { program = None; cost = infinity; stats }
