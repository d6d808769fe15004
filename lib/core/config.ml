type estimator = [ `Flops | `Roofline | `Measured ]

type t = {
  search : Search.config;
  estimator : estimator;
  cost_cache : string option;
  engine : Texec.Engine.kind;
  exec : Texec.Engine.Options.t;
  rules_depth : int option;
}

let default =
  {
    search = Search.default_config;
    estimator = `Measured;
    cost_cache = None;
    engine = `Vm;
    exec = Texec.Engine.Options.default;
    rules_depth = None;
  }

let with_timeout timeout t = { t with search = { t.search with timeout } }

let with_jobs jobs t =
  {
    t with
    search =
      {
        t.search with
        jobs;
        stub_config = { t.search.stub_config with Stub.jobs };
      };
  }

let with_estimator estimator t = { t with estimator }

let with_rules_depth d t =
  { t with rules_depth = (if d > 0 then Some d else None) }
let with_cost_cache file t = { t with cost_cache = Some file }
let with_engine engine t = { t with engine }
let with_exec_options exec t = { t with exec }
let with_bnb use_bnb t = { t with search = { t.search with use_bnb } }

let with_simplification use_simplification t =
  { t with search = { t.search with use_simplification } }

let with_extended_ops extended_ops t =
  {
    t with
    search =
      {
        t.search with
        stub_config = { t.search.stub_config with Stub.extended_ops };
      };
  }

let with_max_depth max_depth t =
  { t with search = { t.search with max_depth } }

let with_node_budget node_budget t =
  { t with search = { t.search with node_budget } }

let search_config t = t.search
let rules_depth t = t.rules_depth
let jobs t = t.search.Search.jobs
let timeout t = t.search.Search.timeout
let estimator t = t.estimator
let engine t = t.engine
let exec_options t = t.exec
let engine_name = Texec.Engine.kind_name

let engine_of_string s =
  match Texec.Engine.kind_of_string s with
  | Some k -> Ok k
  | None -> Error (Printf.sprintf "unknown execution engine %S" s)

let model ?tel t =
  match t.estimator with
  | `Flops -> Cost.Model.flops
  | `Roofline -> Cost.Model.roofline ()
  | `Measured ->
      Cost.Model.measured ?tel ~engine:t.engine ~exec_options:t.exec
        ?cache_file:t.cost_cache ()

let estimator_of_string = function
  | "flops" -> Ok `Flops
  | "roofline" -> Ok `Roofline
  | "measured" -> Ok `Measured
  | other -> Error (Printf.sprintf "unknown cost estimator %S" other)

let estimator_name = function
  | `Flops -> "flops"
  | `Roofline -> "roofline"
  | `Measured -> "measured"

(* Everything that determines the search's *result*, canonically
   rendered.  [jobs] is excluded (the engine is deterministic in it) and
   so is [cost_cache] (a warm profiling table changes measured values,
   but the measured estimator is already declared non-reproducible by
   its [est=measured] tag).  [timeout] and [node_budget] stay in: an
   expired budget changes the anytime answer, so outcomes are cached per
   budget.  Of the exec options, fusion/reduction-fusion/tile stay in
   (they change the kernels the measured estimator times, hence costs,
   hence outcomes) while [domains] is excluded like [jobs]: VM results
   are bitwise-independent of it by construction, and its default is
   machine-derived. *)
let fingerprint t =
  let s = t.search in
  let stub = s.Search.stub_config in
  let inv = s.Search.invert_config in
  let module O = Texec.Engine.Options in
  Printf.sprintf
    "cfg:est=%s;eng=%s;exec[fus=%b,red=%b,tile=%d];bnb=%b;simp=%b;budget=%d;timeout=%.17g;depth=%d;memo=%b;stub[d=%d,max=%d,ext=%b,full=%b];inv[conc=%d,split=%d]"
    (estimator_name t.estimator)
    (engine_name t.engine)
    (O.fusion t.exec) (O.reduction_fusion t.exec) (O.tile t.exec)
    s.Search.use_bnb s.Search.use_simplification s.Search.node_budget
    s.Search.timeout s.Search.max_depth s.Search.memoize stub.Stub.depth
    stub.Stub.max_stubs stub.Stub.extended_ops stub.Stub.full_binary
    inv.Invert.max_conc_depth inv.Invert.max_split_terms
  (* Appended only when tiering is on, so every fingerprint (and hence
     every outcome-store key) produced before the tiered optimizer
     existed is byte-identical to an untiered run's today. *)
  ^ match t.rules_depth with
    | None -> ""
    | Some d -> Printf.sprintf ";rules=%d" d
