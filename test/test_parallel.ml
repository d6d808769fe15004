(* The Domain-based parallel engine: stub enumeration, the root-level
   search fan-out, and the suite driver must all return byte-identical
   results to their sequential counterparts (deterministic FLOPs
   estimator throughout). *)
open Dsl
open Stenso

let model = Cost.Model.flops
let jobs = 4

let test_par_map () =
  let xs = List.init 100 (fun i -> i) in
  Alcotest.(check (list int))
    "ordered" (List.map succ xs)
    (Par.map ~jobs succ xs);
  Alcotest.(check (list int))
    "chunked" (List.map succ xs)
    (Par.map ~jobs ~chunk:7 succ xs);
  (* exceptions surface, smallest index first, after all domains join *)
  match
    Par.map ~jobs (fun i -> if i >= 50 then failwith (string_of_int i) else i) xs
  with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure i -> Alcotest.(check string) "first failure" "50" i

(* Nested parallelism: a [Par.map] inside a pool worker (and a compiled
   VM run, which uses the same pool for its strips) must fall back to
   inline execution instead of deadlocking on the shared worker set —
   and still produce the same values. *)
let test_par_nested () =
  let xs = List.init 20 (fun i -> i) in
  let inner i = List.init 10 (fun j -> (i * 10) + j) in
  let nested =
    Par.map ~jobs (fun i -> Par.map ~jobs succ (inner i)) xs
  in
  Alcotest.(check (list (list int)))
    "nested map matches sequential"
    (List.map (fun i -> List.map succ (inner i)) xs)
    nested;
  let env = [ ("A", Types.float_t [| 128; 128 |]) ] in
  let prog = Parser.expression "np.sum(A * A + A)" in
  let compiled = Exec.compile ~env prog in
  let st = Random.State.make [| 9 |] in
  let inputs = Interp.random_inputs st env in
  let direct = Exec.run compiled (fun n -> List.assoc n inputs) in
  let inside =
    Par.map ~jobs
      (fun _ -> Exec.run compiled (fun n -> List.assoc n inputs))
      xs
  in
  List.iter
    (fun r ->
      if not (Tensor.Ftensor.allclose ~rtol:0. ~atol:0. direct r) then
        Alcotest.fail "VM result changed when run inside a pool worker")
    inside

let stub_signature lib =
  List.map
    (fun (s : Stub.t) -> (Ast.to_string s.prog, s.cost, s.depth))
    (Stub.stubs lib)

let test_stub_enumeration_deterministic () =
  List.iter
    (fun name ->
      let b = Suite.Benchmarks.find name in
      let consts = Superopt.consts_of b.program in
      let enum jobs =
        Stub.enumerate
          ~config:{ Stub.default_config with jobs }
          ~model ~consts b.env
      in
      let seq = enum 1 and par = enum jobs in
      Alcotest.(check int) (name ^ " size") (Stub.size seq) (Stub.size par);
      Alcotest.(check int)
        (name ^ " attempts") (Stub.attempts seq) (Stub.attempts par);
      if stub_signature seq <> stub_signature par then
        Alcotest.failf "%s: stub libraries differ between jobs=1 and jobs=%d"
          name jobs)
    [ "diag_dot"; "common_factor"; "sum_stack" ]

let search_config jobs =
  {
    Search.default_config with
    jobs;
    stub_config = { Search.default_config.stub_config with jobs };
  }

let run_search config (b : Suite.Benchmarks.t) =
  let spec = Sexec.exec_env b.env b.program in
  let bound = Cost.Model.program_cost model b.env b.program in
  Search.run ~config ~model ~env:b.env ~spec ~initial_bound:bound
    ~consts:(Superopt.consts_of b.program) ()

let test_search_deterministic () =
  (* Parallel and sequential search must agree on the synthesized
     program (syntactically) and its cost across a sample of the
     suite. *)
  List.iter
    (fun name ->
      let b = Suite.Benchmarks.find name in
      let seq = run_search (search_config 1) b in
      let par = run_search (search_config jobs) b in
      let render (r : Search.result) =
        match r.program with
        | Some p -> Printf.sprintf "%s @ %.17g" (Ast.to_string p) r.cost
        | None -> "none"
      in
      Alcotest.(check string) name (render seq) (render par))
    [
      "diag_dot"; "log_exp_1"; "scalar_sum"; "common_factor"; "sum_sum";
      "sum_stack"; "sum_diag_dot"; "max_stack"; "trace_dot"; "synth_2";
      "synth_7"; "synth_9"; "synth_12";
    ]

let test_driver_deterministic () =
  let benches =
    List.map Suite.Benchmarks.find [ "diag_dot"; "common_factor"; "synth_2" ]
  in
  let config = Config.default |> Config.with_estimator `Flops in
  let render (d : Suite.Driver.t) =
    List.map
      (fun (r : Suite.Driver.bench_result) ->
        Printf.sprintf "%s %b %.17g %s" r.bench.name r.outcome.improved
          r.outcome.optimized_cost
          (Ast.to_string r.outcome.optimized))
      d.results
  in
  let seq = Suite.Driver.run ~config ~jobs:1 benches in
  let par = Suite.Driver.run ~config ~jobs benches in
  Alcotest.(check (list string)) "driver results" (render seq) (render par);
  (* results arrive in input order even though completion order is
     scheduler-dependent *)
  Alcotest.(check (list string))
    "input order"
    (List.map (fun (b : Suite.Benchmarks.t) -> b.name) benches)
    (List.map
       (fun (r : Suite.Driver.bench_result) -> r.bench.name)
       par.results)

let test_parallel_improves_suite_sample () =
  (* End to end through the builder surface with jobs > 1. *)
  let b = Suite.Benchmarks.find "diag_dot" in
  let config =
    Config.default |> Config.with_estimator `Flops |> Config.with_jobs jobs
  in
  let o = Superopt.optimize ~config ~env:b.env b.program in
  Alcotest.(check bool) "improved" true o.improved;
  Alcotest.(check bool) "verified" true o.verified;
  Alcotest.(check bool) "equivalent" true
    (Sexec.equivalent b.env b.program o.optimized)

(* The concrete-operand index of a library shared through [Stub.Cache]:
   two domains that take the library from the cache and force its index
   at the same moment get one index, equal to that of a library
   enumerated and indexed by a single domain. *)
let test_operand_index_shared () =
  let env =
    [ ("A", Types.float_t [| 3; 4 |]); ("B", Types.float_t [| 4; 3 |]) ]
  in
  let cache = Stub.Cache.create () in
  let arrived = Atomic.make 0 in
  let force () =
    let lib, _ = Stub.Cache.enumerate cache ~model ~consts:[ 1. ] env in
    Atomic.incr arrived;
    while Atomic.get arrived < 2 do
      Domain.cpu_relax ()
    done;
    Stub.index lib
  in
  let other = Domain.spawn force in
  let mine = force () in
  let theirs = Domain.join other in
  Alcotest.(check bool) "both domains hold one index" true (mine == theirs);
  let summary (ix : Stub.index) =
    let vars s =
      List.map Symbolic.Sym.to_string (Symbolic.Sym.Set.elements s)
    in
    let named (s : Stub.t) v = (Ast.to_string s.prog, vars v) in
    ( List.map
        (fun (o : Stub.operand) ->
          (named o.stub o.vars, Array.to_list (Array.map vars o.elem_vars)))
        ix.concrete,
      List.map (fun (s : Stub.t) -> Ast.to_string s.prog) ix.planes,
      List.map (fun (s, v) -> named s v) ix.masks )
  in
  let alone =
    Stub.index (Stub.enumerate ~model ~consts:[ 1. ] env)
  in
  Alcotest.(check bool) "equal to a single-domain index" true
    (summary mine = summary alone);
  Alcotest.(check bool) "operands indexed" true (mine.concrete <> [])

let suite =
  [
    Alcotest.test_case "Par.map ordering and exceptions" `Quick test_par_map;
    Alcotest.test_case "nested parallelism falls back inline" `Quick
      test_par_nested;
    Alcotest.test_case "stub enumeration deterministic" `Quick
      test_stub_enumeration_deterministic;
    Alcotest.test_case "search deterministic vs sequential" `Slow
      test_search_deterministic;
    Alcotest.test_case "suite driver deterministic" `Slow
      test_driver_deterministic;
    Alcotest.test_case "parallel end-to-end via Config" `Quick
      test_parallel_improves_suite_sample;
    Alcotest.test_case "operand index shared across domains" `Quick
      test_operand_index_shared;
  ]
