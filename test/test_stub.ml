(* Stub enumeration (Section IV-B). *)
open Dsl
open Stenso

let env2 = [ ("A", Types.float_t [| 2; 2 |]); ("B", Types.float_t [| 2; 2 |]) ]
let model = Cost.Model.flops
let lib ?config env = Stub.enumerate ?config ~model ~consts:[ 1. ] env

let find_spec lib env src =
  Stub.lookup_exact lib (Sexec.exec_env env (Parser.expression src))

let test_contents () =
  let l = lib env2 in
  (* atoms *)
  Alcotest.(check int) "two inputs + one const atom" 3
    (List.length (Stub.atoms l));
  (* depth-1 and depth-2 programs are present semantically *)
  List.iter
    (fun src ->
      match find_spec l env2 src with
      | Some _ -> ()
      | None -> Alcotest.failf "missing stub equivalent to %s" src)
    [
      "A"; "np.add(A, B)"; "np.dot(A, B)"; "np.transpose(A)";
      "np.sum(A, axis=0)"; "np.sum(np.multiply(A, B), axis=1)";
      "np.dot(np.transpose(A), B)"; "np.sqrt(A)"; "np.maximum(A, B)";
      "np.subtract(1, A)";
    ]

let test_semantic_dedup () =
  let l = lib env2 in
  (* transpose(transpose(A)) deduplicates onto the atom A *)
  match find_spec l env2 "np.transpose(np.transpose(A))" with
  | Some s ->
      Alcotest.(check string) "cheapest representative wins" "A"
        (Ast.to_string s.Stub.prog);
      Alcotest.(check (float 0.)) "zero cost" 0. s.cost
  | None -> Alcotest.fail "A must be in the library"

let test_depth_limit () =
  let config = { Stub.default_config with depth = 1 } in
  let l = lib ~config env2 in
  (match find_spec l env2 "np.add(A, B)" with
  | Some _ -> ()
  | None -> Alcotest.fail "depth-1 stub missing");
  (* a genuinely depth-2 semantics must be absent at depth 1 *)
  match find_spec l env2 "np.sqrt(np.dot(A, B))" with
  | Some _ -> Alcotest.fail "depth-2 stub present at depth 1"
  | None -> ()

let test_budget_cap () =
  let config = { Stub.default_config with max_stubs = 10 } in
  let l = lib ~config env2 in
  Alcotest.(check bool) "cap reported" true (Stub.truncated l);
  Alcotest.(check bool) "cap respected" true (Stub.size l <= 10)

let test_deadline () =
  let config =
    { Stub.default_config with deadline = Some (Unix.gettimeofday () -. 1.) }
  in
  let l = lib ~config env2 in
  Alcotest.(check bool) "expired deadline truncates" true (Stub.truncated l);
  (* The deadline is consulted on every attempt, not every 2^k-th: with
     an already-expired deadline the enumeration stops at the first
     post-atom candidate, so only the depth-0 atoms can register. *)
  Alcotest.(check bool)
    "expired deadline stops at the first attempt" true
    (Stub.size l <= List.length (Stub.atoms l) + 1)

let test_costs_monotone () =
  let l = lib env2 in
  List.iter
    (fun (s : Stub.t) ->
      if Stdlib.not (s.cost >= 0.) then
        Alcotest.failf "negative cost for %s" (Ast.to_string s.prog))
    (Stub.stubs l);
  (* every stub type-checks and its recorded semantics match a fresh
     symbolic execution *)
  List.iter
    (fun (s : Stub.t) ->
      match Types.check env2 s.prog with
      | Error m -> Alcotest.failf "ill-typed stub %s: %s" (Ast.to_string s.prog) m
      | Ok vt ->
          if Stdlib.not (Types.equal_vt vt s.vt) then
            Alcotest.failf "stub vt mismatch for %s" (Ast.to_string s.prog);
          let sem = Sexec.exec_env env2 s.prog in
          if Stdlib.not (Spec.equal sem s.sem) then
            Alcotest.failf "stub semantics drifted for %s"
              (Ast.to_string s.prog))
    (Stub.stubs l)

let test_full_binary_superset () =
  let small = { Stub.default_config with max_stubs = 1_000_000 } in
  let full = { small with full_binary = true } in
  let l1 = lib ~config:small env2 in
  let l2 = lib ~config:full env2 in
  Alcotest.(check bool) "full enumeration is larger" true
    (Stub.size l2 >= Stub.size l1 && Stub.attempts l2 > Stub.attempts l1)

let test_cache_rejects_truncated () =
  (* A deadline- or cap-truncated library is complete only for the run
     that built it; serving it from the cache would hand later requests
     a partial library as if it were the full bounded space. *)
  let cache = Stub.Cache.create () in
  let capped = { Stub.default_config with max_stubs = 5 } in
  let l1, shared1 =
    Stub.Cache.enumerate cache ~config:capped ~model ~consts:[ 1. ] env2
  in
  Alcotest.(check bool) "capped run truncates" true (Stub.truncated l1);
  Alcotest.(check bool) "first build not shared" false shared1;
  let _, shared2 =
    Stub.Cache.enumerate cache ~config:capped ~model ~consts:[ 1. ] env2
  in
  Alcotest.(check bool) "truncated library never served from cache" false
    shared2;
  (* an untruncated library for the same fingerprint shape is shared *)
  let _, s1 = Stub.Cache.enumerate cache ~model ~consts:[ 1. ] env2 in
  let _, s2 = Stub.Cache.enumerate cache ~model ~consts:[ 1. ] env2 in
  Alcotest.(check bool) "complete library built once" false s1;
  Alcotest.(check bool) "complete library cached" true s2

let test_const_stub () =
  let l = lib env2 in
  match Stub.const_stub l (Symbolic.Q.of_int 4) with
  | Some s ->
      Alcotest.(check string) "conjured constant" "4" (Ast.to_string s.prog)
  | None -> Alcotest.fail "const_stub must produce a constant"

(* A digest of a library in library order: program text, cost, depth
   and persistent spec key of every stub.  Enumeration shortcuts (no
   repeated candidates, no swapped-operand twins, operand-type
   inference) must leave it byte-identical. *)
let library_digest lib =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (s : Stub.t) ->
      Printf.bprintf buf "%s|%h|%d|%s\n" (Ast.to_string s.prog) s.cost
        s.depth (Spec.key s.sem))
    (Stub.stubs lib);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let benchmark_library name =
  let b = Suite.Benchmarks.find name in
  Stub.enumerate ~model ~consts:(Superopt.consts_of b.program) b.env

(* Pinned on the enumeration that attempted every candidate, repeats
   and twins included. *)
let pinned_libraries =
  [
    ("diag_dot", "2ecf05e27af1ff9e3392da27470aff97");
    ("common_factor", "1c253ee26e39ab42e0da89e58c9d6d3b");
    ("layernorm", "34b4b8f2b08c6cf8c13292c3a6d1c12e");
    ("gelu_tanh", "642ce2b2777fb0680390d33639bf7dbe");
  ]

let test_library_digests () =
  List.iter
    (fun (name, digest) ->
      Alcotest.(check string)
        (name ^ " library") digest
        (library_digest (benchmark_library name)))
    pinned_libraries;
  let full = { Stub.default_config with full_binary = true } in
  Alcotest.(check string) "full-binary library" "5f5e4e98d67f9e0ab1b4e408dfb895f5"
    (library_digest (lib ~config:full env2))

(* Rule mining reads enumeration through [on_dup]: with an observer
   attached, the reported sequence (program text and cost, in report
   order, repeats included) must be the one the exhaustive enumeration
   reports. *)
let dup_sequence_digest ?(jobs = 1) env =
  let buf = Buffer.create 65536 in
  let on_dup (s : Stub.t) =
    Printf.bprintf buf "%s|%h\n" (Ast.to_string s.prog) s.cost
  in
  ignore
    (Stub.enumerate
       ~config:(Rules_db.mine_config ~jobs ~depth:2 ())
       ~on_dup ~model ~consts:Rules_db.standard_consts env);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_dup_sequence () =
  List.iter
    (fun (name, digest) ->
      Alcotest.(check string)
        (name ^ " duplicate sequence") digest
        (dup_sequence_digest (Suite.Benchmarks.find name).env))
    [
      ("diag_dot", "1eb2a25681e5e966c799d1eb50990b44");
      ("common_factor", "26e405a2ed746520a13917ae8ef891ab");
      ("softmax_vec", "246511a13133c57d75045c8a36dd2c5c");
    ];
  Alcotest.(check string) "2x2 pair duplicate sequence"
    "bf3e831fa6a877449b9e94cf763fc760"
    (dup_sequence_digest env2);
  Alcotest.(check string) "2x2 pair duplicate sequence, 2 domains"
    "bf3e831fa6a877449b9e94cf763fc760"
    (dup_sequence_digest ~jobs:2 env2)

let suite =
  [
    Alcotest.test_case "library contents" `Quick test_contents;
    Alcotest.test_case "semantic deduplication" `Quick test_semantic_dedup;
    Alcotest.test_case "depth limit" `Quick test_depth_limit;
    Alcotest.test_case "stub budget" `Quick test_budget_cap;
    Alcotest.test_case "deadline" `Quick test_deadline;
    Alcotest.test_case "stub invariants" `Quick test_costs_monotone;
    Alcotest.test_case "full binary enumeration" `Quick
      test_full_binary_superset;
    Alcotest.test_case "cache rejects truncated" `Quick
      test_cache_rejects_truncated;
    Alcotest.test_case "conjured constants" `Quick test_const_stub;
    Alcotest.test_case "library digests" `Quick test_library_digests;
    Alcotest.test_case "duplicate sequence" `Quick test_dup_sequence;
  ]
