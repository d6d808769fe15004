(* Concrete interpretation and symbolic execution, including the
   differential property that ties them together: evaluating the
   symbolic tensor under a concrete assignment must agree with direct
   interpretation.  This is the soundness argument for using symbolic
   equality as the synthesis specification. *)
open Dsl
module F = Tensor.Ftensor

let ft = Alcotest.testable F.pp (F.allclose ~rtol:1e-9 ~atol:1e-12)

let test_interp_basics () =
  let env = [ ("A", F.of_array [| 2; 2 |] [| 1.; 2.; 3.; 4. |]) ] in
  let run src = Interp.eval_alist env (Parser.expression src) in
  Alcotest.check ft "A + A" (F.of_array [| 2; 2 |] [| 2.; 4.; 6.; 8. |])
    (run "A + A");
  Alcotest.check ft "dot" (F.of_array [| 2; 2 |] [| 7.; 10.; 15.; 22. |])
    (run "np.dot(A, A)");
  Alcotest.(check (float 1e-9)) "trace" 5. (F.to_scalar (run "np.trace(A)"));
  Alcotest.check ft "comprehension doubles rows"
    (F.of_array [| 2; 2 |] [| 2.; 4.; 6.; 8. |])
    (run "np.stack([r * 2 for r in A])");
  (match run "Z" with
  | exception Eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "unbound input should raise")

let test_sexec_spec_shape () =
  let env = [ ("A", Types.float_t [| 2; 3 |]) ] in
  let spec = Sexec.exec_env env (Parser.expression "np.sum(A, axis=1)") in
  Alcotest.(check bool) "spec shape" true (Sexec.Stensor.shape spec = [| 2 |]);
  let e = Sexec.Stensor.get spec [| 0 |] in
  Alcotest.(check string) "spec element"
    "(A[0,0] + A[0,1] + A[0,2])"
    (Symbolic.Expr.to_string e)

let test_equivalences () =
  let check_equiv name env_src a b expected =
    let env, _ = Parser.program (env_src ^ "\nreturn 0") in
    let r = Sexec.equivalent env (Parser.expression a) (Parser.expression b) in
    Alcotest.(check bool) name expected r
  in
  check_equiv "dot associativity over scalar mul"
    "input a : f32[]\ninput A : f32[2,3]\ninput B : f32[3,2]"
    "np.dot(a * A, B)" "a * np.dot(A, B)" true;
  check_equiv "distributivity" "input A : f32[2,2]\ninput B : f32[2,2]"
    "np.multiply(np.add(A, B), A)" "A*A + B*A" true;
  check_equiv "dot is not commutative" "input A : f32[2,2]\ninput B : f32[2,2]"
    "np.dot(A, B)" "np.dot(B, A)" false;
  check_equiv "sub not commutative" "input A : f32[2,2]\ninput B : f32[2,2]"
    "A - B" "B - A" false;
  check_equiv "transpose of product"
    "input A : f32[2,3]\ninput B : f32[3,2]"
    "np.transpose(np.dot(A, B))" "np.dot(B.T, A.T)" true;
  check_equiv "shape mismatch is inequivalent" "input A : f32[2,3]"
    "A" "A.T" false

let test_density_complexity () =
  let env = [ ("A", Types.float_t [| 3; 3 |]) ] in
  let spec src = Sexec.exec_env env (Parser.expression src) in
  Alcotest.(check (float 1e-9)) "dense density" 1. (Sexec.density (spec "A"));
  let tri = spec "np.triu(A)" in
  Alcotest.(check (float 1e-9)) "triu density" (6. /. 9.) (Sexec.density tri);
  (* complexity = mean distinct vars per element * density *)
  Alcotest.(check (float 1e-9)) "complexity of A" 1.
    (Sexec.complexity (spec "A"));
  Alcotest.(check (float 1e-9)) "complexity of A*A (same var)" 1.
    (Sexec.complexity (spec "A * A"));
  Alcotest.(check bool) "dot raises complexity" true
    (Sexec.complexity (spec "np.dot(A, A)") > 2.)

(* Differential: random programs, symbolic execution evaluated
   concretely equals direct interpretation. *)
let arb_program =
  let open QCheck2.Gen in
  let leaf = oneofl [ "A"; "B"; "x"; "2"; "0.5" ] in
  let rec expr n =
    if n = 0 then leaf
    else
      let sub = expr (n - 1) in
      oneof
        [
          leaf;
          (* positivity-preserving grammar (see the symbolic engine's
             positive-symbol assumption) *)
          map2 (Printf.sprintf "(%s + %s)") sub sub;
          map2 (Printf.sprintf "(%s * %s)") sub sub;
          map2 (Printf.sprintf "(%s / %s)") sub sub;
          map2 (Printf.sprintf "np.sqrt(np.multiply(%s, %s))") sub sub;
          map (Printf.sprintf "np.sum(%s, axis=0)") sub;
          map (Printf.sprintf "np.exp(np.log(%s))") sub;
          map (Printf.sprintf "np.max(%s, axis=0)") sub;
          map (Printf.sprintf "%s.T") sub;
        ]
  in
  expr 3

let env_t =
  [ ("A", Types.float_t [| 2; 3 |]); ("B", Types.float_t [| 2; 3 |]);
    ("x", Types.float_t [| 3 |]) ]

let prop_sexec_agrees_with_interp =
  QCheck2.Test.make
    ~name:"sexec: symbolic execution agrees with interpretation" ~count:150
    QCheck2.Gen.(pair arb_program (int_range 0 10_000))
    (fun (src, seed) ->
      match Parser.expression src with
      | exception Parser.Parse_error _ -> true
      | prog -> (
          match Types.check env_t prog with
          | Error _ -> true
          | Ok _ ->
              let st = Random.State.make [| seed |] in
              let inputs = Interp.random_inputs st env_t in
              let direct = Interp.eval_alist inputs prog in
              let sym = Sexec.exec_env env_t prog in
              let assign (s : Symbolic.Sym.t) =
                F.get (List.assoc (Symbolic.Sym.base s) inputs) s.indices
              in
              let via_sym = Sexec.eval_concrete assign sym in
              F.allclose ~rtol:1e-6 ~atol:1e-9 direct via_sym))

(* Equivalence is sound: if two random programs are declared equivalent,
   they agree numerically. *)
let prop_equivalence_sound =
  QCheck2.Test.make ~name:"sexec: equivalent implies numerically equal"
    ~count:100
    QCheck2.Gen.(triple arb_program arb_program (int_range 0 10_000))
    (fun (s1, s2, seed) ->
      match (Parser.expression s1, Parser.expression s2) with
      | exception Parser.Parse_error _ -> true
      | p1, p2 -> (
          match (Types.check env_t p1, Types.check env_t p2) with
          | Ok _, Ok _ ->
              if Sexec.equivalent env_t p1 p2 then begin
                let st = Random.State.make [| seed |] in
                let inputs = Interp.random_inputs st env_t in
                F.allclose ~rtol:1e-6 ~atol:1e-9
                  (Interp.eval_alist inputs p1)
                  (Interp.eval_alist inputs p2)
              end
              else true
          | _ -> true))

let test_all_benchmark_equivalences () =
  List.iter
    (fun (b : Suite.Benchmarks.t) ->
      if not (Sexec.equivalent b.env b.program b.expected_opt) then
        Alcotest.failf "%s: original and reference optimized not equivalent"
          b.name;
      (* and concretely, at performance shapes *)
      let st = Random.State.make [| 0xfeed |] in
      let inputs = Interp.random_inputs st b.perf_env in
      let r1 = Interp.eval_alist inputs b.perf_program in
      let r2 = Interp.eval_alist inputs b.perf_expected_opt in
      if not (F.allclose ~rtol:1e-6 ~atol:1e-9 r1 r2) then
        Alcotest.failf "%s: concrete mismatch at perf shapes" b.name)
    Suite.Benchmarks.all

(* ------------------------------------------------------------------ *)
(* The compiled engine (Stenso.Exec): differential fuzz against the
   interpreter, fusion legality, arena reuse.                          *)

module Exec = Stenso.Exec

let vm_eval ?options env inputs prog =
  let compiled = Exec.compile ?options ~env prog in
  Exec.run compiled (fun n -> List.assoc n inputs)

let all_finite t = Array.for_all Float.is_finite (F.unsafe_data t)

(* Hand-written programs covering the constructs the random generator
   does not emit: comprehensions (For_stack), scalar/row broadcasting,
   boolean where/less, masking, max-reductions. *)
let targeted_programs =
  [
    ("for_stack", "np.stack([r * 2 + x for r in A])");
    ("for_stack nested expr", "np.stack([np.sqrt(r * r) + b for r in B])");
    ("scalar broadcast", "A * b + 0.5");
    ("row broadcast", "A + x");
    ("where/less bool", "np.where(np.less(A, B), A - B, B - A)");
    ("where scalar arms", "np.where(np.less(A, B), 1, 0)");
    ("max rows", "np.max(A + B, axis=1)");
    ("max all", "np.max(A * B)");
    ("maximum", "np.maximum(A, B)");
    ("triu", "np.triu(np.dot(A, A.T))");
    ("tril", "np.tril(np.dot(A, A.T))");
    ("diag", "np.diag(np.dot(A, A.T))");
    ("trace", "np.trace(np.dot(A, A.T))");
    ("transpose chain", "np.transpose(A * 2) + B.T");
    ("reduce of fused", "np.sum(np.sqrt(A * A + B * B), axis=0)");
    ("div chain", "(A + 1) / (B * B + 1)");
    ("fused scalar sum", "np.sum(A * B + A)");
    ("fused scalar max", "np.max(np.sqrt(A * A + 1))");
    ("fused row sums", "np.sum(A - B, axis=1)");
    ("fused max rows", "np.max(A - B, axis=1)");
    ("fused sum axis0", "np.sum(np.exp(A) * B, axis=0)");
    ("normalize", "A / np.sum(A)");
    ("sum then scale", "np.sum(A * A) * b");
    (* keepdims reductions broadcast back against their input *)
    ("keepdims col broadcast", "A / np.sum(A, axis=0, keepdims=True)");
    ("keepdims row broadcast", "A - np.max(A, axis=1, keepdims=True)");
    ("keepdims full reduce", "A - np.max(A, keepdims=True)");
    ( "row softmax",
      "np.exp(A - np.max(A, axis=1, keepdims=True)) / np.sum(np.exp(A - \
       np.max(A, axis=1, keepdims=True)), axis=1, keepdims=True)" );
    ( "keepdims mean center",
      "A - np.sum(A, axis=1, keepdims=True) / 3.0" );
  ]

let fuzz_env =
  [
    ("A", Types.float_t [| 2; 3 |]);
    ("B", Types.float_t [| 2; 3 |]);
    ("x", Types.float_t [| 3 |]);
    ("b", Types.float_t [||]);
  ]

let test_vm_targeted () =
  List.iter
    (fun (name, src) ->
      let prog = Parser.expression src in
      (match Types.check fuzz_env prog with
      | Error e -> Alcotest.failf "%s: ill-typed: %s" name e
      | Ok _ -> ());
      let st = Random.State.make [| 0xbeef |] in
      let inputs = Interp.random_inputs st fuzz_env in
      let direct = Interp.eval_alist inputs prog in
      let via_vm = vm_eval fuzz_env inputs prog in
      if not (F.allclose ~rtol:1e-9 ~atol:1e-9 direct via_vm) then
        Alcotest.failf "%s: vm disagrees with interpreter" name)
    targeted_programs

(* Differential fuzz: >= 200 random well-typed programs from the suite
   generator must evaluate identically (1e-9) on both engines.  Configs
   vary size, rank, contraction and transcendental availability so the
   sample exercises fused chains, gather-indexed broadcasts, reductions
   and matrix products.  Programs whose reference value is non-finite
   (random division) are skipped; the generator produces a surplus so
   the comparison count stays above the bar. *)
let test_vm_fuzz () =
  let configs =
    [
      { Suite.Generator.default with size = 4; seed = 11 };
      { Suite.Generator.default with size = 8; seed = 1200 };
      {
        Suite.Generator.default with
        size = 6;
        allow_contractions = false;
        dims = [ 1; 2; 4 ];
        seed = 2400;
      };
      {
        Suite.Generator.default with
        size = 10;
        allow_transcendentals = false;
        num_inputs = 4;
        seed = 3600;
      };
    ]
  in
  let cases =
    List.concat_map (fun cfg -> Suite.Generator.generate_many cfg 70) configs
  in
  let compared = ref 0 in
  List.iteri
    (fun i (env, prog) ->
      let st = Random.State.make [| 0x5eed; i |] in
      let inputs = Interp.random_inputs ~lo:0.25 ~hi:2.0 st env in
      let direct = Interp.eval_alist inputs prog in
      if all_finite direct then begin
        let via_vm = vm_eval env inputs prog in
        if not (F.allclose ~rtol:1e-9 ~atol:1e-9 direct via_vm) then
          Alcotest.failf "fuzz #%d: vm disagrees with interpreter on %s" i
            (Ast.to_string prog);
        incr compared
      end)
    cases;
  if !compared < 200 then
    Alcotest.failf "only %d/%d programs compared (need >= 200)" !compared
      (List.length cases)

(* Fusion legality: elementwise chains collapse to one step; a
   single-use elementwise producer of a [sum]/[max] additionally inlines
   into the reduction loop itself (one fused pass) — contraction inputs,
   multi-use producers and reduction *outputs* always materialize. *)
let test_fusion_legality () =
  let env = [ ("A", Types.float_t [| 4; 4 |]); ("B", Types.float_t [| 4; 4 |]) ] in
  let stats src = Exec.stats (Exec.compile ~env (Parser.expression src)) in
  let chain = stats "np.sqrt(A * A + B * B) / (A + B)" in
  Alcotest.(check int) "elementwise chain is one step" 1 chain.Exec.steps;
  Alcotest.(check bool) "chain absorbed ops" true (chain.Exec.ops_fused >= 3);
  let red = stats "np.sum(A * B + A, axis=0)" in
  Alcotest.(check int) "reduction-rooted program runs single-pass" 1
    red.Exec.steps;
  Alcotest.(check bool) "reduction absorbed its producer" true
    (red.Exec.ops_fused >= 2);
  let dot = stats "np.dot(A + B, A - B)" in
  Alcotest.(check bool) "contraction inputs materialize" true
    (dot.Exec.steps >= 3);
  (* The sum itself must not be inlined into its consumer either. *)
  let post = stats "np.sum(A, axis=0) * np.sum(B, axis=0)" in
  Alcotest.(check bool) "reduction outputs materialize" true
    (post.Exec.steps >= 3);
  (* A producer with two consumers is shared, not re-evaluated. *)
  let shared = stats "np.sum(A * B) + np.max(A * B)" in
  Alcotest.(check bool) "multi-use producer materializes" true
    (shared.Exec.steps >= 3)

(* The ML-kernel workloads lean on reduction fusion: their elementwise
   producers (exp, subtract, square) must inline into the reduction
   loops rather than materialize as extra passes. *)
let test_ml_kernel_fusion () =
  let stats name =
    let b = Suite.Benchmarks.find name in
    Exec.stats
      (Exec.compile ~env:b.Suite.Benchmarks.perf_env
         b.Suite.Benchmarks.perf_program)
  in
  List.iter
    (fun name ->
      let s = stats name in
      if s.Exec.ops_fused <= 0 then
        Alcotest.failf "%s: plan fused no ops (steps=%d)" name s.Exec.steps)
    [ "softmax_vec"; "softmax_stable"; "logsumexp"; "layernorm"; "rmsnorm" ]

(* The Options record is the single configuration path: validation,
   and a telemetry-independent fingerprint pinned to the string the
   archived exec-bench reports and measured cost caches carry. *)
let test_options_api () =
  let open Exec.Options in
  (match with_domains 0 default with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "domains < 1 should raise");
  Alcotest.(check bool) "huge domain requests clamp instead of raising"
    true
    (domains (default |> with_domains 10_000) <= 10_000);
  let tel = Stenso.Telemetry.create () in
  Alcotest.(check string) "fingerprint excludes the telemetry sink"
    (fingerprint default)
    (fingerprint (default |> with_telemetry tel));
  Alcotest.(check string) "fingerprint is pinned"
    "fus=true;red=true;tile=64;dom=1"
    (fingerprint (default |> with_domains 1))

(* Every targeted program must agree with the interpreter under every
   domain count, not just the default. *)
let test_vm_options_matrix () =
  let variants =
    Exec.Options.
      [
        ("domains-1", default |> with_domains 1);
        ("domains-4", default |> with_domains 4);
      ]
  in
  List.iter
    (fun (vname, options) ->
      List.iter
        (fun (name, src) ->
          let prog = Parser.expression src in
          let st = Random.State.make [| 0xbeef |] in
          let inputs = Interp.random_inputs st fuzz_env in
          let direct = Interp.eval_alist inputs prog in
          let via_vm = vm_eval ~options fuzz_env inputs prog in
          if not (F.allclose ~rtol:1e-9 ~atol:1e-9 direct via_vm) then
            Alcotest.failf "%s under %s: vm disagrees with interpreter" name
              vname)
        targeted_programs)
    variants

(* Tiled matmul/transpose must be exact on shapes that straddle the
   fixed 64-element tile (a full block plus a partial one), including
   degenerate 1 x N and N x 1 operands, and on shapes smaller than one
   tile. *)
let test_tiled_edge_shapes () =
  let f dims = Types.float_t dims in
  let cases =
    [
      ([ ("A", f [| 65; 67 |]); ("B", f [| 67; 63 |]) ], "np.dot(A, B)");
      ([ ("A", f [| 1; 130 |]); ("B", f [| 130; 1 |]) ], "np.dot(A, B)");
      ([ ("A", f [| 130 |]); ("B", f [| 130; 5 |]) ], "np.dot(A, B)");
      ([ ("A", f [| 129; 129 |]); ("B", f [| 129; 129 |]) ], "np.dot(A, B.T)");
      (* dims strictly smaller than the tile *)
      ([ ("A", f [| 4; 8 |]); ("B", f [| 8; 4 |]) ], "np.dot(A, B)");
      ([ ("A", f [| 1; 130 |]) ], "A.T");
      ([ ("A", f [| 130; 65 |]) ], "A.T");
      ([ ("A", f [| 70; 70 |]) ], "np.transpose(A) * 2");
    ]
  in
  List.iter
    (fun (env, src) ->
      let prog = Parser.expression src in
      let st = Random.State.make [| 0xabcd |] in
      let inputs = Interp.random_inputs st env in
      let direct = Interp.eval_alist inputs prog in
      let via_vm = vm_eval env inputs prog in
      if not (F.allclose ~rtol:1e-9 ~atol:1e-12 direct via_vm) then
        Alcotest.failf "%s: vm disagrees with interpreter" src)
    cases

(* Parallel strips must be invisible in the bits: running the same
   compiled program with 1 and 4 domains must produce bitwise-identical
   results, on shapes big enough that lanes actually engage. *)
let bits t = Array.map Int64.bits_of_float (F.unsafe_data t)

let test_parallel_determinism () =
  let env =
    [ ("A", Types.float_t [| 256; 256 |]); ("B", Types.float_t [| 256; 256 |]) ]
  in
  let progs =
    [
      "np.sqrt(A * A + B * B) / (A + B + 1)";
      "np.sum(A * B + A)";
      "np.max(np.sqrt(A * A))";
      "np.sum(A - B, axis=1)";
      "np.max(A + B, axis=1)";
      "np.max(A, axis=0)";
      "np.dot(A, B)";
      "A.T";
      "A / np.sum(A)";
      "np.where(np.less(A, B), A, B)";
      "np.max(np.reshape(A - B, (32768, 2)), axis=1)";
      "np.sum(np.reshape(A * B, (16384, 4)), axis=1)";
      "np.sum(np.power(A, 2)) + np.max(np.power(B, 3) - A)";
    ]
  in
  List.iter
    (fun src ->
      let prog = Parser.expression src in
      let st = Random.State.make [| 7 |] in
      let inputs = Interp.random_inputs st env in
      let seq =
        vm_eval ~options:Exec.Options.(default |> with_domains 1) env inputs
          prog
      in
      let par =
        vm_eval ~options:Exec.Options.(default |> with_domains 4) env inputs
          prog
      in
      if bits seq <> bits par then
        Alcotest.failf "%s: results differ across domain counts" src)
    progs

(* The VM's branch-free and strength-reduced paths on the values random
   inputs never hold: NaN, -0/+0, infinities, negatives, subnormals.
   Compares, selects, a literal-first commutative op, row reductions
   (rows of 2 and 7 take the short-row max select, 256 the [fmax]
   fold, 600 straddles a strip) and column reductions must equal the
   interpreter bit for bit, at 1, 2 and 4 domains — about 2^17 elements
   per case, so 4 lanes engage.  Integer powers multiply
   where the interpreter calls [Float.pow], so they are close, and
   exact on the special values.  Matmul keeps the bits of the kernel
   it replaced: digests pinned from that kernel, which equal the
   interpreter's i-k-j order. *)
let digest t =
  let d = F.unsafe_data t in
  let b = Bytes.create (8 * Array.length d) in
  Array.iteri
    (fun i x -> Bytes.set_int64_le b (8 * i) (Int64.bits_of_float x))
    d;
  Digest.to_hex (Digest.bytes b)

let test_special_values () =
  let nan = Float.nan and inf = Float.infinity in
  let specials = [| nan; 0.; -0.; inf; -.inf; -1.5; 1e-310; -2.5e300 |] in
  (* leading rows of 2: a NaN second, -0/+0 ties both ways, a NaN
     first, equal values, equal infinities *)
  let hand =
    [| 1.; nan; -0.; 0.; 0.; -0.; nan; 1.; 2.; 2.; -.inf; -.inf; inf; -1. |]
  in
  let data st n =
    Array.init n (fun i ->
        if i < Array.length hand then hand.(i)
        else if i mod 13 = 3 then specials.(i / 13 mod Array.length specials)
        else Random.State.float st 6. -. 3.)
  in
  let domains = [ 1; 2; 4 ] in
  let run env inputs prog d =
    vm_eval ~options:Exec.Options.(default |> with_domains d) env inputs prog
  in
  List.iter
    (fun mid ->
      let rows = 131072 / mid in
      let st = Random.State.make [| mid |] in
      let a = data st (rows * mid) in
      let b =
        Array.mapi (fun i x -> if i mod 17 = 0 then x else -.x *. 0.5) a
      in
      let env =
        [ ("A", Types.float_t [| rows; mid |]);
          ("B", Types.float_t [| rows; mid |]) ]
      in
      let inputs =
        [ ("A", F.of_array [| rows; mid |] a);
          ("B", F.of_array [| rows; mid |] b) ]
      in
      List.iter
        (fun src ->
          let prog = Parser.expression src in
          let want = bits (Interp.eval_alist inputs prog) in
          List.iter
            (fun d ->
              if bits (run env inputs prog d) <> want then
                Alcotest.failf "%s on rows of %d at %d domains: bits differ \
                                from the interpreter" src mid d)
            domains)
        [
          "np.less(A, B)";
          "np.less(A, 0.5)";
          "np.less(A, np.max(A, axis=1, keepdims=True))";
          "np.where(np.less(A, B), A, B)";
          "np.max(A, axis=1)";
          "np.max(A * 1.0, axis=1)";
          "np.sum(A, axis=1)";
          "np.sum(A * 1.0, axis=1)";
          "np.maximum(0.0, A) + 2.0 * B";
        ])
    [ 2; 7; 256; 600 ];
  (* column reductions (inner > 1): axis 0 and a middle axis, the
     middle one longer than a strip, fused and not *)
  let dims = [| 16; 700; 12 |] in
  let c = data (Random.State.make [| 31 |]) (16 * 700 * 12) in
  let env = [ ("C", Types.float_t dims) ] in
  let inputs = [ ("C", F.of_array dims c) ] in
  List.iter
    (fun src ->
      let prog = Parser.expression src in
      let want = bits (Interp.eval_alist inputs prog) in
      List.iter
        (fun d ->
          if bits (run env inputs prog d) <> want then
            Alcotest.failf "%s at %d domains: bits differ from the \
                            interpreter" src d)
        domains)
    [
      "np.sum(C, axis=1)"; "np.max(C, axis=1)"; "np.sum(C * 1.0, axis=1)";
      "np.max(C * 1.0, axis=1)"; "np.sum(C, axis=0)"; "np.max(C * 1.0, axis=0)";
    ];
  (* integer powers *)
  let n = 4096 in
  let x = data (Random.State.make [| 23 |]) n in
  let env = [ ("x", Types.float_t [| n |]) ] in
  let inputs = [ ("x", F.of_array [| n |] x) ] in
  List.iter
    (fun src ->
      let prog = Parser.expression src in
      let want = F.unsafe_data (Interp.eval_alist inputs prog) in
      List.iter
        (fun d ->
          let got = F.unsafe_data (run env inputs prog d) in
          Array.iteri
            (fun i w ->
              let g = got.(i) in
              let ok =
                Int64.bits_of_float g = Int64.bits_of_float w
                || Float.is_finite w && w <> 0.
                   && Float.abs (g -. w) <= 1e-15 *. Float.abs w
              in
              if not ok then
                Alcotest.failf "%s at x = %h (%d domains): %h, want %h" src
                  x.(i) d g w)
            want)
        domains)
    [ "np.power(x, 2)"; "np.power(x, 3)"; "np.power(x * 1.0, 3) + 0.0" ];
  (* matmul: the replaced kernel's bits *)
  List.iter
    (fun (m, k, n, pinned) ->
      let env =
        [ ("A", Types.float_t [| m; k |]); ("B", Types.float_t [| k; n |]) ]
      in
      let prog = Parser.expression "np.dot(A, B)" in
      let inputs =
        Interp.random_inputs ~lo:(-2.) ~hi:2.
          (Random.State.make [| m; k; n |])
          env
      in
      List.iter
        (fun d ->
          let got = digest (run env inputs prog d) in
          if got <> pinned then
            Alcotest.failf "matmul %dx%d . %dx%d at %d domains: digest %s, \
                            pinned %s" m k k n d got pinned)
        domains)
    [
      (1, 1, 1, "8135d8f6a4c93737d72b416228845f1f");
      (3, 5, 7, "3b13b478c8aece925dd1e5f77a6f22d1");
      (64, 64, 64, "b83095c49c37df968d1c6629efea5943");
      (65, 67, 63, "23863a8decb7c44090d062082fe757d7");
      (* narrow outputs (n = 1 reads b's column, n = 2 and 3 stream
         b's rows) and few rows (row streaming; a pair of rows per lane
         at 4 domains) *)
      (1, 1001, 1, "57b2fd770d38bee3db826a99225ff003");
      (130, 67, 1, "ea289b5dd0e602203f24625bc38eff51");
      (9, 33, 2, "ab70963e6b9d726177d6d4831e8893b3");
      (5, 6, 3, "c3632774b074792056b7a51a66b65df6");
      (1, 130, 9, "711b982a1eb25b9d60350324f1f7e3c3");
      (2, 7, 9, "1037306dfc9dbd68b3ecd8a49da2d1d7");
      (6, 512, 256, "b418ae38fbdd3801c17dd300cab349b1");
    ]

(* Regression for the one benchmark the VM used to lose (0.94x):
   normalize must not run slower than the interpreter. *)
let test_normalize_not_slower () =
  let env = [ ("A", Types.float_t [| 512; 512 |]) ] in
  let prog = Parser.expression "A / np.sum(A)" in
  let st = Random.State.make [| 3 |] in
  let inputs = Interp.random_inputs st env in
  let lookup n = List.assoc n inputs in
  let compiled = Exec.compile ~env prog in
  let time f =
    ignore (f ());
    (* warm *)
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let ti = time (fun () -> Interp.eval_alist inputs prog) in
  let tv = time (fun () -> Exec.run compiled lookup) in
  if tv > ti then
    Alcotest.failf "normalize regressed: vm %.3gms vs interp %.3gms"
      (tv *. 1e3) (ti *. 1e3)

(* Liveness-driven arena reuse: once an intermediate dies, its buffer
   serves a later same-size value instead of growing the arena. *)
let test_arena_reuse () =
  let env = [ ("A", Types.float_t [| 4; 4 |]) ] in
  let prog =
    Parser.expression "np.dot(np.dot(A, A) + A, np.dot(A, A) - A)"
  in
  let compiled = Exec.compile ~env prog in
  let s = Exec.stats compiled in
  Alcotest.(check bool) "some buffer is reused" true
    (s.Exec.buffers_reused >= 1);
  Alcotest.(check bool) "arena smaller than one-slot-per-value" true
    (s.Exec.arena_slots < s.Exec.steps + 1 + s.Exec.buffers_reused);
  (* and reuse does not corrupt results *)
  let st = Random.State.make [| 42 |] in
  let inputs = Interp.random_inputs st env in
  let direct = Interp.eval_alist inputs prog in
  let via_vm = Exec.run compiled (fun n -> List.assoc n inputs) in
  Alcotest.check ft "reuse-heavy program matches interp" direct via_vm

(* Constant folding: subtrees with no input dependence are evaluated at
   compile time and stored as arena constants. *)
let test_const_folding () =
  let env = [ ("A", Types.float_t [| 2; 2 |]) ] in
  let s =
    Exec.stats
      (Exec.compile ~env
         (Parser.expression "A + np.full((2,2), 3) * np.full((2,2), 0.5)"))
  in
  Alcotest.(check bool) "constant subtree folded" true
    (s.Exec.consts_folded >= 1)

(* Overlapping runs of one compiled program each work in their own
   arena: a run started from inside another run's input lookup (after
   the outer run has bound one input, before the other) must leave the
   outer run's bindings alone, and both must match the interpreter. *)
let test_overlapping_runs () =
  let env =
    [ ("A", Types.float_t [| 64; 64 |]); ("B", Types.float_t [| 64; 64 |]) ]
  in
  let prog =
    Parser.expression
      "(A * B + np.full((64,64), 3)) / (np.sum(np.exp(A) * B) + 1)"
  in
  let compiled = Exec.compile ~env prog in
  let st = Random.State.make [| 5 |] in
  let outer = Interp.random_inputs st env in
  let inner = Interp.random_inputs st env in
  let run inputs = Exec.run compiled (fun n -> List.assoc n inputs) in
  let lookups = ref 0 and inner_result = ref [] in
  let lookup n =
    incr lookups;
    if !lookups = 2 then inner_result := [ run inner ];
    List.assoc n outer
  in
  let via_outer = Exec.run compiled lookup in
  Alcotest.check ft "outer run" (Interp.eval_alist outer prog) via_outer;
  Alcotest.check (Alcotest.list ft) "inner run"
    [ Interp.eval_alist inner prog ]
    !inner_result;
  Alcotest.check ft "next run" (Interp.eval_alist inner prog) (run inner)

(* The exec-bench archive validator doubles as CI's performance gate:
   structural schema check, per-benchmark speedup floor, and the
   expects_fused_reduction / ops_fused cross-check. *)
let test_validate_exec_bench () =
  let module J = Stenso.Telemetry.Json in
  let result ?(speedup = 2.0) ?(ops_fused = 1) ?(expects = false) name =
    J.Obj
      [
        ("name", J.Str name);
        ("interp_seconds", J.Float 2e-4);
        ("vm_seconds", J.Float 1e-4);
        ("speedup", J.Float speedup);
        ("steps", J.Int 1);
        ("ops_fused", J.Int ops_fused);
        ("parallel_strips", J.Int 0);
        ("buffers_reused", J.Int 0);
        ("arena_bytes", J.Int 8);
        ("expects_fused_reduction", J.Bool expects);
      ]
  in
  let doc results =
    J.Obj
      [
        ("schema", J.Str Suite.Report.exec_bench);
        ("version", J.Str "test");
        ("options", J.Str "fus=true;red=true;tile=64;dom=1");
        ("n_benchmarks", J.Int (List.length results));
        ("geomean_speedup", J.Float 2.0);
        ("results", J.List results);
      ]
  in
  let ok = doc [ result "a"; result ~expects:true "b" ] in
  (match Suite.Report.validate ~min_speedup:1.0 ok with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "well-formed report rejected: %s" e);
  (match
     Suite.Report.validate ~min_speedup:1.0
       (doc [ result ~speedup:0.9 "slow" ])
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "sub-floor speedup accepted");
  (* without the floor, a slow benchmark is structurally fine *)
  (match
     Suite.Report.validate (doc [ result ~speedup:0.9 "slow" ])
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "structural check rejected slow bench: %s" e);
  (match
     Suite.Report.validate
       (doc [ result ~expects:true ~ops_fused:0 "unfused" ])
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unfused reduction-rooted benchmark accepted");
  match
    Suite.Report.validate (J.Obj [ ("schema", J.Str "bogus/9") ])
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown schema accepted"

let suite =
  [
    Alcotest.test_case "interpreter basics" `Quick test_interp_basics;
    Alcotest.test_case "symbolic spec construction" `Quick
      test_sexec_spec_shape;
    Alcotest.test_case "equivalence checking" `Quick test_equivalences;
    Alcotest.test_case "density and complexity" `Quick test_density_complexity;
    Alcotest.test_case "all benchmark reference equivalences" `Slow
      test_all_benchmark_equivalences;
    QCheck_alcotest.to_alcotest prop_sexec_agrees_with_interp;
    QCheck_alcotest.to_alcotest prop_equivalence_sound;
    Alcotest.test_case "vm: targeted constructs" `Quick test_vm_targeted;
    Alcotest.test_case "vm: differential fuzz (200+ programs)" `Slow
      test_vm_fuzz;
    Alcotest.test_case "vm: fusion legality" `Quick test_fusion_legality;
    Alcotest.test_case "vm: ML-kernel fusion" `Quick test_ml_kernel_fusion;
    Alcotest.test_case "vm: options api" `Quick test_options_api;
    Alcotest.test_case "vm: options matrix differential" `Quick
      test_vm_options_matrix;
    Alcotest.test_case "vm: tiled edge shapes" `Quick test_tiled_edge_shapes;
    Alcotest.test_case "vm: parallel determinism (bitwise)" `Quick
      test_parallel_determinism;
    Alcotest.test_case "vm: special values (bitwise)" `Quick
      test_special_values;
    Alcotest.test_case "vm: normalize not slower than interp" `Slow
      test_normalize_not_slower;
    Alcotest.test_case "vm: arena reuse" `Quick test_arena_reuse;
    Alcotest.test_case "exec-bench report validation" `Quick
      test_validate_exec_bench;
    Alcotest.test_case "vm: constant folding" `Quick test_const_folding;
    Alcotest.test_case "vm: overlapping runs" `Quick test_overlapping_runs;
  ]
