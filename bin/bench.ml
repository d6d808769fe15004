(* `stenso bench`: regenerates every table and figure of the paper's
   evaluation (Tables I-II, Figures 4-8), plus the Section VII-D rule
   extraction, the DESIGN.md ablations, and real wall-clock timings of
   original vs optimized kernels on the tensor substrate.

     stenso bench                 # everything (short budgets)
     stenso bench fig5 --full     # one section, paper budgets

   Shapes of the reproduction: absolute numbers come from simulated
   frameworks on analytic platform profiles (see lib/frameworks and
   DESIGN.md); the comparative structure — who wins, by what ballpark
   factor — is the reproduction target.

   This module links into the CLI, so it does nothing at
   initialisation: the cost model and the synthesis results are built
   on first use inside [run]. *)

module Ast = Dsl.Ast
module B = Suite.Benchmarks
module Classify = Stenso.Classify
module Fw = Frameworks.Framework
module Pf = Frameworks.Platform

type synthesis = {
  bench : B.t;
  outcome : Stenso.Superopt.outcome;
  opt_perf : Ast.t;  (** optimized program usable at perf shapes *)
}

type ctx = {
  config : Stenso.Config.t;
      (** the measured estimator with the exec options and jobs *)
  full : bool;  (** paper budgets instead of short ones *)
  out : string option;
      (** artifact-parity output: like the paper artifact's `out/`
          directory, fig*.csv data files and the synthesized programs *)
  report : string option;  (** where the one named section's report goes *)
  model : Cost.Model.t Lazy.t;  (** [Config.model config] *)
  results : synthesis list Lazy.t;
      (** all benchmarks synthesized once, shared by the sections *)
}

(* Warm once, then one doubling-batch minimum window (the statistic the
   measured cost model profiles operations with) of 0.1 s, 0.5 s with
   [--full]. *)
let time ctx f =
  f ();
  Cost.Model.min_window ~min_time:(if ctx.full then 0.5 else 0.1) f

let emit_file ctx rel contents =
  match ctx.out with
  | None -> ()
  | Some dir ->
      let path = Filename.concat dir rel in
      let parent = Filename.dirname path in
      if not (Sys.file_exists parent) then Sys.mkdir parent 0o755;
      Common.write_file path contents

let emit_csv ctx name header rows =
  emit_file ctx (name ^ ".csv")
    (String.concat ""
       (List.map (fun row -> String.concat "," row ^ "\n") (header :: rows)))

let section_line = String.make 78 '='
let subline = String.make 78 '-'

let header title =
  Printf.printf "\n%s\n%s\n%s\n" section_line title section_line

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. Stdlib.log x) 0. xs
        /. float_of_int (List.length xs))

let bar width v vmax =
  let n =
    int_of_float (Float.round (float_of_int width *. v /. Float.max vmax 1e-9))
  in
  String.make (max 0 (min width n)) '#'

(* ------------------------------------------------------------------ *)
(* Synthesis results, computed once and shared by all sections         *)
(* ------------------------------------------------------------------ *)

let synthesize_all ctx =
  Printf.printf
    "Synthesizing all %d benchmarks (measured cost model, %d jobs)...\n%!"
    (List.length B.all)
    (Stenso.Config.jobs ctx.config);
  let on_result (r : Suite.Driver.bench_result) =
    Printf.printf "  %-16s %5.1fs  %s\n%!" r.bench.name r.elapsed
      (if r.outcome.improved then Ast.to_string r.outcome.optimized
       else "(no cheaper variant)")
  in
  let ({ Suite.Driver.results; _ } as run_result) =
    Suite.Driver.run ~config:ctx.config ~model:(Lazy.force ctx.model)
      ~jobs:(Stenso.Config.jobs ctx.config) ~trace:(Option.is_some ctx.report)
      ~on_result B.all
  in
  if Option.is_some ctx.report then
    Common.write_report ~label:"suite" ctx.report
      (Suite.Driver.report ~config:ctx.config run_result);
  List.map
    (fun ({ Suite.Driver.bench = b; outcome; _ } : Suite.Driver.bench_result)
       ->
      let opt_perf =
        (* The synthesized program carries no shape attributes for our
           benchmarks, so it normally retypes directly at perf shapes. *)
        if Dsl.Types.well_typed b.perf_env outcome.optimized then
          outcome.optimized
        else b.perf_expected_opt
      in
      emit_file ctx
        (Filename.concat "benchmarks_synthesized" (b.name ^ ".tdsl"))
        (Dsl.Parser.unparse b.env outcome.optimized);
      { bench = b; outcome; opt_perf })
    results

let with_results f ctx = f ctx (Lazy.force ctx.results)

(* ------------------------------------------------------------------ *)
(* Tables I and II                                                     *)
(* ------------------------------------------------------------------ *)

let tables _ results =
  header "Table I: GitHub benchmarks";
  Printf.printf "%-16s %-24s %-26s %s\n" "Benchmark" "Domain" "Class"
    "Original implementation";
  Printf.printf "%s\n" subline;
  List.iter
    (fun { bench = b; _ } ->
      if b.source = `Github then
        Printf.printf "%-16s %-24s %-26s %s\n" b.name b.domain
          (Classify.klass_name b.klass)
          (Ast.to_string b.program))
    results;
  header "Table II: synthetic benchmarks";
  Printf.printf "%-16s %s\n" "Benchmark" "Original implementation";
  Printf.printf "%s\n" subline;
  List.iter
    (fun { bench = b; _ } ->
      if b.source = `Synthetic then
        Printf.printf "%-16s %s\n" b.name (Ast.to_string b.program))
    results;
  header "Synthesized programs";
  List.iter
    (fun { bench = b; outcome; _ } ->
      Printf.printf "%-16s %s\n" b.name
        (if outcome.improved then Ast.to_string outcome.optimized
         else "(kept original)"))
    results

(* ------------------------------------------------------------------ *)
(* Speedups under the framework simulators                             *)
(* ------------------------------------------------------------------ *)

let speedup_of fw pf (r : synthesis) =
  Fw.speedup fw pf r.bench.perf_env ~original:r.bench.perf_program
    ~optimized:r.opt_perf

let fig4 ctx results =
  header
    "Figure 4: geometric-mean speedup of STENSO-optimized programs\n\
     (per framework x platform; paper: NumPy ~3.8x, JAX 1.5-1.9x, \
     PyTorch 1.2-1.6x)";
  Printf.printf "%-10s" "";
  List.iter (fun (p : Pf.t) -> Printf.printf "%16s" p.name) Pf.all;
  print_newline ();
  Printf.printf "%s\n" subline;
  let rows = ref [] in
  List.iter
    (fun (fw : Fw.t) ->
      Printf.printf "%-10s" fw.name;
      List.iter
        (fun (pf : Pf.t) ->
          let g = geomean (List.map (speedup_of fw pf) results) in
          rows := [ fw.name; pf.name; Printf.sprintf "%.4f" g ] :: !rows;
          Printf.printf "%15.2fx" g)
        Pf.all;
      print_newline ())
    Fw.all;
  emit_csv ctx "fig4" [ "framework"; "platform"; "geomean_speedup" ]
    (List.rev !rows)

let fig7 _ results =
  header
    "Figure 7: geometric-mean speedup per transformation class (AMD platform)\n\
     (paper: Vectorization ~10.7x NumPy; Identity Replacement ~6.1x NumPy)";
  Printf.printf "%-26s" "Class";
  List.iter (fun (fw : Fw.t) -> Printf.printf "%12s" fw.name) Fw.all;
  print_newline ();
  Printf.printf "%s\n" subline;
  List.iter
    (fun klass ->
      let members =
        List.filter (fun r -> r.bench.B.klass = klass) results
      in
      Printf.printf "%-26s" (Classify.klass_name klass);
      List.iter
        (fun fw ->
          let g =
            geomean (List.map (speedup_of fw Pf.amd_7950x) members)
          in
          Printf.printf "%11.2fx" g)
        Fw.all;
      Printf.printf "   (%d benchmarks)\n" (List.length members))
    B.all_klasses

let fig8 ctx results =
  header "Figure 8: per-benchmark speedups by class (AMD platform)";
  Printf.printf "%-26s %-16s %8s %8s %8s\n" "Class" "Benchmark" "NumPy"
    "JAX" "PyTorch";
  Printf.printf "%s\n" subline;
  let rows = ref [] in
  List.iter
    (fun klass ->
      List.iter
        (fun r ->
          if r.bench.B.klass = klass then begin
            let s fw = speedup_of fw Pf.amd_7950x r in
            rows :=
              [ Classify.klass_name klass; r.bench.name;
                Printf.sprintf "%.4f" (s Fw.numpy);
                Printf.sprintf "%.4f" (s Fw.jax);
                Printf.sprintf "%.4f" (s Fw.torch_inductor) ]
              :: !rows;
            Printf.printf "%-26s %-16s %7.2fx %7.2fx %7.2fx  %s\n"
              (Classify.klass_name klass) r.bench.name (s Fw.numpy)
              (s Fw.jax) (s Fw.torch_inductor)
              (bar 20 (Stdlib.log (Float.max 1. (s Fw.numpy)))
                 (Stdlib.log 25.))
          end)
        results)
    B.all_klasses;
  emit_csv ctx "fig8"
    [ "class"; "benchmark"; "numpy"; "jax"; "pytorch" ]
    (List.rev !rows)

let fig6 _ results =
  header
    "Figure 6: number of benchmarks per transformation class\n\
     (paper: Algebraic Simplification 9, Strength Reduction 8)";
  Printf.printf "%-28s %6s %6s\n" "Class" "paper" "auto";
  Printf.printf "%s\n" subline;
  List.iter
    (fun klass ->
      let labelled =
        List.length (List.filter (fun r -> r.bench.B.klass = klass) results)
      in
      let auto =
        List.length
          (List.filter
             (fun r ->
               r.outcome.improved
               && Classify.classify ~original:r.bench.program
                    ~optimized:r.outcome.optimized
                  = klass)
             results)
      in
      Printf.printf "%-28s %6d %6d  %s\n" (Classify.klass_name klass)
        labelled auto
        (bar 30 (float_of_int labelled) 9.))
    B.all_klasses;
  Printf.printf
    "('auto' = this repo's structural classifier on improved benchmarks)\n"

(* ------------------------------------------------------------------ *)
(* Figure 5: synthesis times                                           *)
(* ------------------------------------------------------------------ *)

let fig5 ctx =
  let timeout = if ctx.full then 600. else 30. in
  let bu_budget = if ctx.full then 600_000 else 40_000 in
  header
    (Printf.sprintf
       "Figure 5: synthesis times (timeout %.0fs%s)\n\
        columns: simplification-only | simplification+B&B | bottom-up \
        baseline (TASO-style)"
       timeout
       (if ctx.full then "" else "; pass --full for the paper's 600 s"));
  Printf.printf "%-16s %12s %12s %16s\n" "Benchmark" "simp-only" "simp+bnb"
    "bottom-up";
  Printf.printf "%s\n" subline;
  let fmt_time t timed_out =
    if timed_out then "timeout" else Printf.sprintf "%.2fs" t
  in
  let totals = ref (0., 0., 0) in
  let model = Lazy.force ctx.model in
  List.iter
    (fun (b : B.t) ->
      let run use_bnb =
        let config =
          { Stenso.Search.default_config with use_bnb; timeout }
        in
        let spec = Dsl.Sexec.exec_env b.env b.program in
        let bound = Cost.Model.program_cost model b.env b.program in
        Stenso.Search.run ~config ~model ~env:b.env ~spec
          ~initial_bound:bound
          ~consts:(Stenso.Superopt.consts_of b.program)
          ()
      in
      let simp_only = run false in
      let with_bnb = run true in
      let bu =
        Stenso.Bottom_up.run ~max_depth:3 ~max_programs:bu_budget ~timeout
          ~model ~env:b.env b.program
      in
      let st, bt, gave = !totals in
      totals :=
        ( st +. simp_only.stats.elapsed,
          bt +. with_bnb.stats.elapsed,
          gave + if bu.gave_up then 1 else 0 );
      Printf.printf "%-16s %12s %12s %16s\n" b.name
        (fmt_time simp_only.stats.elapsed simp_only.stats.timed_out)
        (fmt_time with_bnb.stats.elapsed with_bnb.stats.timed_out)
        (match (bu.program, bu.gave_up) with
        | Some _, true ->
            Printf.sprintf "partial (%dk)" (bu.enumerated / 1000)
        | Some _, false ->
            Printf.sprintf "%.2fs (%dk)" bu.elapsed (bu.enumerated / 1000)
        | None, _ -> Printf.sprintf "gave up (%dk)" (bu.enumerated / 1000)))
    B.all;
  let st, bt, gave = !totals in
  Printf.printf "%s\n" subline;
  Printf.printf "%-16s %11.1fs %11.1fs %13d/33 gave up\n" "total" st bt gave

(* ------------------------------------------------------------------ *)
(* Section VII-D: rewrite rules                                        *)
(* ------------------------------------------------------------------ *)

let rules _ results =
  header "Section VII-D: rewrite rules generalized from discoveries";
  List.iter
    (fun { bench = b; outcome; _ } ->
      if outcome.improved then
        let rule = Stenso.Rules.generalize b.program outcome.optimized in
        Printf.printf "%-16s %s\n" b.name (Stenso.Rules.to_string rule))
    results

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 5)                                     *)
(* ------------------------------------------------------------------ *)

let ablations ctx =
  header "Ablations: sketch depth, cost model, simplification pruning";
  let measured = Lazy.force ctx.model in
  let base = Stenso.Config.default in
  let search = Stenso.Config.search_config base in
  let variants =
    [
      ("default (d=2, simp+bnb)", base, measured);
      ( "depth d=1",
        {
          base with
          search =
            { search with stub_config = { search.stub_config with depth = 1 } };
        },
        measured );
      ( "no simplification prune",
        base
        |> Stenso.Config.with_simplification false
        |> Stenso.Config.with_timeout 20.,
        measured );
      ("flops cost model", base, Cost.Model.flops);
    ]
  in
  Printf.printf "%-16s %-22s %9s %8s %8s\n" "Benchmark" "configuration"
    "improved" "nodes" "time";
  Printf.printf "%s\n" subline;
  List.iter
    (fun name ->
      let b = B.find name in
      List.iter
        (fun (label, config, model) ->
          let t0 = Unix.gettimeofday () in
          let o =
            Stenso.Superopt.optimize ~config ~model ~env:b.env b.program
          in
          Printf.printf "%-16s %-22s %9b %8d %7.2fs\n" b.name label
            o.improved o.search.stats.nodes (Unix.gettimeofday () -. t0))
        variants;
      Printf.printf "%s\n" subline)
    [ "diag_dot"; "vec_lerp"; "common_factor"; "sum_stack"; "synth_2" ]

(* ------------------------------------------------------------------ *)
(* Equality saturation with mined rules (Section VIII comparison)      *)
(* ------------------------------------------------------------------ *)

let egraph _ results =
  header
    "Equality saturation with STENSO-mined rules (TENSAT-style engine)\n\
     rules are mined from the GitHub half only, then applied everywhere:\n\
     synthetic benchmarks improve only where a mined rule transfers —\n\
     the rule-set limitation the paper argues (Section VIII)";
  (* Mine one rule per improved loop-free GitHub benchmark. *)
  let mined =
    List.filter_map
      (fun { bench = b; outcome; _ } ->
        if outcome.improved && b.source = `Github then
          match Stenso.Rules.generalize b.program outcome.optimized with
          | rule -> Some rule
          | exception _ -> None
        else None)
      results
  in
  Printf.printf "mined %d rules from the GitHub benchmarks\n\n"
    (List.length mined);
  Printf.printf "%-16s %8s %10s %10s %12s %12s\n" "Benchmark" "source"
    "apps" "nodes" "egraph-gain" "stenso-gain";
  Printf.printf "%s\n" subline;
  (* The deterministic roofline estimator prices layout operations too,
     keeping the gains finite for transpose-only programs. *)
  (* Work at performance shapes so data movement and contractions, not
     dispatch overhead, decide extraction. *)
  let model = Cost.Model.roofline in
  List.iter
    (fun { bench = b; opt_perf; _ } ->
      let src = match b.source with `Github -> "github" | `Synthetic -> "synth" in
      match Stenso.Egraph.create b.perf_env with
      | g -> (
          match Stenso.Egraph.add g b.perf_program with
          | exception Stenso.Egraph.Unsupported _ ->
              Printf.printf "%-16s %8s %10s\n" b.name src "(loops)"
          | cls ->
              let st = Stenso.Egraph.saturate ~rules:mined g in
              let best = Stenso.Egraph.extract g ~model cls in
              let cost p = Cost.Model.program_cost model b.perf_env p in
              let orig_c = cost b.perf_program in
              let fmt g =
                if Float.is_finite g then Printf.sprintf "%.2fx" g
                else ">100x" (* the optimum is a bare input: zero ops *)
              in
              Printf.printf "%-16s %8s %10d %10d %12s %12s\n" b.name src
                st.applications st.nodes
                (fmt (orig_c /. cost best))
                (fmt (orig_c /. cost opt_perf)))
      | exception _ -> ())
    results

(* ------------------------------------------------------------------ *)
(* Extension suite: masking benchmarks                                 *)
(* ------------------------------------------------------------------ *)

let masking ctx =
  header
    "Extension suite: masking benchmarks (where/less/triu/tril)\n\
     — beyond the paper's tables; exercises the density term of the\n\
     simplification metric";
  let config = Stenso.Config.(default |> with_extended_ops true) in
  Printf.printf "%-16s %-34s %8s\n" "Benchmark" "synthesized" "NumPy";
  Printf.printf "%s\n" subline;
  List.iter
    (fun (b : B.t) ->
      let o =
        Stenso.Superopt.optimize ~config ~model:(Lazy.force ctx.model)
          ~env:b.env b.program
      in
      let opt_perf =
        if o.improved && Dsl.Types.well_typed b.perf_env o.optimized then
          o.optimized
        else b.perf_expected_opt
      in
      let s =
        Fw.speedup Fw.numpy Pf.amd_7950x b.perf_env
          ~original:b.perf_program ~optimized:opt_perf
      in
      Printf.printf "%-16s %-34s %7.2fx\n" b.name
        (if o.improved then Ast.to_string o.optimized else "(unimproved)")
        s)
    B.masking

(* ------------------------------------------------------------------ *)
(* Scalability: synthesis effort vs expression size (Section VII-E)    *)
(* ------------------------------------------------------------------ *)

let scaling ctx =
  header
    "Scalability: synthesis effort vs input expression size\n\
     (randomly generated programs; Section VII-E discusses this trade-off)";
  Printf.printf "%-6s %10s %10s %10s %12s\n" "ops" "time" "nodes"
    "library" "improved";
  Printf.printf "%s\n" subline;
  let model = Lazy.force ctx.model in
  List.iter
    (fun size ->
      let programs =
        Suite.Generator.generate_many
          { Suite.Generator.default with size; seed = 42 }
          5
      in
      let times = ref 0. and nodes = ref 0 and libs = ref 0 and impr = ref 0 in
      List.iter
        (fun (env, prog) ->
          let t0 = Unix.gettimeofday () in
          let o = Stenso.Superopt.optimize ~model ~env prog in
          times := !times +. (Unix.gettimeofday () -. t0);
          nodes := !nodes + o.search.stats.nodes;
          libs := !libs + o.search.stats.library_size;
          if o.improved then incr impr)
        programs;
      let n = List.length programs in
      Printf.printf "%-6d %9.2fs %10d %10d %9d/%d\n" size
        (!times /. float_of_int n)
        (!nodes / n) (!libs / n) !impr n)
    [ 2; 4; 6; 8 ]

(* ------------------------------------------------------------------ *)
(* Execution engines: interpreter vs compiled VM                       *)
(* ------------------------------------------------------------------ *)

(* Third field: the program is reduction-rooted with an elementwise
   producer the planner is expected to inline ([ops_fused] > 0) — the CI
   smoke gate checks exactly these entries.  [normalize] and [max_rows]
   reduce a bare input, so there is nothing to fuse. *)
let exec_micro =
  [
    ( "saxpy",
      "input A : f32[256,256]\ninput B : f32[256,256]\n\
       return A * 1.5 + B",
      false );
    ( "lerp",
      "input A : f32[256,256]\ninput B : f32[256,256]\n\
       return A + (B - A) * 0.25",
      false );
    ( "dist",
      "input A : f32[256,256]\ninput B : f32[256,256]\n\
       return np.sqrt(A * A + B * B)",
      false );
    ( "clamp_mask",
      "input A : f32[256,256]\ninput B : f32[256,256]\n\
       return np.where(np.less(A, B), A, B)",
      false );
    ( "poly3",
      "input A : f32[256,256]\n\
       return A * A * A + A * A * 2.0 + A * 0.5 + 1.0",
      false );
    ( "row_scale",
      "input A : f32[256,256]\ninput S : f32[256]\nreturn A * S + A", false );
    ( "sum_prod",
      "input A : f32[256,256]\ninput B : f32[256,256]\n\
       return np.sum(A * B, 0)",
      true );
    ( "sum_all",
      "input A : f32[256,256]\ninput B : f32[256,256]\n\
       return np.sum(A + B)",
      true );
    ( "sum_sq", "input A : f32[256,256]\nreturn np.sum(A * A)", true );
    ( "normalize", "input A : f32[256,256]\nreturn A / np.sum(A)", false );
    ( "max_rows", "input A : f32[256,256]\nreturn np.max(A, 1)", false );
    ( "max_fused",
      "input A : f32[256,256]\ninput B : f32[256,256]\n\
       return np.max(A - B, 1)",
      true );
    ( "matmul",
      "input A : f32[256,256]\ninput B : f32[256,256]\n\
       return np.dot(A, B)",
      false );
    ( "transpose", "input A : f32[512,512]\nreturn A.T", false );
  ]

(* The two ceilings a VM kernel is held against, both measured in this
   process.  Memory: a STREAM triad a.(i) <- b.(i) + 3 c.(i) over three
   arrays holding [bytes] between them (24 bytes an element), so the
   ceiling is that of the cache level the kernel's data lives in.
   Compute: twelve independent x <- x * m + d chains, unrolled, all in
   registers — enough chains that throughput, not latency, bounds them: the
   peak of the scalar float loops the VM runs (2 flops per chain step). *)
let triad_gbps ctx bytes =
  let n = max 512 (int_of_float (bytes /. 24.)) in
  let a = Array.make n 0. and b = Array.make n 1. and c = Array.make n 2. in
  let t =
    time ctx (fun () ->
        for i = 0 to n - 1 do
          Array.unsafe_set a i
            (Array.unsafe_get b i +. (3. *. Array.unsafe_get c i))
        done)
  in
  24. *. float_of_int n /. t /. 1e9

let madd_sink = ref 0.

let madd_gflops ctx =
  let steps = 1 lsl 16 in
  let t =
    time ctx (fun () ->
        let m = 0.999999 and d = 1e-7 in
        let x0 = ref 1. and x1 = ref 2. and x2 = ref 3. and x3 = ref 4.
        and x4 = ref 5. and x5 = ref 6. and x6 = ref 7. and x7 = ref 8.
        and x8 = ref 9. and x9 = ref 10. and x10 = ref 11. and x11 = ref 12. in
        for _ = 1 to steps do
          x0 := (!x0 *. m) +. d;
          x1 := (!x1 *. m) +. d;
          x2 := (!x2 *. m) +. d;
          x3 := (!x3 *. m) +. d;
          x4 := (!x4 *. m) +. d;
          x5 := (!x5 *. m) +. d;
          x6 := (!x6 *. m) +. d;
          x7 := (!x7 *. m) +. d;
          x8 := (!x8 *. m) +. d;
          x9 := (!x9 *. m) +. d;
          x10 := (!x10 *. m) +. d;
          x11 := (!x11 *. m) +. d
        done;
        madd_sink :=
          !x0 +. !x1 +. !x2 +. !x3 +. !x4 +. !x5 +. !x6 +. !x7 +. !x8 +. !x9
          +. !x10 +. !x11)
  in
  24. *. float_of_int steps /. t /. 1e9

(* Bytes of a program's inputs and result: the data a run must touch. *)
let working_set env prog =
  let bytes (vt : Dsl.Types.vt) =
    8. *. float_of_int (Tensor.Shape.numel vt.shape)
  in
  List.fold_left
    (fun acc (_, vt) -> acc +. bytes vt)
    (bytes (Dsl.Types.infer env prog))
    env

(* The interp-vs-VM measurement over typed entries, shared by the [vm]
   and [mlsuite] sections: prints one table row per entry as it is
   measured, then each kernel's rates against the ceilings, writes the
   rows to [csv] and returns the stenso.exec-bench/1 document.  Rates
   use the bytes model (which charges every operation's reads and
   writes, fused or not) and the flops model.  A kernel's working set
   over the triad rate and its flops over the multiply-add peak are the
   two times the hardware needs at least; the larger names the bounding
   ceiling, and its share of the measured time is the kernel's fraction
   of that ceiling. *)
let exec_point ctx ~csv entries =
  let module J = Stenso.Telemetry.Json in
  let options = Stenso.Config.exec_options ctx.config in
  Printf.printf "exec options: %s\n\n"
    (Stenso.Exec.Options.fingerprint options);
  Printf.printf "%-14s %12s %12s %9s  %s\n%s\n" "Benchmark" "interp" "vm"
    "speedup" "plan (steps, fused, strips, reused, arena)" subline;
  let rows =
    List.map
      (fun (name, env, prog, expects_fused) ->
        ignore (Dsl.Types.infer env prog);
        let st = Random.State.make [| 0xe4ec |] in
        let inputs = Dsl.Interp.random_inputs st env in
        let lookup n = List.assoc n inputs in
        let compiled = Stenso.Exec.compile ~options ~env prog in
        let ti =
          time ctx (fun () -> ignore (Dsl.Interp.eval_alist inputs prog))
        in
        let tv =
          time ctx (fun () -> ignore (Stenso.Exec.run compiled lookup))
        in
        let s = Stenso.Exec.stats compiled in
        let speedup = ti /. tv in
        Printf.printf
          "%-14s %10.1fus %10.1fus %8.2fx  (%d, %d, %d, %d, %dB)\n" name
          (ti *. 1e6) (tv *. 1e6) speedup s.steps s.ops_fused s.parallel_strips
          s.buffers_reused s.arena_bytes;
        if expects_fused && s.ops_fused = 0 then
          Printf.printf
            "  WARNING: %s is reduction-rooted but nothing was fused\n" name;
        let bytes = Cost.Model.program_cost Cost.Model.bytes env prog
        and flops = Cost.Model.program_cost Cost.Model.flops env prog in
        ((name, ti, tv, speedup, s, expects_fused),
         (bytes, flops, working_set env prog)))
      entries
  in
  let g = geomean (List.map (fun ((_, _, _, s, _, _), _) -> s) rows) in
  Printf.printf "%s\n%-14s %34.2fx geomean\n" subline "" g;
  let peak = madd_gflops ctx in
  Printf.printf
    "\nrates against ceilings (scalar multiply-add peak %.2f GFLOP/s)\n\
     %-14s %9s %9s %9s %8s %9s\n%s\n"
    peak "Benchmark" "GB/s" "GFLOP/s" "triad" "bound" "fraction" subline;
  let rows =
    List.map
      (fun (((name, _, tv, speedup, _, _) as row), (bytes, flops, ws)) ->
        let triad = triad_gbps ctx ws in
        let t_mem = ws /. (triad *. 1e9) and t_fp = flops /. (peak *. 1e9) in
        let bound = if t_mem >= t_fp then "memory" else "compute" in
        let ceil =
          ( bytes /. tv /. 1e9,
            flops /. tv /. 1e9,
            triad,
            bound,
            Float.max t_mem t_fp /. tv )
        in
        let gbps, gflops, _, _, fraction = ceil in
        Printf.printf "%-14s %9.2f %9.2f %9.2f %8s %8.1f%%  (%.2fx interp)\n"
          name gbps gflops triad bound (100. *. fraction) speedup;
        (row, ceil))
      rows
  in
  emit_csv ctx csv
    [ "benchmark"; "interp_seconds"; "vm_seconds"; "speedup"; "gbps";
      "gflops"; "ceiling_fraction" ]
    (List.map
       (fun ((name, ti, tv, s, _, _), (gbps, gflops, _, _, fraction)) ->
         [ name; Printf.sprintf "%.9g" ti; Printf.sprintf "%.9g" tv;
           Printf.sprintf "%.4f" s; Printf.sprintf "%.4f" gbps;
           Printf.sprintf "%.4f" gflops; Printf.sprintf "%.4f" fraction ])
       rows);
  J.Obj
    [
      ("schema", J.Str Suite.Report.exec_bench);
      ("version", J.Str Stenso.Version.current);
      ("options", J.Str (Stenso.Exec.Options.fingerprint options));
      ("n_benchmarks", J.Int (List.length rows));
      ("geomean_speedup", J.Float g);
      ("peak_gflops", J.Float peak);
      ( "results",
        J.List
          (List.map
             (fun ( (name, ti, tv, s, (st : Stenso.Exec.stats), expects_fused),
                    (gbps, gflops, triad, bound, fraction) ) ->
               J.Obj
                 [
                   ("name", J.Str name);
                   ("interp_seconds", J.Float ti);
                   ("vm_seconds", J.Float tv);
                   ("speedup", J.Float s);
                   ("steps", J.Int st.steps);
                   ("ops_fused", J.Int st.ops_fused);
                   ("parallel_strips", J.Int st.parallel_strips);
                   ("buffers_reused", J.Int st.buffers_reused);
                   ("arena_bytes", J.Int st.arena_bytes);
                   ("expects_fused_reduction", J.Bool expects_fused);
                   ("gbps", J.Float gbps);
                   ("gflops", J.Float gflops);
                   ("triad_gbps", J.Float triad);
                   ("bound", J.Str bound);
                   ("ceiling_fraction", J.Float fraction);
                 ])
             rows) );
    ]

let exec_bench ctx =
  header
    "Execution engines: tree-walking interpreter vs compiled VM\n\
     elementwise/reduction/contraction microbenchmarks; per-iteration\n\
     wall-clock, minimum of doubling batches";
  let entries =
    List.map
      (fun (name, source, expects_fused) ->
        let env, prog = Dsl.Parser.program source in
        (name, env, prog, expects_fused))
      exec_micro
  in
  Common.write_report ~label:"exec-bench" ctx.report
    (exec_point ctx ~csv:"exec_vm" entries)

(* ------------------------------------------------------------------ *)
(* ML-kernel workload tier: exec point + tiered-serving point          *)
(* ------------------------------------------------------------------ *)

let mlsuite ctx =
  header
    "ML-kernel workload tier (softmax / layernorm / attention)\n\
     exec point: interp vs VM at performance shapes; tiers point:\n\
     mined depth-2 rules vs full search at synthesis shapes";
  let entries =
    List.map
      (fun (b : B.t) ->
        (* attn_mix's elementwise producer feeds a contraction, not a
           reduction loop — the planner has nothing to inline there. *)
        (b.name, b.perf_env, b.perf_program, b.name <> "attn_mix"))
      B.ml
  in
  let exec = exec_point ctx ~csv:"mlsuite_exec" entries in
  (* Tiered-serving point: mine the tier's environments at depth 2 into
     a scratch store, then run the same benchmarks three ways —
     baseline (full search, no store), cold (mined rules, empty outcome
     store), warm (the same requests again, now also hitting the
     outcome store). *)
  let config =
    ctx.config
    |> Stenso.Config.with_estimator `Flops
    |> Stenso.Config.with_timeout (if ctx.full then 30. else 10.)
    |> Stenso.Config.with_rules_depth 2
  in
  let model = Stenso.Config.model config in
  let jobs = Stenso.Config.jobs config in
  let store_dir = Filename.temp_file "stenso-mlsuite" ".store" in
  Sys.remove store_dir;
  let store =
    Stenso.Store.open_store ~tel:Stenso.Telemetry.null ~dir:store_dir ()
  in
  Printf.printf "\nmining depth-2 rules over %d benchmark environments...\n%!"
    (List.length B.ml);
  let stats =
    Stenso.Mine.mine ~jobs ~depth:2 ~model ~store
      (List.map (fun (b : B.t) -> (b.name, b.env)) B.ml)
  in
  List.iter
    (fun (s : Stenso.Mine.env_stats) ->
      Printf.printf "  %-16s %4d rules, %6d optima%s %6.1fs\n%!" s.label
        s.rules s.optima
        (if s.truncated then " (truncated)" else "")
        s.elapsed)
    stats;
  let baseline, cold, warm =
    Suite.Driver.run_tiers
      ~on_pass:(Printf.printf "%s pass...\n%!")
      ~config ~store B.ml
  in
  let tiers = Suite.Driver.tiers_report ~config ~baseline ~cold ~warm () in
  Common.write_report ~min_speedup:1.0 ~label:"mlsuite" ctx.report
    (Suite.Driver.mlsuite_report ~exec ~tiers ())

(* ------------------------------------------------------------------ *)
(* Lifting front-end: success rate, lift time, end-to-end speedup      *)
(* ------------------------------------------------------------------ *)

let lift_bench ctx =
  header
    "Lifting front-end: scalar loop nests -> certified DSL -> superoptimized\n\
     success rate and lift/verify time at synthesis shapes; end-to-end\n\
     speedup of the VM on the optimized lift vs the scalar loop\n\
     interpreter at performance shapes";
  let config = Stenso.Config.with_estimator `Flops ctx.config in
  let options = Stenso.Config.exec_options config in
  let stub_cache = Stenso.Stub.Cache.create () in
  Printf.printf "%-16s %-6s %8s %10s %8s %8s %9s\n%s\n" "kernel" "lifted"
    "sketches" "pruned" "library" "lift s" "speedup" subline;
  let t0 = Unix.gettimeofday () in
  let entries =
    List.map
      (fun (k : Suite.Lifted.t) ->
        let kernel = Stenso.Lift.Loop_parser.kernel k.source in
        let result = Stenso.Lift.optimize ~config ~stub_cache kernel in
        match result with
        | Error e ->
            Printf.printf "%-16s %-6s %s\n%!" k.name "NO"
              (Stenso.Lift.error_message e);
            Suite.Driver.lift_entry_of k.name result
        | Ok (l, _) ->
            (* End-to-end point at performance shapes: the scalar loop
               interpreter running the kernel vs the VM running the
               tier's optimized form (the lift's program with the
               shape attributes rescaled), checked against each other
               on the measured inputs before timing. *)
            let b = B.find k.name in
            let perf_kernel = Stenso.Lift.Loop_parser.kernel k.perf_source in
            let st = Random.State.make [| 0x5eed |] in
            let inputs = Dsl.Interp.random_inputs st b.perf_env in
            let lookup n = List.assoc n inputs in
            let expected =
              Stenso.Lift.Loop_interp.run_tensors perf_kernel inputs
            in
            let compiled =
              Stenso.Exec.compile ~options ~env:b.perf_env b.perf_expected_opt
            in
            let got = Stenso.Exec.run compiled lookup in
            if
              not
                (Tensor.Ftensor.shape got = Tensor.Ftensor.shape expected
                && Tensor.Ftensor.allclose ~rtol:1e-6 ~atol:1e-9 got expected)
            then
              Common.die
                "bench lift: %s: VM disagrees with the loop interpreter at \
                 performance shapes"
                k.name;
            let loop_s =
              time ctx (fun () ->
                  ignore
                    (Stenso.Lift.Loop_interp.run_tensors perf_kernel inputs))
            in
            let vm_s =
              time ctx (fun () -> ignore (Stenso.Exec.run compiled lookup))
            in
            let speedup = if vm_s > 0. then loop_s /. vm_s else 1. in
            Printf.printf "%-16s %-6s %8d %10d %8d %8.2f %8.1fx\n%!" k.name
              "yes" l.stats.sketches l.stats.pruned_by_value
              l.stats.library_size l.stats.lift_s speedup;
            Suite.Driver.lift_entry_of ~speedup k.name result)
      Suite.Lifted.all
  in
  let n = List.length entries in
  let n_lifted =
    List.length (List.filter (fun e -> e.Suite.Driver.lifted) entries)
  in
  Printf.printf "%s\n%d/%d kernels lifted and certified\n" subline n_lifted n;
  emit_csv ctx "lift"
    [ "name"; "lifted"; "sketches"; "pruned_by_value"; "library"; "lift_s";
      "verify_s"; "speedup" ]
    (List.map
       (fun (e : Suite.Driver.lift_entry) ->
         [
           e.lift_name;
           (if e.lifted then "1" else "0");
           string_of_int e.lift_stats.sketches;
           string_of_int e.lift_stats.pruned_by_value;
           string_of_int e.lift_stats.library_size;
           Printf.sprintf "%.4f" e.lift_stats.lift_s;
           Printf.sprintf "%.4f" e.lift_stats.verify_s;
           (match e.lift_speedup with
           | Some s -> Printf.sprintf "%.2f" s
           | None -> "");
         ])
       entries);
  Common.write_report ~min_success:(7. /. 8.) ~label:"lift" ctx.report
    (Suite.Driver.lift_report ~config
       ~elapsed:(Unix.gettimeofday () -. t0)
       entries)

(* ------------------------------------------------------------------ *)
(* Real wall-clock on the tensor substrate                             *)
(* ------------------------------------------------------------------ *)

let wallclock ctx results =
  header
    "Wall-clock of original vs optimized kernels on this machine's eager\n\
     interpreter (per-call minimum of doubling batches)";
  Printf.printf "%-16s %14s %14s %10s\n" "Benchmark" "original" "stenso"
    "speedup";
  Printf.printf "%s\n" subline;
  List.iter
    (fun name ->
      match List.find_opt (fun r -> r.bench.B.name = name) results with
      | None -> ()
      | Some r ->
          let st = Random.State.make [| 0xbeca |] in
          let inputs = Dsl.Interp.random_inputs st r.bench.perf_env in
          let run prog =
            time ctx (fun () -> ignore (Dsl.Interp.eval_alist inputs prog))
          in
          let o = run r.bench.perf_program in
          let s = run r.opt_perf in
          Printf.printf "%-16s %12.1fus %12.1fus %9.2fx\n" name (o *. 1e6)
            (s *. 1e6) (o /. s))
    [ "diag_dot"; "mat_vec_prod"; "vec_lerp"; "power_neg"; "sum_stack";
      "trace_dot"; "synth_12" ]

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* Each section with whether it has a document for [--report] to write:
   the synthesis sections write the suite report, [vm], [mlsuite] and
   [lift] their own. *)
let sections =
  [
    ("tables", true, with_results tables);
    ("fig4", true, with_results fig4);
    ("fig5", false, fig5);
    ("fig6", true, with_results fig6);
    ("fig7", true, with_results fig7);
    ("fig8", true, with_results fig8);
    ("rules", true, with_results rules);
    ("egraph", true, with_results egraph);
    ("ablation", false, ablations);
    ("vm", true, exec_bench);
    ("mlsuite", true, mlsuite);
    ("lift", true, lift_bench);
    ("masking", false, masking);
    ("scaling", false, scaling);
    ("wallclock", true, with_results wallclock);
  ]

(* Run the named sections ([[]]: all of them) in their canonical order. *)
let run ~config ~full ~out ~report names =
  Option.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755) out;
  let rec ctx =
    {
      config;
      full;
      out;
      report;
      model = lazy (Stenso.Config.model config);
      results = lazy (synthesize_all ctx);
    }
  in
  List.iter
    (fun (name, _, section) ->
      if names = [] || List.mem name names then section ctx)
    sections
