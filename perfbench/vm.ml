(* vm_kernels: run time of generated code.  The 14 exec micro-kernels of
   the repository's exec bench plus the 9 ML kernels at their
   performance shapes, each compiled once with [Exec.compile] (default
   options, one domain) and run repeatedly with [Exec.run] on seeded
   inputs.  Rates use the bytes moved and flops [Cost.Model] computes
   for the program, over the measured time. *)

module S = Stenso
module B = Suite.Benchmarks
module L = Ledger

let micro =
  [
    ("saxpy", "input A : f32[256,256]\ninput B : f32[256,256]\nreturn A * 1.5 + B");
    ("lerp", "input A : f32[256,256]\ninput B : f32[256,256]\nreturn A + (B - A) * 0.25");
    ("dist", "input A : f32[256,256]\ninput B : f32[256,256]\nreturn np.sqrt(A * A + B * B)");
    ( "clamp_mask",
      "input A : f32[256,256]\ninput B : f32[256,256]\nreturn np.where(np.less(A, B), A, B)" );
    ("poly3", "input A : f32[256,256]\nreturn A * A * A + A * A * 2.0 + A * 0.5 + 1.0");
    ("row_scale", "input A : f32[256,256]\ninput S : f32[256]\nreturn A * S + A");
    ("sum_prod", "input A : f32[256,256]\ninput B : f32[256,256]\nreturn np.sum(A * B, 0)");
    ("sum_all", "input A : f32[256,256]\ninput B : f32[256,256]\nreturn np.sum(A + B)");
    ("sum_sq", "input A : f32[256,256]\nreturn np.sum(A * A)");
    ("normalize", "input A : f32[256,256]\nreturn A / np.sum(A)");
    ("max_rows", "input A : f32[256,256]\nreturn np.max(A, 1)");
    ("max_fused", "input A : f32[256,256]\ninput B : f32[256,256]\nreturn np.max(A - B, 1)");
    ("matmul", "input A : f32[256,256]\ninput B : f32[256,256]\nreturn np.dot(A, B)");
    ("transpose", "input A : f32[512,512]\nreturn A.T");
  ]

let sources () =
  micro
  @ List.map
      (fun (b : B.t) -> (b.name, Dsl.Parser.unparse b.perf_env b.perf_program))
      B.ml

let names () = List.map fst (sources ())

let options = S.Exec.Options.(default |> with_domains 1)

type kernel = {
  kname : string;
  env : Dsl.Types.env;
  prog : Dsl.Ast.t;
  compiled : S.Exec.compiled;
  inputs : (string * Tensor.Ftensor.t) list;
  compile_s : float;
}

(* Set-ups per run (setup_s is their median), untimed warm-up before
   the timed rounds, and the least time one timed batch of a kernel
   takes. *)
let setup_runs = 5
let warmup_s = 1.5
let batch_s = 0.005

let bytes_model =
  {
    Cost.Model.name = "bytes";
    op_cost = Cost.Model.bytes_moved;
    iter_scale = 1;
  }

let run (opts : Workload.opts) =
  let srcs = Workload.select opts (sources ()) ~name:fst in
  let led = L.create ~enabled:opts.trace in
  let setup () =
    List.map
      (fun (kname, text) ->
        let env, prog = Dsl.Parser.program text in
        let compiled, compile_s =
          Util.time (fun () -> S.Exec.compile ~options ~env prog)
        in
        let st = Random.State.make [| opts.seed; Hashtbl.hash kname |] in
        let inputs = Dsl.Interp.random_inputs st env in
        { kname; env; prog; compiled; inputs; compile_s })
      srcs
  in
  (* Set up once to keep and [setup_runs - 1] more times to throw away
     (each collected at once, so the memory high-water mark stays that
     of one set-up), all before the warm-up so that no set-up runs
     between timed batches. *)
  let t_begin = Util.now () in
  let setups = ref [] and compiles = ref [] in
  let sample_setup () =
    let ks, dt, _ = L.span led ~req:"setup" "exec.setup" setup in
    setups := dt :: !setups;
    compiles := List.map (fun k -> k.compile_s) ks @ !compiles;
    ks
  in
  let kernels = sample_setup () in
  for _ = 2 to setup_runs do
    ignore (sample_setup ());
    ignore (L.span led ~req:"harness" "harness.gc" Gc.full_major)
  done;
  let run_once k = S.Exec.run k.compiled (fun n -> List.assoc n k.inputs) in
  (* Reference: the interpreter on the same inputs, before and after the
     timed runs (the arena is reused across runs). *)
  let failed = ref 0 in
  let check k =
    match Dsl.Interp.eval_alist k.inputs k.prog with
    | exception e ->
        incr failed;
        Workload.fail k.kname ("reference raised " ^ Printexc.to_string e)
    | expected ->
        if not (Check.close (run_once k) expected) then begin
          incr failed;
          Workload.fail k.kname "VM result disagrees with Dsl.Interp"
        end
  in
  let check_all () =
    ignore (L.span led ~req:"check" "check.interp" (fun () -> List.iter check kernels))
  in
  check_all ();
  let order = Util.shuffle (Random.State.make [| opts.seed |]) kernels in
  (* One round: every kernel once, [n k] runs in a row, in the seeded
     order; results are allocated per run, and collecting them once per
     round keeps the heap (and the memory high-water mark) from
     depending on GC pacing. *)
  let round n record =
    List.iter
      (fun k ->
        let n = n k in
        let (), dt, _ =
          L.span led ~req:k.kname "exec.run" (fun () ->
              for _ = 1 to n do
                ignore (run_once k)
              done)
        in
        record k (dt /. float_of_int n))
      order;
    ignore (L.span led ~req:"harness" "harness.gc" Gc.full_major)
  in
  (* Warm-up, untimed: on a 2-vCPU VM the first second or so of rounds
     ran up to twice as slow as the rest (cause not isolated).  Its
     single runs size each kernel's batch for the timed rounds. *)
  let warm = Hashtbl.create 32 in
  let add tbl k dt =
    Hashtbl.replace tbl k.kname
      (dt :: Option.value ~default:[] (Hashtbl.find_opt tbl k.kname))
  in
  let t_warm = Util.now () in
  while Util.now () < t_warm +. warmup_s do
    round (fun _ -> 1) (add warm)
  done;
  let batch =
    List.map
      (fun k ->
        let t = Util.median (Hashtbl.find warm k.kname) in
        (k.kname, max 1 (int_of_float (Float.ceil (batch_s /. Float.max t 1e-7)))))
      kernels
  in
  let samples = Hashtbl.create 32 in
  let t_start = Util.now () in
  while Util.now () < t_start +. opts.seconds do
    round (fun k -> List.assoc k.kname batch) (add samples)
  done;
  check_all ();
  let wall = Util.now () -. t_begin in
  let setup_s = Util.median !setups in
  let compile_us =
    1e6 *. Util.sum !compiles /. float_of_int (List.length !compiles)
  in
  let items =
    List.map (fun k -> (k.kname, Hashtbl.find samples k.kname)) kernels
  in
  let total = Util.sum (List.map (fun (_, l) -> Util.median l) items) in
  let exact =
    List.map
      (fun k ->
        let s = S.Exec.stats k.compiled in
        ( k.kname,
          [
            ("steps", string_of_int s.steps);
            ("ops_fused", string_of_int s.ops_fused);
            ("arena_bytes", string_of_int s.arena_bytes);
          ] ))
      kernels
  in
  let layers =
    if not opts.trace then begin
      Workload.untraced_done opts "vm_kernels" ~total exact;
      []
    end
    else begin
      let untraced = Workload.traced_done opts "vm_kernels" exact in
      L.print_layers led;
      let unaccounted, overhead =
        Workload.print_ledger_line "vm_kernels" ~e2e_ms:(wall *. 1000.)
          ~steps_ms:
            (Util.sum
               (List.map (L.total_ms led) [ "exec.setup"; "check.interp"; "exec.run"; "harness.gc" ]))
          ~traced_total:total
          ~untraced_total:untraced
      in
      let per_kernel =
        List.concat_map
          (fun k ->
            let t = Util.median (Hashtbl.find samples k.kname) in
            let flops = Cost.Model.program_cost Cost.Model.flops k.env k.prog in
            let bytes = Cost.Model.program_cost bytes_model k.env k.prog in
            [
              (Printf.sprintf "vm.%s.us" k.kname, t *. 1e6);
              (Printf.sprintf "vm.%s.gbps" k.kname, bytes /. t /. 1e9);
              (Printf.sprintf "vm.%s.gflops" k.kname, flops /. t /. 1e9);
            ])
          kernels
      in
      let stat f =
        float_of_int
          (List.fold_left (fun a k -> a + f (S.Exec.stats k.compiled)) 0 kernels)
      in
      [
        ("exec.compile_us", compile_us);
        ("exec.ops_fused", stat (fun s -> s.S.Exec.ops_fused));
        ("exec.arena_bytes", stat (fun s -> s.S.Exec.arena_bytes));
        ("unaccounted_ms", unaccounted);
        ("trace.overhead_ms", Option.value ~default:0. overhead);
      ]
      @ per_kernel
    end
  in
  if opts.trace then
    L.write_ndjson led
      (Filename.concat opts.state
         (Printf.sprintf "trace-vm_kernels-%d.ndjson" opts.seed));
  {
    Workload.setup = setup_s;
    items;
    samples = List.concat_map snd items;
    (* Kernel runs per second with every kernel weighted once, at its
       median time (batch sizes would otherwise set the mix). *)
    completed = List.length kernels;
    busy = total;
    cost_ratios = [];
    rss_mb = Util.peak_rss_mb ();
    attempted = 2 * List.length kernels;
    failed = !failed;
    layers;
  }
