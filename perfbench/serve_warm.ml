(* serve_warm: the built [stenso serve] daemon (Unix socket, 2 workers,
   flops, scratch store) answering the synth_cold programs from its
   store.  Set-up copies the cold answers (computed once per checkout)
   into the store, starts the daemon and sends it one request per
   program; then 2 keep-alive
   connections, each a closed loop ([Net.Loadgen]) over its own seeded
   order of the request lines, drive it for the measured seconds.  Every
   answer is a tier-1 store read.

   The traced run adds an in-process replay of the same lines through
   [Serve.handle_line] over the daemon's store, with each serving step
   (decode, parse, key, lookup, encode) replayed through its public
   function to split the handler's time. *)

module S = Stenso
module Json = S.Telemetry.Json
module L = Ledger

let config =
  S.Config.default
  |> S.Config.with_estimator `Flops
  |> S.Config.with_timeout 60. |> S.Config.with_jobs 1

let connections = 2
let setup_runs = 5

type daemon = { pid : int; ep : S.Net.Endpoint.t }

let running pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

let start_daemon ~cli ~dir ~sock ~log =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.create_process cli
          [|
            cli; "serve"; "--socket"; sock; "--store-dir"; dir;
            "--cost-estimator"; "flops"; "--workers"; string_of_int connections;
            "--timeout"; "60";
          |]
          Unix.stdin fd fd)
  in
  let ep = S.Net.Endpoint.Unix_sock sock in
  let deadline = Util.now () +. 60. in
  let rec wait () =
    match S.Net.Endpoint.connect ep with
    | Ok fd ->
        Unix.close fd;
        Ok { pid; ep }
    | Error e ->
        if Util.now () > deadline || not (running pid) then Error e
        else begin
          Unix.sleepf 0.002;
          wait ()
        end
  in
  match wait () with
  | Ok d -> Ok d
  | Error e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      Error ("daemon did not start: " ^ Printexc.to_string e)

(* SIGTERM, then wait for the graceful drain; anything but exit 0 is a
   failure. *)
let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Util.now () +. 30. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Util.now () < deadline ->
        Unix.sleepf 0.02;
        wait ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid);
        Error "daemon did not drain within 30 s of SIGTERM"
    | _, Unix.WEXITED 0 -> Ok ()
    | _, Unix.WEXITED n -> Error (Printf.sprintf "daemon exited with status %d" n)
    | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
        Error (Printf.sprintf "daemon killed by signal %d" n)
  in
  wait ()

(* The request id is the line's index; responses echo it near the front,
   so the load generator's classifier reads it without a JSON parse. *)
let id_of_response resp =
  let pat = "\"id\":" in
  let n = String.length resp and k = String.length pat in
  let rec find i =
    if i + k > n then -1
    else if String.sub resp i k = pat then
      let j = ref (i + k) in
      while !j < n && resp.[!j] >= '0' && resp.[!j] <= '9' do incr j done;
      Option.value ~default:(-1) (int_of_string_opt (String.sub resp (i + k) (!j - i - k)))
    else find (i + 1)
  in
  find 0

let field name j conv = Option.bind (Json.member name j) conv

let run (opts : Workload.opts) =
  let progs = List.map Synth.parse (Workload.select opts (Synth.sources Synth.Cold) ~name:fst) in
  let progs = Array.of_list progs in
  let lines =
    Array.mapi
      (fun i (p : Synth.program) ->
        Json.to_string
          (Json.Obj
             [ ("id", Json.Int i); ("program", Json.Str (Dsl.Parser.unparse p.env p.prog)) ]))
      progs
  in
  let order = Util.shuffle (Random.State.make [| opts.seed |]) (Array.to_list lines) in
  let tmp = Filename.concat opts.state "tmp-serve_warm" in
  Util.rm_rf tmp;
  Util.mkdir_p tmp;
  let failed = ref 0 in
  let fail what why =
    incr failed;
    Workload.fail what why
  in
  (* The cold answers are computed in process, on as many domains as the
     daemon has workers, into a store the daemon then serves (same
     configuration, so the same store keys); the daemon's high-water
     mark is then that of warm serving, not of the cold synthesis
     synth_cold already measures.  They are computed once per checkout
     and kept in the state directory, keyed by the two executables and
     the request lines: the daemon serves a copy. *)
  let filled =
    let key =
      Digest.to_hex
        (Digest.string
           (String.concat "\n"
              (Digest.file Sys.executable_name :: Digest.file opts.cli
              :: Array.to_list lines)))
    in
    Filename.concat opts.state ("serve_store-" ^ key)
  in
  if not (Sys.file_exists filled) then begin
    (* Answers of other builds are stale. *)
    Array.iter
      (fun e ->
        if String.starts_with ~prefix:"serve_store-" e then
          Util.rm_rf (Filename.concat opts.state e))
      (Sys.readdir opts.state);
    let fresh = filled ^ ".tmp" in
    let (), dt =
      Util.time (fun () ->
          let store = S.Store.open_store ~dir:fresh () in
          let stub_cache = S.Stub.Cache.create () in
          let model = S.Config.model config in
          (* A fixed split (even / odd positions), not a shared cursor,
             so the answers do not depend on which domain picks which
             program. *)
          let half r =
            Array.iteri
              (fun i (p : Synth.program) ->
                if i mod connections = r then
                  ignore
                    (S.Superopt.optimize ~config ~store ~stub_cache ~model
                       ~env:p.env p.prog))
              progs
          in
          let others =
            List.init (connections - 1) (fun r -> Domain.spawn (fun () -> half (r + 1)))
          in
          half 0;
          List.iter Domain.join others;
          S.Store.flush store)
    in
    Sys.rename fresh filled;
    Printf.printf "computed the %d cold answers in %.2f s (once per checkout)\n%!"
      (Array.length progs) dt
  end;
  let responses : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let lock = Mutex.create () in
  (* One closed loop per connection, each replaying its own seeded order
     of the lines: with one shared order the two connections drift into
     lockstep and coalesce on every request. *)
  let loadgen daemon ~warmup ~duration k =
    S.Net.Loadgen.run
      ~classify:(fun resp ->
        Mutex.protect lock (fun () ->
            Hashtbl.replace responses resp
              (1 + Option.value ~default:0 (Hashtbl.find_opt responses resp)));
        id_of_response resp)
      {
        S.Net.Loadgen.endpoints = [ daemon.ep ];
        concurrency = 1;
        duration;
        timeout = 30.;
        warmup_lines = warmup;
        warmup_timeout = 60.;
        settle = 0.;
        lines =
          Array.of_list
            (Util.shuffle (Random.State.make [| opts.seed; k |]) (Array.to_list lines));
      }
  in
  let closed_loops daemon duration =
    let results = Array.make connections None in
    let threads =
      List.init connections (fun k ->
          Thread.create
            (fun () -> results.(k) <- Some (loadgen daemon ~warmup:[] ~duration k))
            ())
    in
    List.iter Thread.join threads;
    let stats = Array.to_list (Array.map Option.get results) in
    {
      S.Net.Loadgen.samples =
        Array.concat (List.map (fun (r : S.Net.Loadgen.stats) -> r.samples) stats);
      n_transport_errors =
        List.fold_left (fun a (r : S.Net.Loadgen.stats) -> a + r.n_transport_errors) 0 stats;
      elapsed =
        List.fold_left (fun a (r : S.Net.Loadgen.stats) -> Float.max a r.elapsed) 0. stats;
    }
  in
  (* Set-up, made [setup_runs] times (setup_s is their median): copy the
     answers, start a daemon over them and send it one request per
     program.  [f] gets the warm daemon; it is killed if [f] raises. *)
  let setups = ref [] in
  let setup k f =
    let dir = Filename.concat tmp (Printf.sprintf "store%d" k) in
    let t0 = Util.now () in
    Synth.copy_tree filled dir;
    let daemon =
      match
        start_daemon ~cli:opts.cli ~dir
          ~sock:(Filename.concat tmp (Printf.sprintf "s%d.sock" k))
          ~log:(Filename.concat tmp (Printf.sprintf "serve%d.log" k))
      with
      | Ok d -> d
      | Error e ->
          Workload.fail "serve_warm" e;
          exit 1
    in
    Fun.protect
      ~finally:(fun () ->
        if running daemon.pid then begin
          (try Unix.kill daemon.pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] daemon.pid) with Unix.Unix_error _ -> ()
        end)
      (fun () ->
        ignore (loadgen daemon ~warmup:order ~duration:0. 0);
        setups := (Util.now () -. t0) :: !setups;
        f dir daemon)
  in
  (* The first set-ups are stopped again at once and must drain cleanly
     too; the last daemon is measured. *)
  for k = 1 to setup_runs - 1 do
    setup k (fun _ daemon ->
        match stop_daemon daemon with Ok () -> () | Error e -> fail "daemon" e)
  done;
  let dir, stats, rss_mb, stop =
    setup 0 (fun dir daemon ->
        Hashtbl.reset responses;
        let stats = closed_loops daemon opts.seconds in
        let rss = Util.peak_rss_mb ~pid:(string_of_int daemon.pid) () in
        (dir, stats, rss, stop_daemon daemon))
  in
  let setup_s = Util.median !setups in
  Printf.printf "daemon started and warmed with %d requests in %.3f s (median of %s s)\n%!"
    (Array.length lines) setup_s
    (String.concat ", " (List.rev_map (Printf.sprintf "%.3f") !setups));
  (match stop with Ok () -> () | Error e -> fail "daemon" e);
  (* Every distinct response, checked once against the reference; each
     also yields its program's answer (text and flops cost ratio). *)
  let coalesced = ref 0 and busy = ref 0 and cold = ref 0 in
  let answers = Hashtbl.create 64 in
  let judge resp =
    if S.Serve.is_busy_line resp then Error ("serve_warm", "busy")
    else
      match Json.of_string resp with
      | Error e -> Error ("serve_warm", "unparseable response: " ^ e)
      | Ok j -> (
          match field "id" j Json.to_int_opt with
          | Some id when id >= 0 && id < Array.length progs -> (
              let p = progs.(id) in
              let flag name = field name j Json.to_bool_opt = Some true in
              match field "optimized" j Json.to_string_opt with
              | _ when not (flag "ok") ->
                  Error
                    ( p.pname,
                      Option.value ~default:"ok:false" (field "error" j Json.to_string_opt) )
              | _ when not (flag "verified") -> Error (p.pname, "unverified outcome")
              | None -> Error (p.pname, "no optimized program")
              | Some text -> (
                  let ratio =
                    match
                      (field "cost_before" j Json.to_float_opt, field "cost_after" j Json.to_float_opt)
                    with
                    | Some b, Some a when a > 0. -> b /. a
                    | _ -> 1.
                  in
                  Hashtbl.replace answers p.pname (text, ratio);
                  let st = Random.State.make [| opts.seed; id |] in
                  match Check.equivalent_text st ~env:p.env ~original:p.prog text with
                  | Ok () -> Ok (flag "coalesced", flag "cache_hit")
                  | Error e -> Error (p.pname, e)))
          | _ -> Error ("serve_warm", "response with an unknown id"))
  in
  Hashtbl.iter
    (fun resp count ->
      match judge resp with
      | Ok (was_coalesced, hit) ->
          if was_coalesced then coalesced := !coalesced + count;
          if not hit then cold := !cold + count
      | Error (item, e) ->
          if S.Serve.is_busy_line resp then busy := !busy + count;
          failed := !failed + count;
          Workload.fail item (Printf.sprintf "%s (%d responses)" e count))
    responses;
  if !cold > 0 then
    Printf.printf "note: %d measured responses were not store hits\n" !cold;
  if stats.n_transport_errors > 0 then
    fail "serve_warm" (Printf.sprintf "%d transport errors" stats.n_transport_errors);
  let samples = Array.to_list stats.samples in
  let lat = List.map fst samples in
  let n = List.length lat in
  Printf.printf
    "loadgen: closed loop, %d connections, %d samples in %.2f s; p50 %.3f ms \
     (n=%d), p99 %.3f ms (n=%d, %d beyond)\n"
    connections n stats.elapsed
    (1000. *. Util.percentile lat 50.) n
    (1000. *. Util.percentile lat 99.) n (Util.beyond n 99.);
  let items =
    Array.to_list
      (Array.mapi
         (fun i (p : Synth.program) ->
           (p.pname, List.filter_map (fun (l, c) -> if c = i then Some l else None) samples))
         progs)
    |> List.filter (fun (_, l) -> l <> [])
  in
  let total = Util.sum (List.map (fun (_, l) -> Util.median l) items) in
  let exact =
    Hashtbl.fold
      (fun name (text, ratio) acc ->
        (name, [ ("optimized", text); ("cost_ratio", Util.float_str ratio) ]) :: acc)
      answers []
    |> List.sort compare
  in
  let layers =
    if not opts.trace then begin
      Workload.untraced_done opts "serve_warm" ~total exact;
      []
    end
    else begin
      let untraced = Workload.traced_done opts "serve_warm" exact in
      let led = L.create ~enabled:true in
      let store = S.Store.open_store ~dir () in
      let h = S.Serve.handler ~store ~base:config () in
      List.iter (fun l -> ignore (S.Serve.handle_line h l)) order;
      let model = S.Config.model config in
      let handle = ref [] and steps = Hashtbl.create 8 in
      let deadline = Util.now () +. Float.min opts.seconds 5. in
      let passes = ref 0 in
      while !passes = 0 || Util.now () < deadline do
        incr passes;
        List.iteri
          (fun i line ->
            let req = string_of_int i in
            let resp, dt, sid =
              L.span led ~req "serve.handle" (fun () -> S.Serve.handle_line h line)
            in
            handle := dt :: !handle;
            let step name f =
              let r, dt, _ = L.span led ~parent:sid ~kind:"replay" ~req name f in
              Hashtbl.replace steps name
                (dt :: Option.value ~default:[] (Hashtbl.find_opt steps name));
              r
            in
            let doc = step "serve.decode" (fun () -> Json.of_string (String.trim line)) in
            let text =
              match doc with
              | Ok d -> Option.value ~default:"" (field "program" d Json.to_string_opt)
              | Error _ -> ""
            in
            let env, prog =
              step "serve.parse" (fun () ->
                  let env, prog = Dsl.Parser.program text in
                  ignore (Dsl.Types.infer env prog);
                  (env, prog))
            in
            let key =
              step "serve.key" (fun () ->
                  let spec = Dsl.Sexec.exec_env env prog in
                  S.Superopt.store_key ~config ~model ~env ~spec prog)
            in
            let optimized =
              step "serve.lookup" (fun () ->
                  match S.Store.find_outcome store ~key with
                  | Some e -> snd (Dsl.Parser.program e.S.Store.optimized)
                  | None -> prog)
            in
            let resp_doc = Json.of_string resp in
            step "serve.encode" (fun () ->
                ignore (Dsl.Parser.unparse env optimized);
                match resp_doc with Ok d -> ignore (Json.to_string d) | Error _ -> ()))
          order
      done;
      L.print_layers led;
      let np = float_of_int !passes in
      let step_names = [ "serve.decode"; "serve.parse"; "serve.key"; "serve.lookup"; "serve.encode" ] in
      let unaccounted, overhead =
        Workload.print_ledger_line "serve_warm"
          ~e2e_ms:(L.total_ms led "serve.handle" /. np)
          ~steps_ms:(Util.sum (List.map (L.total_ms led) step_names) /. np)
          ~traced_total:total ~untraced_total:untraced
      in
      L.write_ndjson led
        (Filename.concat opts.state (Printf.sprintf "trace-serve_warm-%d.ndjson" opts.seed));
      let us l = 1e6 *. Util.median l in
      let handle_us = us !handle in
      [
        ("serve.handle_us", handle_us);
        ("serve.decode_us", us (Hashtbl.find steps "serve.decode"));
        ("serve.parse_us", us (Hashtbl.find steps "serve.parse"));
        ("serve.key_us", us (Hashtbl.find steps "serve.key"));
        ("serve.lookup_us", us (Hashtbl.find steps "serve.lookup"));
        ("serve.encode_us", us (Hashtbl.find steps "serve.encode"));
        ("net.overhead_us", us lat -. handle_us);
        ("serve.coalesced", float_of_int !coalesced);
        ("serve.busy", float_of_int !busy);
        ("unaccounted_ms", unaccounted);
        ("trace.overhead_ms", Option.value ~default:0. overhead);
      ]
    end
  in
  Util.rm_rf tmp;
  {
    Workload.setup = setup_s;
    items;
    samples = lat;
    completed = n;
    busy = stats.elapsed;
    cost_ratios = Hashtbl.fold (fun _ (_, r) acc -> r :: acc) answers [];
    rss_mb;
    attempted = n + stats.n_transport_errors;
    failed = !failed;
    layers;
  }
