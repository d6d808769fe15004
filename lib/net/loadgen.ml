(* Closed-loop load generation against line-protocol endpoints.

   A pool of [concurrency] client threads (systhreads — blocking socket
   IO releases the OCaml runtime lock, so hundreds of concurrent
   connections work on a single core) each holds one keep-alive
   connection and replays request lines back-to-back: send, wait for
   the response, record latency, repeat.  Endpoints are assigned
   round-robin across the pool; a thread whose connection dies
   reconnects to the next endpoint in its rotation, so a multi-replica
   deployment is exercised with failover.

   A warmup phase first plays each distinct request once (under a
   longer deadline — cold requests may run a full synthesis), then an
   optional settle pause lets the service finish background work, then
   the measured phase runs for [duration] seconds.  Responses are
   turned into small integer classes by the caller's [classify] so the
   stats stay decoupled from any particular protocol. *)

type cfg = {
  endpoints : Endpoint.t list;
  concurrency : int;
  duration : float;  (* measured-phase seconds *)
  timeout : float;  (* per-exchange deadline in the measured phase *)
  warmup_lines : string list;  (* played once each before measuring *)
  warmup_timeout : float;
  settle : float;  (* pause between warmup and measurement *)
  lines : string array;  (* replayed round-robin by every thread *)
}

type stats = {
  samples : (float * int) array;  (* (latency seconds, class) *)
  n_transport_errors : int;
  elapsed : float;  (* measured-phase wall clock *)
}

(* A client connection that reconnects across endpoint rotation.  [next]
   cycles so consecutive failures try different replicas. *)
type client = {
  eps : Endpoint.t array;
  mutable next : int;
  mutable fd : Unix.file_descr option;
  buf : Buffer.t;
}

let client_of ~endpoints ~index =
  let eps = Array.of_list endpoints in
  { eps; next = index mod Array.length eps; fd = None; buf = Buffer.create 256 }

let disconnect c =
  (match c.fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  c.fd <- None;
  Buffer.clear c.buf

(* Try each endpoint once, starting from the rotation cursor. *)
let connect c =
  match c.fd with
  | Some fd -> Some fd
  | None ->
      let n = Array.length c.eps in
      let rec go attempts =
        if attempts >= n then None
        else
          let ep = c.eps.(c.next) in
          c.next <- (c.next + 1) mod n;
          match Endpoint.connect ep with
          | Ok fd ->
              c.fd <- Some fd;
              Some fd
          | Error _ -> go (attempts + 1)
      in
      go 0

(* One request/response over the client, reconnecting (with one failover
   sweep) when the connection is gone.  [None] = transport failure. *)
let exchange c ~deadline line =
  let attempt fd =
    match Lineio.exchange ~deadline ~buf:c.buf fd line with
    | Ok resp -> Some resp
    | Error _ ->
        disconnect c;
        None
  in
  match connect c with
  | None -> None
  | Some fd -> (
      match attempt fd with
      | Some resp -> Some resp
      | None -> (
          (* One reconnect: the server may have closed a kept-alive
             connection between our requests. *)
          match connect c with None -> None | Some fd -> attempt fd))

let run ~classify cfg =
  if cfg.endpoints = [] then invalid_arg "Loadgen.run: no endpoints";
  if Array.length cfg.lines = 0 then invalid_arg "Loadgen.run: no lines";
  (* Warmup: each distinct line once, spread over a small thread pool. *)
  let warmup = Array.of_list cfg.warmup_lines in
  if Array.length warmup > 0 then begin
    let nw = min cfg.concurrency (Array.length warmup) in
    let pos = Atomic.make 0 in
    let warm_worker i () =
      let c = client_of ~endpoints:cfg.endpoints ~index:i in
      let rec go () =
        let k = Atomic.fetch_and_add pos 1 in
        if k < Array.length warmup then begin
          let deadline = Unix.gettimeofday () +. cfg.warmup_timeout in
          ignore (exchange c ~deadline warmup.(k));
          go ()
        end
      in
      go ();
      disconnect c
    in
    let ts = List.init nw (fun i -> Thread.create (warm_worker i) ()) in
    List.iter Thread.join ts
  end;
  if cfg.settle > 0. then Thread.delay cfg.settle;
  (* Measured phase. *)
  let stop_at = Unix.gettimeofday () +. cfg.duration in
  let merge_lock = Mutex.create () in
  let all_samples = ref [] in
  let transport_errors = ref 0 in
  let worker i () =
    let c = client_of ~endpoints:cfg.endpoints ~index:i in
    let samples = ref [] in
    let errors = ref 0 in
    let k = ref i in
    while Unix.gettimeofday () < stop_at do
      let line = cfg.lines.(!k mod Array.length cfg.lines) in
      incr k;
      let t0 = Unix.gettimeofday () in
      let deadline = t0 +. cfg.timeout in
      (match exchange c ~deadline line with
      | Some resp ->
          samples := (Unix.gettimeofday () -. t0, classify resp) :: !samples
      | None ->
          incr errors;
          (* Back off briefly so a dead server does not spin the CPU. *)
          Thread.delay 0.01)
    done;
    disconnect c;
    Mutex.protect merge_lock (fun () ->
        all_samples := List.rev_append !samples !all_samples;
        transport_errors := !transport_errors + !errors)
  in
  let t0 = Unix.gettimeofday () in
  let ts = List.init cfg.concurrency (fun i -> Thread.create (worker i) ()) in
  List.iter Thread.join ts;
  let elapsed = Unix.gettimeofday () -. t0 in
  {
    samples = Array.of_list !all_samples;
    n_transport_errors = !transport_errors;
    elapsed;
  }

(* Percentile over pre-sorted latencies (nearest-rank). *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
