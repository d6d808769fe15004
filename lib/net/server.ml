(* A multiplexing line-protocol server over TCP and Unix-domain
   listeners.

   One dispatcher (the caller of [run]) owns every connection: it
   accepts, reads request lines into per-connection buffers, enforces
   the line-length cap and the partial-line (slow-loris) deadline, and
   hands complete lines to a bounded Domain worker pool.  Workers
   compute the response through the caller's handler and write it back
   under a write deadline; a self-pipe notification returns the
   connection to the dispatcher, which resumes reading it — so every
   connection is keep-alive (many requests per connection) and each
   connection's requests are processed in order, while requests from
   different connections proceed concurrently.

   Workers also drain a second, low-priority queue of background jobs
   (submitted by the handler through its context): a background job is
   only picked up when no request is waiting, and at most
   [workers - 1] run at once, so background work soaks up spare
   capacity without starving the request path.  On [stop] the server
   drains gracefully: listeners close first, queued and in-flight
   requests finish and flush, pending background jobs are discarded.

   Connections are owned by exactly one side at a time — the
   dispatcher while reading, one worker while a request is in flight —
   so no file descriptor is ever read, written or closed from two
   places concurrently. *)

module Tel = Obs.Telemetry

type config = {
  listeners : Endpoint.t list;
  workers : int;  (** request-serving domains (min 1) *)
  queue_capacity : int;
      (** pending request lines beyond which requests are answered with
          the busy line instead of queueing unboundedly *)
  background_capacity : int;  (** pending background jobs cap *)
  max_conns : int;
      (** open connections beyond which new ones are shed at accept *)
  max_line : int;  (** request line byte cap *)
  read_deadline : float;
      (** seconds a partial request line may sit without progress
          before the connection is closed (the slow-loris guard) *)
  write_deadline : float;  (** seconds a response write may take *)
  tick : float;  (** dispatcher poll period, also the sweep period *)
}

let default_config =
  {
    listeners = [];
    workers = 2;
    queue_capacity = 64;
    background_capacity = 512;
    max_conns = 1024;
    max_line = 1 lsl 20;
    read_deadline = 30.;
    write_deadline = 30.;
    tick = 0.25;
  }

type ctx = {
  peer : string;  (** printable peer address, for logs and telemetry *)
  background : (unit -> unit) -> bool;
      (** submit a low-priority job to the worker pool; [false] when the
          background queue is full or the server is stopping *)
}

type conn = {
  fd : Unix.file_descr;
  peer : string;
  buf : Buffer.t;  (* bytes read but not yet split into lines *)
  mutable pending : string list;  (* complete lines awaiting dispatch *)
  mutable busy : bool;  (* a worker owns this connection *)
  mutable last_activity : float;
}

type t = {
  cfg : config;
  tel : Tel.t;
  handler : ctx -> string -> string;
  busy_line : string;
  too_long_line : string;
  listen_fds : (Unix.file_descr * Endpoint.t) list;
  bound : Endpoint.t list;
  stop_flag : bool Atomic.t;
  (* worker side *)
  qlock : Mutex.t;
  qcond : Condition.t;
  requests : (conn * string) Queue.t;
  background : (unit -> unit) Queue.t;
  mutable bg_active : int;
  (* dispatcher notifications: worker -> dispatcher *)
  dlock : Mutex.t;
  completed : (conn * bool) Queue.t;  (* (conn, keep_open) *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
}

let bind_listener ep =
  match ep with
  | Endpoint.Unix_sock path ->
      (try if Sys.file_exists path then Sys.remove path
       with Sys_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 128;
      (fd, ep)
  | Endpoint.Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Endpoint.resolve host, port));
      Unix.listen fd 128;
      let bound_port =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port
      in
      (fd, Endpoint.Tcp (host, bound_port))

(* Binding happens at [create] so the resolved addresses (in particular
   an ephemeral TCP port requested as 0) are known before [run]. *)
let create ?(tel = Tel.null) ~config ~busy_line ~too_long_line handler =
  if config.listeners = [] then invalid_arg "Server.create: no listeners";
  let listen_fds = List.map bind_listener config.listeners in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    cfg = { config with workers = max 1 config.workers };
    tel;
    handler;
    busy_line;
    too_long_line;
    listen_fds;
    bound = List.map snd listen_fds;
    stop_flag = Atomic.make false;
    qlock = Mutex.create ();
    qcond = Condition.create ();
    requests = Queue.create ();
    background = Queue.create ();
    bg_active = 0;
    dlock = Mutex.create ();
    completed = Queue.create ();
    wake_r;
    wake_w;
  }

let addresses t = t.bound

let wake t =
  match Unix.write_substring t.wake_w "x" 0 1 with
  | _ -> ()
  | exception Unix.Unix_error _ -> ()  (* pipe full: a wake is pending *)

(* Async-signal-safe (an atomic store and a pipe write, no locks):
   callers may invoke it from a SIGINT/SIGTERM handler.  Workers parked
   on the queue condition are woken by the drain sequence in [run], not
   here — the dispatcher notices the flag within one [tick] anyway. *)
let stop t =
  Atomic.set t.stop_flag true;
  wake t

let submit_background t job =
  Mutex.protect t.qlock (fun () ->
      if
        Atomic.get t.stop_flag
        || Queue.length t.background >= t.cfg.background_capacity
      then false
      else begin
        Queue.push job t.background;
        Condition.signal t.qcond;
        true
      end)

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)
(* ------------------------------------------------------------------ *)

let notify_done t conn ~keep =
  Mutex.protect t.dlock (fun () -> Queue.push (conn, keep) t.completed);
  wake t

let serve_request t conn line =
  let ctx = { peer = conn.peer; background = submit_background t } in
  let resp =
    try t.handler ctx line
    with e ->
      (* The handler contract is to never raise; if it does anyway the
         connection survives with an opaque error line. *)
      Printf.sprintf "{\"ok\":false,\"error\":\"internal error: %s\"}"
        (String.escaped (Printexc.to_string e))
  in
  let deadline = Unix.gettimeofday () +. t.cfg.write_deadline in
  match Lineio.write_line ~deadline conn.fd resp with
  | Ok () -> notify_done t conn ~keep:true
  | Error _ ->
      Tel.incr t.tel "net.write_errors";
      notify_done t conn ~keep:false

type job = Request of conn * string | Background of (unit -> unit) | Exit

let worker_loop t () =
  let bg_cap = max 1 (t.cfg.workers - 1) in
  let rec take () =
    if not (Queue.is_empty t.requests) then
      let conn, line = Queue.pop t.requests in
      Request (conn, line)
    else if Atomic.get t.stop_flag then Exit
    else if (not (Queue.is_empty t.background)) && t.bg_active < bg_cap
    then begin
      t.bg_active <- t.bg_active + 1;
      Background (Queue.pop t.background)
    end
    else begin
      Condition.wait t.qcond t.qlock;
      take ()
    end
  in
  let rec loop () =
    Mutex.lock t.qlock;
    let job = take () in
    Mutex.unlock t.qlock;
    match job with
    | Exit -> ()
    | Request (conn, line) ->
        serve_request t conn line;
        loop ()
    | Background job ->
        (try job () with _ -> Tel.incr t.tel "net.background_errors");
        Mutex.protect t.qlock (fun () ->
            t.bg_active <- t.bg_active - 1;
            Condition.signal t.qcond);
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Dispatcher                                                          *)
(* ------------------------------------------------------------------ *)

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let peer_name fd =
  match Unix.getpeername fd with
  | Unix.ADDR_UNIX _ -> "unix"
  | Unix.ADDR_INET (a, p) ->
      Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
  | exception Unix.Unix_error _ -> "?"

(* Best-effort control responses written from the dispatcher (busy,
   line-too-long): bounded well below the workers' write deadline so a
   stuck client cannot stall the accept loop. *)
let control_write t fd line =
  let deadline = Unix.gettimeofday () +. Float.min 1.0 t.cfg.write_deadline in
  ignore (Lineio.write_line ~deadline fd line)

let run t =
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 64 in
  let close_conn c =
    Hashtbl.remove conns c.fd;
    close_fd c.fd;
    Tel.incr t.tel "net.closed"
  in
  (* Dispatch the next pending line of an idle connection into the
     request queue, shedding with the busy line when it is full. *)
  let rec dispatch_next c =
    match c.pending with
    | [] -> ()
    | line :: rest ->
        c.pending <- rest;
        let accepted =
          Mutex.protect t.qlock (fun () ->
              if Queue.length t.requests >= t.cfg.queue_capacity then false
              else begin
                Queue.push (c, line) t.requests;
                Condition.signal t.qcond;
                true
              end)
        in
        if accepted then c.busy <- true
        else begin
          Tel.incr t.tel "net.shed_requests";
          control_write t c.fd t.busy_line;
          (* Keep draining: a pipelined client must get one response
             (here: a busy) per request, not a stalled connection. *)
          dispatch_next c
        end
  in
  let drain_completed () =
    let batch =
      Mutex.protect t.dlock (fun () ->
          let xs = List.of_seq (Queue.to_seq t.completed) in
          Queue.clear t.completed;
          xs)
    in
    List.iter
      (fun (c, keep) ->
        c.busy <- false;
        c.last_activity <- Unix.gettimeofday ();
        if keep && Hashtbl.mem conns c.fd then dispatch_next c
        else if Hashtbl.mem conns c.fd then close_conn c)
      batch
  in
  let drain_wake_pipe () =
    let b = Bytes.create 64 in
    let rec go () =
      match Unix.read t.wake_r b 0 64 with
      | n when n > 0 -> go ()
      | _ -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        ->
          ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    go ()
  in
  let accept_one lfd =
    match Unix.accept lfd with
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()
    | fd, _ ->
        if Hashtbl.length conns >= t.cfg.max_conns then begin
          Tel.incr t.tel "net.shed_conns";
          control_write t fd t.busy_line;
          close_fd fd
        end
        else begin
          Unix.set_nonblock fd;
          (match Unix.getpeername fd with
          | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.TCP_NODELAY true
          | _ | (exception Unix.Unix_error _) -> ());
          Tel.incr t.tel "net.accepted";
          Hashtbl.replace conns fd
            {
              fd;
              peer = peer_name fd;
              buf = Buffer.create 256;
              pending = [];
              busy = false;
              last_activity = Unix.gettimeofday ();
            }
        end
  in
  let read_conn c =
    let chunk = Bytes.create 4096 in
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 ->
        (* EOF.  A complete pending line still gets served (the client
           may have half-closed after its last request); a dangling
           partial line cannot complete, so the connection ends. *)
        if c.pending = [] then close_conn c
        else begin
          Buffer.clear c.buf;
          dispatch_next c
        end
    | n ->
        c.last_activity <- Unix.gettimeofday ();
        Buffer.add_subbytes c.buf chunk 0 n;
        (* The cap applies to complete lines as well as to a growing
           partial one — a huge request that happens to arrive whole in
           one segment must not bypass it. *)
        let over_cap = ref false in
        let rec split () =
          match Lineio.take_line c.buf with
          | Some line when String.length line > t.cfg.max_line ->
              over_cap := true
          | Some line ->
              if String.trim line <> "" then
                c.pending <- c.pending @ [ line ];
              split ()
          | None -> ()
        in
        split ();
        if !over_cap || Buffer.length c.buf > t.cfg.max_line then begin
          Tel.incr t.tel "net.line_too_long";
          control_write t c.fd t.too_long_line;
          close_conn c
        end
        else if not c.busy then dispatch_next c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn c
  in
  let sweep () =
    let now = Unix.gettimeofday () in
    let victims =
      Hashtbl.fold
        (fun _ c acc ->
          if
            (not c.busy)
            && Buffer.length c.buf > 0
            && now -. c.last_activity > t.cfg.read_deadline
          then c :: acc
          else acc)
        conns []
    in
    List.iter
      (fun c ->
        Tel.incr t.tel "net.read_timeouts";
        close_conn c)
      victims
  in
  let pool =
    Array.init t.cfg.workers (fun _ -> Domain.spawn (worker_loop t))
  in
  Tel.event t.tel "net.start"
    [
      ( "listeners",
        Tel.Str (String.concat "," (List.map Endpoint.to_string t.bound)) );
      ("workers", Tel.Int t.cfg.workers);
      ("queue_capacity", Tel.Int t.cfg.queue_capacity);
      ("max_conns", Tel.Int t.cfg.max_conns);
    ];
  while not (Atomic.get t.stop_flag) do
    let idle =
      Hashtbl.fold (fun fd c acc -> if c.busy then acc else fd :: acc)
        conns []
    in
    let watch = (t.wake_r :: List.map fst t.listen_fds) @ idle in
    (match Unix.select watch [] [] t.cfg.tick with
    | ready, _, _ ->
        if List.mem t.wake_r ready then drain_wake_pipe ();
        drain_completed ();
        List.iter
          (fun (lfd, _) -> if List.mem lfd ready then accept_one lfd)
          t.listen_fds;
        List.iter
          (fun fd ->
            if fd <> t.wake_r && not (List.mem_assoc fd t.listen_fds) then
              match Hashtbl.find_opt conns fd with
              | Some c when not c.busy -> read_conn c
              | _ -> ())
          ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    sweep ()
  done;
  (* Graceful drain: stop accepting, finish queued and in-flight
     requests (bounded by the write deadline per response plus a hard
     grace period), discard background work, then join the pool. *)
  List.iter
    (fun (fd, ep) ->
      close_fd fd;
      match ep with
      | Endpoint.Unix_sock path -> (
          try Sys.remove path with Sys_error _ -> ())
      | Endpoint.Tcp _ -> ())
    t.listen_fds;
  Mutex.protect t.qlock (fun () -> Queue.clear t.background);
  let grace = Unix.gettimeofday () +. Float.max 5. t.cfg.write_deadline in
  let in_flight () =
    Mutex.protect t.qlock (fun () -> not (Queue.is_empty t.requests))
    || Hashtbl.fold (fun _ c acc -> acc || c.busy) conns false
  in
  while in_flight () && Unix.gettimeofday () < grace do
    (match Unix.select [ t.wake_r ] [] [] 0.05 with
    | [ _ ], _, _ -> drain_wake_pipe ()
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    drain_completed ()
  done;
  Mutex.protect t.qlock (fun () -> Condition.broadcast t.qcond);
  Array.iter Domain.join pool;
  drain_completed ();
  Hashtbl.iter (fun _ c -> close_fd c.fd) conns;
  Hashtbl.reset conns;
  close_fd t.wake_r;
  close_fd t.wake_w;
  Tel.event t.tel "net.stop" []
