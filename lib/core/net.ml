(* Stenso.Net: the serving stack.

   [Tnet] supplies the transport-level pieces — endpoints, deadline
   line IO, the multiplexing server, single-flight coalescing, the load
   generator — re-exported here so users address them as [Stenso.Net.*]
   (the same re-export pattern as {!Exec} over [Texec] and {!Telemetry}
   over [Obs]).  On top of them, [serve] assembles the stenso daemon: a
   {!Serve.handler} behind a {!Server} on any mix of Unix-socket and
   TCP listeners, with spare worker capacity running background tier-3
   refinement. *)

include Tnet
module Tel = Obs.Telemetry

(* Run the daemon until SIGINT/SIGTERM.  [listeners] may mix Unix
   sockets and TCP endpoints; TCP port 0 binds an ephemeral port, and
   [on_bound] receives the resolved addresses before serving starts (so
   callers can print the real port for clients to use).  [background]
   turns the refinement executor off entirely — every other aspect of
   serving is unchanged.  Shutdown is graceful: listeners close first,
   queued and in-flight requests finish, pending background jobs are
   discarded, socket files are removed. *)
let serve ?(tel = Tel.null) ?store ?(workers = 2) ?(queue_capacity = 64)
    ?(max_conns = 1024) ?(max_line = 1 lsl 20) ?(read_deadline = 30.)
    ?(write_deadline = 30.) ?(background = true) ?on_bound ~base ~listeners
    () =
  let h = Serve.handler ~tel ?store ~base () in
  let config =
    {
      Server.default_config with
      listeners;
      workers = max 1 workers;
      queue_capacity = max 1 queue_capacity;
      max_conns = max 1 max_conns;
      max_line;
      read_deadline;
      write_deadline;
    }
  in
  let server =
    Server.create ~tel ~config ~busy_line:Serve.busy_line
      ~too_long_line:Serve.too_long_line (fun (ctx : Server.ctx) line ->
        Serve.handle_line
          ?background:(if background then Some ctx.background else None)
          h line)
  in
  Option.iter (fun f -> f (Server.addresses server)) on_bound;
  (* A client that disconnects mid-response must not kill the daemon. *)
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  (* [Server.stop] is async-signal-safe: an atomic flag plus a pipe
     write, no locks. *)
  let request_stop _ = Server.stop server in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle request_stop) in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle request_stop) in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigint prev_int;
      Sys.set_signal Sys.sigterm prev_term;
      Sys.set_signal Sys.sigpipe prev_pipe)
    (fun () -> Server.run server)
