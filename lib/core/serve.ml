module Json = Obs.Telemetry.Json
module Tel = Obs.Telemetry

let schema = "stenso.serve/1"

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let base_fields ~id ~ok =
  [
    ("schema", Json.Str schema);
    ("version", Json.Str Version.current);
    ("id", id);
    ("ok", Json.Bool ok);
  ]

let error_json ?(id = Json.Null) msg =
  Json.Obj (base_fields ~id ~ok:false @ [ ("error", Json.Str msg) ])

let busy_line = Json.to_string (error_json "busy")
let too_long_line = Json.to_string (error_json "request line too long")

(* A shed response, from any replica: ok:false with the exact "busy"
   error.  Clients treat it as backpressure (retry with jitter, exit
   code of its own), never as an IO failure. *)
let is_busy_line line =
  match Json.of_string (String.trim line) with
  | Error _ -> false
  | Ok doc -> (
      match
        ( Option.bind (Json.member "ok" doc) Json.to_bool_opt,
          Option.bind (Json.member "error" doc) Json.to_string_opt )
      with
      | Some false, Some "busy" -> true
      | _ -> false)

let outcome_json ~id ~env ~coalesced (o : Superopt.outcome) =
  let s = o.search.stats in
  Json.Obj
    (base_fields ~id ~ok:true
    @ [
        ("cache_hit", Json.Bool (o.tier = 1));
        ("tier", Json.Int o.tier);
        ("coalesced", Json.Bool coalesced);
        ("refined", Json.Bool o.refined);
        ("improved", Json.Bool o.improved);
        ("verified", Json.Bool o.verified);
        ("cost_before", Json.Float o.original_cost);
        ("cost_after", Json.Float o.optimized_cost);
        ("optimized", Json.Str (Dsl.Parser.unparse env o.optimized));
        ( "search",
          Json.Obj
            [
              ("nodes", Json.Int s.nodes);
              ("elapsed", Json.Float s.elapsed);
              ("timed_out", Json.Bool s.timed_out);
              ("library_size", Json.Int s.library_size);
            ] );
      ])

(* Per-request configuration overrides on top of the daemon's base. *)
let config_of_json ~base j =
  let ( let* ) = Result.bind in
  let field name conv apply acc =
    let* cfg = acc in
    match Json.member name j with
    | None -> Ok cfg
    | Some v -> (
        match conv v with
        | Some x -> apply x cfg
        | None -> Error (Printf.sprintf "mistyped config field %S" name))
  in
  let set f x cfg = Ok (f x cfg) in
  Ok base
  |> field "cost_estimator" Json.to_string_opt (fun s cfg ->
         Result.map
           (fun e -> Config.with_estimator e cfg)
           (Config.estimator_of_string s))
  |> field "timeout" Json.to_float_opt (set Config.with_timeout)
  |> field "node_budget" Json.to_int_opt (set Config.with_node_budget)
  |> field "max_depth" Json.to_int_opt (set Config.with_max_depth)
  |> field "extended_ops" Json.to_bool_opt (set Config.with_extended_ops)
  |> field "use_bnb" Json.to_bool_opt (set Config.with_bnb)
  |> field "use_simplification" Json.to_bool_opt
       (set Config.with_simplification)
  |> field "rules_depth" Json.to_int_opt (set Config.with_rules_depth)

type request = { id : Json.t; source : string; config : Config.t }

let parse_request ~base doc =
  let ( let* ) = Result.bind in
  let id = Option.value ~default:Json.Null (Json.member "id" doc) in
  let* source =
    match Option.bind (Json.member "program" doc) Json.to_string_opt with
    | Some s -> Ok s
    | None -> Error (id, "missing or mistyped \"program\" field")
  in
  let* config =
    match Json.member "config" doc with
    | None -> Ok base
    | Some (Json.Obj _ as cfg) ->
        Result.map_error (fun e -> (id, e)) (config_of_json ~base cfg)
    | Some _ -> Error (id, "\"config\" must be an object")
  in
  Ok { id; source; config }

(* ------------------------------------------------------------------ *)
(* Handler                                                             *)
(* ------------------------------------------------------------------ *)

(* The front table: a request's exact front key — model id, config
   fingerprint and canonical program text — to its store key, so a
   repeated request finds its store entry without symbolic execution.
   The front key determines the store key: the text holds the
   environment and the exact constants, the fingerprint every search
   and stub setting, and the model id the cost notion.  Entries are
   added once a miss has built the store key, and the oldest are evicted
   once the keys held would pass [max_bytes]. *)
module Front = struct
  type t = {
    lock : Mutex.t;
    keys : (string, string) Hashtbl.t;
    order : string Queue.t;  (* front keys, oldest first *)
    mutable bytes : int;
    max_bytes : int;
  }

  let create max_bytes =
    {
      lock = Mutex.create ();
      keys = Hashtbl.create 64;
      order = Queue.create ();
      bytes = 0;
      max_bytes;
    }

  let size front store_key = String.length front + String.length store_key

  let find t front =
    Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.keys front)

  let add t front store_key =
    let n = size front store_key in
    if n <= t.max_bytes then
      Mutex.protect t.lock (fun () ->
          if not (Hashtbl.mem t.keys front) then begin
            while t.bytes + n > t.max_bytes do
              let old = Queue.pop t.order in
              t.bytes <- t.bytes - size old (Hashtbl.find t.keys old);
              Hashtbl.remove t.keys old
            done;
            Hashtbl.add t.keys front store_key;
            Queue.push front t.order;
            t.bytes <- t.bytes + n
          end)

  let bytes t = Mutex.protect t.lock (fun () -> t.bytes)
end

let front_bytes = 64 lsl 20

type handler = {
  tel : Tel.t;
  store : Store.t option;
  base : Config.t;
  stub_cache : Stub.Cache.cache;
  (* One model per estimator, shared across requests: the measured
     model's profiling table (and its internal lock) amortize over the
     daemon's lifetime instead of re-profiling per request. *)
  models : (string, Cost.Model.t) Hashtbl.t;
  models_lock : Mutex.t;
  (* Identical in-flight requests (same store key) coalesce onto one
     synthesis; waiters all receive the leader's outcome. *)
  flight : Superopt.outcome Tnet.Single_flight.t;
  (* Store keys with a background refinement queued or running, so one
     hot spec enqueues one refinement, not one per request. *)
  refining : (string, unit) Hashtbl.t;
  refine_lock : Mutex.t;
  front : Front.t;
}

let handler ?(tel = Tel.null) ?store ~base () =
  {
    tel;
    store;
    (* The worker pool is the daemon's parallelism; per-request domain
       fan-out on top of it would oversubscribe the machine. *)
    base = Config.with_jobs 1 base;
    stub_cache = Stub.Cache.create ();
    models = Hashtbl.create 4;
    models_lock = Mutex.create ();
    flight = Tnet.Single_flight.create ();
    refining = Hashtbl.create 16;
    refine_lock = Mutex.create ();
    front = Front.create front_bytes;
  }

let model_for h config =
  let name = Config.estimator_name (Config.estimator config) in
  Mutex.protect h.models_lock (fun () ->
      match Hashtbl.find_opt h.models name with
      | Some m -> m
      | None ->
          let m = Config.model ~tel:h.tel config in
          Hashtbl.add h.models name m;
          m)

(* Queue a tier-3 refinement for an unrefined answer on the caller's
   background executor.  At most one refinement per store key is ever
   outstanding; a full background queue just drops the attempt (a later
   request for the same spec will retry).  The job executes the program
   itself, so an unrefined hit costs no symbolic execution. *)
let maybe_refine h ~background ~(key : Superopt.key) ~config ~model ~env prog
    =
  match (h.store, background) with
  | Some store, Some submit ->
      let claimed =
        Mutex.protect h.refine_lock (fun () ->
            if Hashtbl.mem h.refining key.store_key then false
            else begin
              Hashtbl.add h.refining key.store_key ();
              true
            end)
      in
      if claimed then begin
        let release () =
          Mutex.protect h.refine_lock (fun () ->
              Hashtbl.remove h.refining key.store_key)
        in
        let job () =
          Fun.protect ~finally:release (fun () ->
              ignore
                (Superopt.refine ~tel:h.tel ~config ~store
                   ~stub_cache:h.stub_cache ~model ~key ~env prog))
        in
        if submit job then Tel.incr h.tel "serve.refine_enqueued"
        else begin
          release ();
          Tel.incr h.tel "serve.refine_shed"
        end
      end
  | _ -> ()

let handle_doc ?background h doc =
  match parse_request ~base:h.base doc with
  | Error (id, msg) -> error_json ~id msg
  | Ok { id; source; config } -> (
      match
        let env, prog = Dsl.Parser.program source in
        ignore (Dsl.Types.infer env prog);
        let model = model_for h config in
        match h.store with
        | None ->
            let outcome =
              Superopt.optimize ~tel:h.tel ~config
                ~stub_cache:h.stub_cache ~model ~env prog
            in
            outcome_json ~id ~env ~coalesced:false outcome
        | Some store ->
            let front =
              String.concat "\x00"
                [
                  model.Cost.Model.name;
                  Config.fingerprint config;
                  Dsl.Parser.unparse env prog;
                ]
            in
            let spec, key =
              match Front.find h.front front with
              | Some store_key ->
                  (None, { Superopt.spec_key = None; store_key })
              | None ->
                  let spec = Dsl.Sexec.exec_env env prog in
                  let key = Superopt.key ~config ~model ~env ~spec prog in
                  Front.add h.front front key.store_key;
                  (Some spec, key)
            in
            let outcome, coalesced =
              Tnet.Single_flight.run h.flight key.store_key (fun () ->
                  Superopt.optimize ~tel:h.tel ~config ~store
                    ~stub_cache:h.stub_cache ~model ?spec ~key ~env prog)
            in
            if coalesced then Tel.incr h.tel "serve.coalesced";
            if not outcome.refined then
              maybe_refine h ~background ~key ~config ~model ~env prog;
            outcome_json ~id ~env ~coalesced outcome
      with
      | resp -> resp
      | exception Dsl.Parser.Parse_error msg ->
          error_json ~id ("parse error: " ^ msg)
      | exception Dsl.Types.Type_error msg ->
          error_json ~id ("type error: " ^ msg)
      | exception e ->
          (* The daemon must survive any request: report, don't die. *)
          error_json ~id ("internal error: " ^ Printexc.to_string e))

let handle_line ?background h line =
  Tel.incr h.tel "serve.requests";
  let resp =
    match Json.of_string (String.trim line) with
    | Error msg -> error_json ("invalid JSON: " ^ msg)
    | Ok doc -> handle_doc ?background h doc
  in
  Json.to_string resp

(* ------------------------------------------------------------------ *)
(* Client                                                              *)
(* ------------------------------------------------------------------ *)

type reply =
  | Reply of string  (** a protocol response line (possibly [ok:false]) *)
  | Busy  (** every endpoint shed the request, retries exhausted *)
  | Transport of string  (** no endpoint produced a response *)

(* Connect with retry: a daemon that is still binding its socket (or
   briefly saturated) makes [connect] fail with ENOENT / ECONNREFUSED /
   EAGAIN; back off geometrically and retry until [deadline].  Other
   errors (permissions, not a socket) fail immediately. *)
let connect_with_retry ~deadline ep =
  let rec go delay =
    match Tnet.Endpoint.connect ep with
    | Ok fd -> Ok fd
    | Error
        (Unix.Unix_error
           ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _) as e) ->
        let now = Unix.gettimeofday () in
        if now >= deadline then Error e
        else begin
          Unix.sleepf (Float.min delay (deadline -. now));
          go (Float.min (delay *. 2.) 1.)
        end
    | Error e -> Error e
  in
  go 0.05

let exn_message = function
  | Unix.Unix_error (e, _, _) -> Unix.error_message e
  | Not_found -> "host not found"
  | e -> Printexc.to_string e

(* One exchange against one endpoint. *)
let try_endpoint ~deadline ep line =
  match connect_with_retry ~deadline ep with
  | Error e ->
      Error
        (Printf.sprintf "cannot connect to %s: %s"
           (Tnet.Endpoint.to_string ep)
           (exn_message e))
  | Ok fd ->
      Fun.protect
        ~finally:(fun () ->
          try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let buf = Buffer.create 256 in
          Tnet.Lineio.exchange ~deadline ~buf fd line)

(* Send one request to a replica set: endpoints are tried round-robin
   (starting from a caller-chosen offset so independent clients spread
   load), transport failures fail over to the next replica, and busy
   responses are retried with jittered exponential backoff — a shed
   request is backpressure, not an error, until [busy_retries] rounds
   have all been shed. *)
let request ?(timeout = 30.) ?(busy_retries = 3) ?(rng = Random.State.make_self_init ())
    ?(offset = 0) ~endpoints line =
  match endpoints with
  | [] -> Transport "no endpoints"
  | _ -> (
      let eps = Array.of_list endpoints in
      let n = Array.length eps in
      let deadline = Unix.gettimeofday () +. Float.max 0.05 timeout in
      let round start =
        (* One sweep across the replicas: the first protocol response
           wins; remember whether everything that answered said busy. *)
        let rec go i last_err =
          if i >= n then `No_reply last_err
          else
            let ep = eps.((start + i) mod n) in
            (* Within a sweep each endpoint gets a slice of the budget,
               so one dead replica cannot eat the whole deadline. *)
            let slice =
              Unix.gettimeofday ()
              +. Float.max 0.05
                   ((deadline -. Unix.gettimeofday ())
                   /. float_of_int (n - i))
            in
            let slice = Float.min slice deadline in
            match try_endpoint ~deadline:slice ep line with
            | Ok resp when is_busy_line resp -> `Busy
            | Ok resp -> `Reply resp
            | Error e -> go (i + 1) (Some e)
        in
        go 0 None
      in
      let rec attempt k delay =
        match round (offset + k) with
        | `Reply resp -> Reply resp
        | `No_reply err ->
            if Unix.gettimeofday () < deadline && k < busy_retries then begin
              Unix.sleepf (Float.min delay (deadline -. Unix.gettimeofday ()));
              attempt (k + 1) (Float.min (delay *. 2.) 2.)
            end
            else
              Transport
                (Option.value ~default:"no endpoint reachable" err)
        | `Busy ->
            if k >= busy_retries || Unix.gettimeofday () >= deadline then
              Busy
            else begin
              (* Full jitter: uniformly random in [0, cap] so shed
                 clients do not re-arrive in lockstep. *)
              let cap = Float.min delay (deadline -. Unix.gettimeofday ()) in
              if cap > 0. then Unix.sleepf (Random.State.float rng cap);
              attempt (k + 1) (Float.min (delay *. 2.) 2.)
            end
      in
      attempt 0 0.1)
