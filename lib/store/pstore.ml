module Json = Obs.Telemetry.Json
module Tel = Obs.Telemetry

let default_dir () =
  match Sys.getenv_opt "STENSO_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> (
      match Sys.getenv_opt "XDG_CACHE_HOME" with
      | Some d when d <> "" -> Filename.concat d "stenso"
      | _ -> (
          match Sys.getenv_opt "HOME" with
          | Some h when h <> "" ->
              Filename.concat (Filename.concat h ".cache") "stenso"
          | _ -> Filename.concat (Sys.getcwd ()) ".stenso-cache"))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* [write_atomic] into a directory that exists, of what [output] writes
   to the channel. *)
let replace_file path output =
  let tmp, oc =
    Filename.open_temp_file ~mode:[ Open_binary ]
      ~temp_dir:(Filename.dirname path)
      ("." ^ Filename.basename path ^ ".")
      ".tmp"
  in
  match
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output oc);
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let write_atomic path contents =
  mkdir_p (Filename.dirname path);
  replace_file path (fun oc -> output_string oc contents)

let digest key = Digest.to_hex (Digest.string key)

type mem_entry = {
  key : string;
  schema : string;
  payload : Json.t;
  mutable tick : int;
}

type t = {
  root : string;
  mem_capacity : int;
  lock : Mutex.t;
      (* guards [mem] and [clock], and each operation's disk access but
         the writer's *)
  mem : (string, mem_entry) Hashtbl.t;
      (* key -> entry: a resident hit hashes the key, never digests it *)
  mutable clock : int;
  persist : bool Atomic.t; (* cleared after the first write failure *)
  (* counters: both plain (for [stats]) and telemetry-registered *)
  c_mem_hits : Tel.Counter.t;
  c_disk_hits : Tel.Counter.t;
  c_misses : Tel.Counter.t;
  c_evictions : Tel.Counter.t;
  c_corrupt : Tel.Counter.t;
  c_writes : Tel.Counter.t;
}

let open_store ?(tel = Tel.null) ?(mem_capacity = 256) ~dir () =
  {
    root = dir;
    mem_capacity = max 1 mem_capacity;
    lock = Mutex.create ();
    mem = Hashtbl.create 64;
    clock = 0;
    persist = Atomic.make true;
    c_mem_hits = Tel.counter tel "store.mem_hits";
    c_disk_hits = Tel.counter tel "store.disk_hits";
    c_misses = Tel.counter tel "store.misses";
    c_evictions = Tel.counter tel "store.evictions";
    c_corrupt = Tel.counter tel "store.corrupt";
    c_writes = Tel.counter tel "store.writes";
  }

let dir t = t.root

(* Two-level fan-out, git-object style, to keep directories small. *)
let entry_path t key =
  let d = digest key in
  Filename.concat
    (Filename.concat (Filename.concat t.root "objects") (String.sub d 0 2))
    (d ^ ".json")

let journal_path t key =
  Filename.remove_extension (entry_path t key) ^ ".journal"

let touch t e =
  t.clock <- t.clock + 1;
  e.tick <- t.clock

(* Caller holds the lock. *)
let insert_mem t entry =
  (if
     (not (Hashtbl.mem t.mem entry.key))
     && Hashtbl.length t.mem >= t.mem_capacity
   then
     (* Evict the least recently used resident entry (linear scan; the
        front is small by construction). *)
     let victim =
       Hashtbl.fold
         (fun k e acc ->
           match acc with
           | Some (_, tick) when tick <= e.tick -> acc
           | _ -> Some (k, e.tick))
         t.mem None
     in
     match victim with
     | Some (k, _) ->
         Hashtbl.remove t.mem k;
         Tel.Counter.incr t.c_evictions
     | None -> ());
  Hashtbl.replace t.mem entry.key entry;
  touch t entry

let read_file ?(pos = 0) path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match
            seek_in ic pos;
            really_input_string ic (in_channel_length ic - pos)
          with
          | s -> Some s
          | exception (End_of_file | Sys_error _ | Invalid_argument _) -> None)

let remove_file path = try Sys.remove path with Sys_error _ -> ()

(* Decode one disk entry; [Error] means the file is corrupt (truncated,
   unparseable, mislabeled, or a digest collision) and must be evicted. *)
let decode_entry ~schema ~key contents =
  match Json.of_string contents with
  | Error msg -> Error msg
  | Ok doc -> (
      let str name = Option.bind (Json.member name doc) Json.to_string_opt in
      match (str "schema", str "key", Json.member "payload" doc) with
      | Some s, _, _ when not (String.equal s schema) ->
          Error (Printf.sprintf "schema %S, expected %S" s schema)
      | _, Some k, _ when not (String.equal k key) ->
          Error "key mismatch (digest collision)"
      | Some _, Some _, Some payload -> Ok payload
      | _ -> Error "missing schema/key/payload field")

(* The entry file: [Json.to_string] of the envelope object, with the
   payload's text appended by [payload] in place. *)
let render_entry buf ~schema ~key payload =
  Buffer.add_string buf "{\"schema\":";
  Json.to_buffer buf (Json.Str schema);
  Buffer.add_string buf ",\"key\":";
  Json.to_buffer buf (Json.Str key);
  Buffer.add_string buf ",\"payload\":";
  payload buf;
  Buffer.add_string buf "}\n"

(* ------------------------------------------------------------------ *)
(* The outcome writer                                                  *)
(* ------------------------------------------------------------------ *)

(* One [add]'s write.  The writer renders it, so a queued job holds the
   caller's key and payload rather than a copy of the entry's text. *)
type job = {
  store : t;
  path : string;
  jschema : string;
  jkey : string;
  jpayload : Json.t;
  make_root : bool; (* the store directory was missing when queued *)
  mutable cancelled : bool;
}

let queue_capacity = 64

(* Process-wide, all under [q_lock]: the queue, the pending table (entry
   path -> the latest job for it, queued or in flight) and the job in
   flight.  At most one uncancelled job per path is queued, and it is the
   pending one.  Lock order: a handle's lock, then [q_lock]; the writer
   takes no handle's lock. *)
let q_lock = Mutex.create ()
let work = Condition.create () (* a job was queued *)
let idle = Condition.create () (* the writer finished a job *)
let queue : job Queue.t = Queue.create ()
let pending : (string, job) Hashtbl.t = Hashtbl.create 64
let in_flight : job option ref = ref None
let writer_started = ref false
let writer_hook = Atomic.make ignore
let set_writer_hook f = Atomic.set writer_hook f

let flying path =
  match !in_flight with Some j -> String.equal j.path path | None -> false

let in_flight_is j = match !in_flight with Some f -> f == j | None -> false

(* Create [j]'s fan-out directories.  The store directory is created
   only when it was missing as [j] was queued: one deleted after that (a
   finished run's scratch store) stays deleted, and [j] is dropped. *)
exception Root_gone

let prepare_dir j =
  if j.make_root then mkdir_p j.store.root;
  let fan = Filename.dirname j.path in
  List.iter
    (fun d ->
      if not (Sys.file_exists d) then
        try Unix.mkdir d 0o755 with
        | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
        | Unix.Unix_error (Unix.ENOENT, _, _) -> raise Root_gone)
    [ Filename.dirname fan; fan ]

(* Renders into [buf], which the writer reuses from job to job: the
   writer allocates little, and each of its minor collections stops every
   domain. *)
let land_job buf j =
  let t = j.store in
  if Atomic.get t.persist then
    match
      prepare_dir j;
      Buffer.clear buf;
      render_entry buf ~schema:j.jschema ~key:j.jkey (fun buf ->
          Json.to_buffer buf j.jpayload);
      replace_file j.path (fun oc -> Buffer.output_buffer oc buf)
    with
    | () -> Tel.Counter.incr t.c_writes
    | exception Root_gone -> ()
    | exception _ ->
        (* Unwritable cache directory: degrade to memory-only rather
           than failing synthesis.  A directory deleted mid-write only
           drops [j], as [Root_gone] does. *)
        if j.make_root || Sys.file_exists t.root then
          Atomic.set t.persist false

let writer_buf = Buffer.create 4096

let rec writer_loop () =
  let j, live =
    Mutex.protect q_lock (fun () ->
        while Queue.is_empty queue do
          Condition.wait work q_lock
        done;
        let j = Queue.pop queue in
        if not j.cancelled then in_flight := Some j;
        (j, not j.cancelled))
  in
  if live then begin
    (Atomic.get writer_hook) ();
    land_job writer_buf j
  end;
  Mutex.protect q_lock (fun () ->
      in_flight := None;
      (match Hashtbl.find_opt pending j.path with
      | Some p when p == j -> Hashtbl.remove pending j.path
      | _ -> ());
      Condition.broadcast idle);
  writer_loop ()

let drain () =
  Mutex.protect q_lock (fun () ->
      while (not (Queue.is_empty queue)) || Option.is_some !in_flight do
        Condition.wait idle q_lock
      done)

(* Caller holds [q_lock].  The writer domain starts with the first queued
   write, never earlier: once a domain has been spawned, [Unix.fork]
   fails for the rest of the process. *)
let start_writer () =
  !writer_started
  ||
  match Domain.spawn writer_loop with
  | _ ->
      writer_started := true;
      at_exit drain;
      true
  | exception Failure _ -> false

(* Queue [j], superseding a queued job for its path; [false] when the
   queue is full (or no writer can start): the caller writes itself. *)
let enqueue j =
  Mutex.protect q_lock (fun () ->
      Queue.length queue < queue_capacity
      && start_writer ()
      &&
      ((match Hashtbl.find_opt pending j.path with
       | Some old when not (in_flight_is old) -> old.cancelled <- true
       | _ -> ());
       Hashtbl.replace pending j.path j;
       Queue.push j queue;
       Condition.signal work;
       true))

(* The job that will land on [path], if any. *)
let queued path = Mutex.protect q_lock (fun () -> Hashtbl.find_opt pending path)

(* Cancel the queued write of [path] and wait out an in-flight one, so
   that nothing queued lands on [path] after the caller's own write or
   delete. *)
let claim path =
  Mutex.protect q_lock (fun () ->
      (match Hashtbl.find_opt pending path with
      | Some j when not (in_flight_is j) ->
          j.cancelled <- true;
          Hashtbl.remove pending path
      | _ -> ());
      while flying path do
        Condition.wait idle q_lock
      done)

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

let find t ~schema key =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.mem key with
      | Some e when String.equal e.schema schema ->
          Tel.Counter.incr t.c_mem_hits;
          touch t e;
          Some e.payload
      | Some _ | None -> (
          let path = entry_path t key in
          let found =
            match queued path with
            | Some j ->
                Ok
                  (if String.equal j.jschema schema && String.equal j.jkey key
                   then Some j.jpayload
                   else None)
            | None -> (
                match read_file path with
                | None -> Ok None
                | Some contents ->
                    Result.map Option.some (decode_entry ~schema ~key contents))
          in
          match found with
          | Ok (Some payload) ->
              Tel.Counter.incr t.c_disk_hits;
              insert_mem t { key; schema; payload; tick = 0 };
              Some payload
          | Ok None ->
              Tel.Counter.incr t.c_misses;
              None
          | Error _ ->
              Tel.Counter.incr t.c_corrupt;
              remove_file path;
              None))

(* A full queue makes the caller write, under the lock as [write]
   does. *)
let add t ~schema key payload =
  let j =
    {
      store = t;
      path = entry_path t key;
      jschema = schema;
      jkey = key;
      jpayload = payload;
      make_root = not (Sys.file_exists t.root);
      cancelled = false;
    }
  in
  Mutex.protect t.lock (fun () ->
      insert_mem t { key; schema; payload; tick = 0 };
      if Atomic.get t.persist && not (enqueue j) then begin
        claim j.path;
        land_job (Buffer.create 256) j
      end)

(* The new entry supersedes its journal. *)
let write t ~schema key render =
  let path = entry_path t key in
  Mutex.protect t.lock (fun () ->
      Hashtbl.remove t.mem key;
      claim path;
      if Atomic.get t.persist then
        let buf = Buffer.create 256 in
        render_entry buf ~schema ~key render;
        match
          mkdir_p (Filename.dirname path);
          replace_file path (fun oc -> Buffer.output_buffer oc buf)
        with
        | () ->
            Tel.Counter.incr t.c_writes;
            remove_file (journal_path t key)
        | exception (Sys_error _ | Unix.Unix_error _) ->
            Atomic.set t.persist false)

(* One [write] call on an [O_APPEND] descriptor: concurrent appenders,
   in this process or another, land whole lines one after another.  A
   journal whose last line is torn (a crashed writer) gets a newline
   first, so only the torn line is lost. *)
let append t key line =
  Mutex.protect t.lock (fun () ->
      if Atomic.get t.persist then
        let path = journal_path t key in
        match
          mkdir_p (Filename.dirname path);
          let fd =
            Unix.openfile path
              [ Unix.O_RDWR; Unix.O_APPEND; Unix.O_CREAT; Unix.O_CLOEXEC ]
              0o644
          in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              let size = (Unix.fstat fd).Unix.st_size in
              let torn =
                size > 0
                &&
                let last = Bytes.create 1 in
                ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
                Unix.read fd last 0 1 = 1 && Bytes.get last 0 <> '\n'
              in
              let text = (if torn then "\n" else "") ^ line ^ "\n" in
              ignore
                (Unix.single_write_substring fd text 0 (String.length text)))
        with
        | () -> Tel.Counter.incr t.c_writes
        | exception (Sys_error _ | Unix.Unix_error _) ->
            Atomic.set t.persist false)

let invalidate t key =
  let path = entry_path t key in
  Mutex.protect t.lock (fun () ->
      Hashtbl.remove t.mem key;
      Tel.Counter.incr t.c_corrupt;
      claim path;
      remove_file path;
      remove_file (journal_path t key))

let flush _ = drain ()

type counts = {
  mem_hits : int;
  disk_hits : int;
  misses : int;
  evictions : int;
  corrupt : int;
  writes : int;
}

let stats t =
  {
    mem_hits = Tel.Counter.get t.c_mem_hits;
    disk_hits = Tel.Counter.get t.c_disk_hits;
    misses = Tel.Counter.get t.c_misses;
    evictions = Tel.Counter.get t.c_evictions;
    corrupt = Tel.Counter.get t.c_corrupt;
    writes = Tel.Counter.get t.c_writes;
  }
