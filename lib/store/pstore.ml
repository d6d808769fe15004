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

let write_atomic path contents =
  let dir = Filename.dirname path in
  mkdir_p dir;
  let tmp, oc =
    Filename.open_temp_file ~mode:[ Open_binary ] ~temp_dir:dir
      ("." ^ Filename.basename path ^ ".")
      ".tmp"
  in
  match
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc contents);
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

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
  mem : (string, mem_entry) Hashtbl.t;
      (* key -> entry: a resident hit hashes the key, never digests it *)
  mutable clock : int;
  mutable persist : bool; (* cleared after the first write failure *)
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
    persist = true;
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

let find t ~schema key =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.mem key with
      | Some e when String.equal e.schema schema ->
          Tel.Counter.incr t.c_mem_hits;
          touch t e;
          Some e.payload
      | Some _ | None -> (
          let path = entry_path t key in
          match read_file path with
          | None ->
              Tel.Counter.incr t.c_misses;
              None
          | Some contents -> (
              match decode_entry ~schema ~key contents with
              | Ok payload ->
                  Tel.Counter.incr t.c_disk_hits;
                  insert_mem t { key; schema; payload; tick = 0 };
                  Some payload
              | Error _ ->
                  Tel.Counter.incr t.c_corrupt;
                  remove_file path;
                  None)))

(* The entry file: [Json.to_string] of the envelope object, with the
   payload's text appended by [payload] in place. *)
let render_entry ~schema ~key payload =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{\"schema\":";
  Json.to_buffer buf (Json.Str schema);
  Buffer.add_string buf ",\"key\":";
  Json.to_buffer buf (Json.Str key);
  Buffer.add_string buf ",\"payload\":";
  payload buf;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* Caller holds the lock. *)
let persist t ~schema key payload =
  if t.persist then begin
    match
      write_atomic (entry_path t key) (render_entry ~schema ~key payload)
    with
    | () -> Tel.Counter.incr t.c_writes
    | exception (Sys_error _ | Unix.Unix_error _) ->
        (* Unwritable cache directory: degrade to memory-only rather
           than failing synthesis. *)
        t.persist <- false
  end

let add t ~schema key payload =
  Mutex.protect t.lock (fun () ->
      insert_mem t { key; schema; payload; tick = 0 };
      persist t ~schema key (fun buf -> Json.to_buffer buf payload))

(* The new entry supersedes its journal. *)
let write t ~schema key render =
  Mutex.protect t.lock (fun () ->
      Hashtbl.remove t.mem key;
      persist t ~schema key render;
      if t.persist then remove_file (journal_path t key))

(* One [write] call on an [O_APPEND] descriptor: concurrent appenders,
   in this process or another, land whole lines one after another.  A
   journal whose last line is torn (a crashed writer) gets a newline
   first, so only the torn line is lost. *)
let append t key line =
  Mutex.protect t.lock (fun () ->
      if t.persist then
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
        | exception (Sys_error _ | Unix.Unix_error _) -> t.persist <- false)

let invalidate t key =
  Mutex.protect t.lock (fun () ->
      Hashtbl.remove t.mem key;
      Tel.Counter.incr t.c_corrupt;
      remove_file (entry_path t key);
      remove_file (journal_path t key))

let flush t =
  (* Writes are write-through; nothing is buffered in the handle. *)
  ignore t

let lru_keys t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun _ e acc -> e :: acc) t.mem []
      |> List.sort (fun a b -> compare b.tick a.tick)
      |> List.map (fun e -> e.key))

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
