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
  mkdir_p (Filename.dirname path);
  let tmp, oc =
    Filename.open_temp_file ~mode:[ Open_binary ]
      ~temp_dir:(Filename.dirname path)
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

(* Append [text], whole lines, to the file at [path] in [O_APPEND]
   writes, so appenders in other processes land whole lines one after
   another.  One write is at most 64 KB ([Unix.single_write]); a lock on
   the file, where the file system has locks, keeps a longer text's
   writes together (handles of one process share it).  A file whose
   last line is torn (its writer died) gets a newline first: only the
   torn line is lost. *)
let append_lines path text =
  mkdir_p (Filename.dirname path);
  let fd =
    Unix.openfile path
      [ Unix.O_RDWR; Unix.O_APPEND; Unix.O_CREAT; Unix.O_CLOEXEC ]
      0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      (try Unix.lockf fd Unix.F_LOCK 0 with Unix.Unix_error _ -> ());
      let size = (Unix.fstat fd).Unix.st_size in
      let torn =
        size > 0
        &&
        let last = Bytes.create 1 in
        ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
        Unix.read fd last 0 1 = 1 && Bytes.get last 0 <> '\n'
      in
      let text = if torn then "\n" ^ text else text in
      ignore (Unix.write_substring fd text 0 (String.length text)))

let digest key = Digest.to_hex (Digest.string key)
let digest_len = 32

type mem_entry = {
  key : string;
  schema : string;
  payload : Json.t;
  mutable tick : int;
}

type t = {
  root : string;
  mem_capacity : int;
  lock : Mutex.t; (* guards the fields below and each operation's disk access *)
  mem : (string, mem_entry) Hashtbl.t;
      (* key -> entry: a resident hit hashes the key, never digests it *)
  mutable clock : int;
  mutable persist : bool; (* cleared after the first write failure *)
  records : (string, int * int) Hashtbl.t;
      (* the outcome log's index: digest -> (offset, length) of the
         envelope of the key's latest record, unless a tombstone
         followed it *)
  mutable scanned : int; (* log bytes indexed: whole lines only *)
  mutable log_id : int * int; (* the indexed log's (device, inode) *)
  chunk : Bytes.t; (* the scan's read buffer *)
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
    records = Hashtbl.create 64;
    scanned = 0;
    log_id = (0, 0);
    chunk = Bytes.create 65536;
    c_mem_hits = Tel.counter tel "store.mem_hits";
    c_disk_hits = Tel.counter tel "store.disk_hits";
    c_misses = Tel.counter tel "store.misses";
    c_evictions = Tel.counter tel "store.evictions";
    c_corrupt = Tel.counter tel "store.corrupt";
    c_writes = Tel.counter tel "store.writes";
  }

let dir t = t.root
let log_path t = Filename.concat t.root "outcomes.log"

(* Two-level fan-out, git-object style, to keep directories small. *)
let object_path t d ext =
  Filename.concat
    (Filename.concat (Filename.concat t.root "objects") (String.sub d 0 2))
    (d ^ ext)

let entry_path t key = object_path t (digest key) ".json"
let journal_path t key = object_path t (digest key) ".journal"

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

(* Reads go through descriptors, not channels: a channel's 64 KB
   buffer would count against the heap of a program that reads on every
   lookup. *)
let rec really_read fd buf off len =
  if len > 0 then
    match Unix.read fd buf off len with
    | 0 -> raise End_of_file
    | n -> really_read fd buf (off + n) (len - n)

(* [len fd] bytes of the file from byte [pos]. *)
let read_span path pos len =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> None
  | fd -> (
      try
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            let buf = Bytes.create (len fd) in
            ignore (Unix.lseek fd pos Unix.SEEK_SET);
            really_read fd buf 0 (Bytes.length buf);
            Some (Bytes.unsafe_to_string buf))
      with End_of_file | Unix.Unix_error _ | Invalid_argument _ -> None)

let read_file ?(pos = 0) path =
  read_span path pos (fun fd -> (Unix.fstat fd).Unix.st_size - pos)

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

(* The entry: [Json.to_string] of the envelope object, with the
   payload's text appended by [payload] in place. *)
let render_entry buf ~schema ~key payload =
  Buffer.add_string buf "{\"schema\":";
  Json.to_buffer buf (Json.Str schema);
  Buffer.add_string buf ",\"key\":";
  Json.to_buffer buf (Json.Str key);
  Buffer.add_string buf ",\"payload\":";
  payload buf;
  Buffer.add_string buf "}\n"

(* Index the whole lines of [fd], the log, from [t.scanned] up to
   [size], reading it in chunks.  A record line is the key's digest, a
   space and the entry; a tombstone line is the digest alone; any other
   line (an empty one left by the torn-line guard) is skipped, and a
   torn record reads as a record that fails to decode.  A line still
   being appended is left for a later scan. *)
let scan t fd size =
  let chunk = t.chunk in
  let head = Buffer.create (digest_len + 1) (* the line's first bytes *) in
  let rec line_end i n =
    if i = n || Bytes.get chunk i = '\n' then i else line_end (i + 1) n
  in
  (* [chunk] holds bytes [pos, pos + n) of the log; the current line
     starts at [start]. *)
  let rec lines pos n i start =
    let nl = line_end i n in
    Buffer.add_subbytes head chunk i
      (min (nl - i) (digest_len + 1 - Buffer.length head));
    if nl = n then start
    else begin
      let len = pos + nl - start and h = Buffer.contents head in
      if len = digest_len then Hashtbl.remove t.records h
      else if len > digest_len + 1 && h.[digest_len] = ' ' then
        Hashtbl.replace t.records (String.sub h 0 digest_len)
          (start + digest_len + 1, len - digest_len);
      Buffer.clear head;
      lines pos n (nl + 1) (pos + nl + 1)
    end
  in
  let rec chunks pos start =
    match Unix.read fd chunk 0 (min (Bytes.length chunk) (size - pos)) with
    | 0 -> t.scanned <- start
    | n -> chunks (pos + n) (lines pos n 0 start)
  in
  chunks t.scanned t.scanned

(* Caller holds the lock.  Bring the index up to the log on disk.  A log
   that is new (the store directory was deleted and recreated) is
   indexed afresh: one with another inode, one shorter than what was
   indexed, or one with no line end just before [t.scanned] (its inode
   number reused). *)
let refresh t =
  let id, size =
    match Unix.stat (log_path t) with
    | st -> ((st.Unix.st_dev, st.Unix.st_ino), st.Unix.st_size)
    | exception Unix.Unix_error _ -> ((0, 0), 0)
  in
  let reset () =
    Hashtbl.reset t.records;
    t.scanned <- 0
  in
  if id <> t.log_id || size < t.scanned then reset ();
  t.log_id <- id;
  if size > t.scanned then
    match Unix.openfile (log_path t) [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
    | exception Unix.Unix_error _ -> ()
    | fd -> (
        try
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              if
                t.scanned > 0
                && (ignore (Unix.lseek fd (t.scanned - 1) Unix.SEEK_SET);
                    Unix.read fd t.chunk 0 1 < 1 || Bytes.get t.chunk 0 <> '\n')
              then reset ();
              ignore (Unix.lseek fd t.scanned Unix.SEEK_SET);
              scan t fd size)
        with Unix.Unix_error _ -> ())

(* Caller holds the lock.  [true] when [io] ran; an I/O failure (e.g.
   an unwritable directory) disables persistence, so the store degrades
   to a per-process cache rather than failing the caller. *)
let persisted t io =
  t.persist
  &&
  match io () with
  | () -> true
  | exception (Sys_error _ | Unix.Unix_error _) ->
      t.persist <- false;
      false

(* Caller holds the lock and has refreshed the index: append a
   tombstone when the log holds a record of the digest. *)
let bury t d =
  if Hashtbl.mem t.records d then begin
    ignore (persisted t (fun () -> append_lines (log_path t) (d ^ "\n")));
    Hashtbl.remove t.records d
  end

let find t ~schema key =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.mem key with
      | Some e when String.equal e.schema schema ->
          Tel.Counter.incr t.c_mem_hits;
          touch t e;
          Some e.payload
      | Some _ | None -> (
          let d = digest key in
          refresh t;
          let logged = Hashtbl.find_opt t.records d in
          let file = object_path t d ".json" in
          let contents =
            match logged with
            | Some (pos, len) -> read_span (log_path t) pos (fun _ -> len)
            | None -> read_file file
          in
          match Option.map (decode_entry ~schema ~key) contents with
          | Some (Ok payload) ->
              Tel.Counter.incr t.c_disk_hits;
              insert_mem t { key; schema; payload; tick = 0 };
              Some payload
          | None ->
              Tel.Counter.incr t.c_misses;
              None
          | Some (Error _) ->
              Tel.Counter.incr t.c_corrupt;
              if Option.is_some logged then bury t d else remove_file file;
              None))

let add t ~schema key payload =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (digest key);
  Buffer.add_char buf ' ';
  render_entry buf ~schema ~key (fun buf -> Json.to_buffer buf payload);
  Mutex.protect t.lock (fun () ->
      insert_mem t { key; schema; payload; tick = 0 };
      if persisted t (fun () -> append_lines (log_path t) (Buffer.contents buf))
      then Tel.Counter.incr t.c_writes)

(* The new entry supersedes its journal. *)
let write t ~schema key render =
  let path = entry_path t key in
  Mutex.protect t.lock (fun () ->
      Hashtbl.remove t.mem key;
      refresh t;
      bury t (digest key);
      let buf = Buffer.create 256 in
      render_entry buf ~schema ~key render;
      if persisted t (fun () -> write_atomic path (Buffer.contents buf))
      then begin
        Tel.Counter.incr t.c_writes;
        remove_file (journal_path t key)
      end)

let append t key line =
  Mutex.protect t.lock (fun () ->
      if persisted t (fun () -> append_lines (journal_path t key) (line ^ "\n"))
      then Tel.Counter.incr t.c_writes)

let invalidate t key =
  let d = digest key in
  Mutex.protect t.lock (fun () ->
      Hashtbl.remove t.mem key;
      Tel.Counter.incr t.c_corrupt;
      refresh t;
      bury t d;
      remove_file (object_path t d ".json");
      remove_file (object_path t d ".journal"))

let flush _ = ()

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
