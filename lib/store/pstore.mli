(** Persistent content-addressed key/value store.

    The generic layer under [Stenso.Store]: a directory holding one
    append-only log of entries ({!add}) and JSON entry files ({!write}),
    both addressed by the digest of their (arbitrary string) key, with
    an in-memory LRU front and corruption-tolerant loading — a
    truncated, unparseable, mislabeled or colliding entry is dropped
    from disk and reported as a miss, never an error.

    Entries are schema-tagged: every [add] or [write] stamps the entry
    with the caller's schema identifier and every [find] checks it, so a
    store directory can be shared by several record kinds (and survive
    format evolution) without cross-talk.  Hit/miss/evict/corruption
    counters feed the {!Obs.Telemetry} sink given at {!open_store} and
    are also readable directly via {!stats}.

    The log ({!log_path}) holds one line per {!add}: the key's digest,
    a space and the entry's JSON envelope, the same bytes an entry file
    holds.  A line of the digest alone is a tombstone: it hides the
    key's earlier lines.  Each handle indexes the log in memory and
    reads on from the last line it indexed whenever a lookup misses
    the front, so entries appended by other handles and processes are
    seen.  Every write is synchronous: a record is with the operating
    system when [add] returns, and a crash loses at most a torn last
    line.  The log is never compacted.

    All operations are safe under concurrent use from multiple domains
    of one process (each runs under its handle's mutex, disk access
    included) and from multiple processes (log lines are appended whole,
    and entry files are written through {!write_atomic}, so a reader
    sees either the old complete entry or the new complete entry). *)

module Json = Obs.Telemetry.Json

val default_dir : unit -> string
(** [$STENSO_CACHE_DIR], else [$XDG_CACHE_HOME/stenso], else
    [$HOME/.cache/stenso], else [./.stenso-cache]. *)

val write_atomic : string -> string -> unit
(** [write_atomic path contents] writes [contents] to a fresh temporary
    file in [path]'s directory (created if missing) and renames it over
    [path].  Concurrent writers each land a complete file; readers never
    observe a partial one.  Raises [Sys_error] when the directory cannot
    be created or written. *)

val digest : string -> string
(** Hex digest used to address entries (the content address of the
    key). *)

type t

val open_store :
  ?tel:Obs.Telemetry.t -> ?mem_capacity:int -> dir:string -> unit -> t
(** A handle on the store rooted at [dir].  Nothing is created on disk
    until the first {!add}, {!write} or {!append}.  [mem_capacity]
    (default 256) bounds the in-memory LRU front; entries evicted from
    memory remain on disk.
    [tel] receives the [store.*] counters. *)

val dir : t -> string

val log_path : t -> string
(** The store's outcome log, [outcomes.log] in its directory. *)

val entry_path : t -> string -> string
(** Where the entry file for this key lives (or would live) on disk:
    {!write}'s entries, and {!add}'s from builds that predate the
    log. *)

val journal_path : t -> string -> string
(** Where the entry's journal lives: lines appended to the entry since
    it was last written ({!append}), in a file beside the entry's.
    {!write} and {!invalidate} delete it. *)

val append : t -> string -> string -> unit
(** [append t key line] adds [line] (which must hold no newline) and a
    newline to the entry's journal as {!add} appends to the log: in
    [O_APPEND] writes under a lock on the file, so concurrent appenders
    from any process each land a whole line, and after a newline when
    the last line is torn (its writer died mid-write).  An I/O failure
    disables persistence for the handle, as for {!add}. *)

val find : t -> schema:string -> string -> Json.t option
(** The payload stored under this key, from the LRU front if resident,
    else from the log's latest record of the key, else from its entry
    file.  A record or file that fails to parse, whose recorded schema
    differs from [schema], or whose recorded key differs from the probe
    (a digest collision) is dropped (a record by a tombstone, a file by
    deletion) and counted as corrupt; [find] then returns [None]. *)

val add : t -> schema:string -> string -> Json.t -> unit
(** Make a payload resident under a key in the LRU front and append
    its record to the log, superseding earlier ones.  The log is opened
    for each append (and the store directory created if missing, so a
    directory deleted under a running program is recreated).  An I/O
    failure (e.g. unwritable directory) disables persistence for the
    handle but keeps the in-memory entry — the store degrades to a
    per-process cache rather than failing the caller. *)

val write : t -> schema:string -> string -> (Buffer.t -> unit) -> unit
(** Persist the payload that the function appends to the buffer as JSON
    text, like {!add} but without a payload tree and without making the
    entry resident (a resident copy of the key is dropped).  For layers
    that keep their own decoded copy of a large entry and read its file
    themselves: the tree, and its copy in the LRU front, would cost
    many times the bytes written.  A record of the key in the log is
    buried under a tombstone first.  The new entry supersedes the key's
    journal, which is deleted once the entry is written. *)

val read_file : ?pos:int -> string -> string option
(** The contents of a file from byte [pos] (default 0) to its end, or
    [None] when it cannot be read. *)

val decode_entry :
  schema:string -> key:string -> string -> (Json.t, string) result
(** The payload of an entry file's contents, as {!find} decodes it from
    disk; [Error] when the contents do not parse or carry another schema
    or key.  For layers that read entry files themselves; nothing is
    counted, removed or made resident. *)

val invalidate : t -> string -> unit
(** Drop an entry and its journal from memory and disk (a record in the
    log by a tombstone), counting it as corrupt.  Used by higher layers
    whose decoding of the payload failed even though the envelope
    parsed. *)

val flush : t -> unit
(** Does nothing: every write is synchronous.  Kept for the benchmark
    harness, written against an earlier write-behind store. *)

type counts = {
  mem_hits : int;
  disk_hits : int;
  misses : int;
  evictions : int;  (** memory-front evictions, not disk deletions *)
  corrupt : int;
  writes : int;
}

val stats : t -> counts
