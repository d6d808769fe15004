(** Persistent content-addressed key/value store.

    The generic layer under [Stenso.Store]: a directory of JSON entry
    files addressed by the digest of their (arbitrary string) key, with
    an in-memory LRU front, atomic write-rename persistence, and
    corruption-tolerant loading — a truncated, unparseable, mislabeled
    or colliding entry is evicted from disk and reported as a miss,
    never an error.

    Entries are schema-tagged: every [add] or [write] stamps the entry
    with the caller's schema identifier and every [find] checks it, so a
    store directory can be shared by several record kinds (and survive
    format evolution) without cross-talk.  Hit/miss/evict/corruption
    counters feed the {!Obs.Telemetry} sink given at {!open_store} and
    are also readable directly via {!stats}.

    All operations are safe under concurrent use from multiple domains
    of one process (a mutex serializes the handle) and from multiple
    processes (writes go through {!write_atomic}, so a reader sees
    either the old complete entry or the new complete entry). *)

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
    until the first {!add} or {!write}.  [mem_capacity] (default 256) bounds the
    in-memory LRU front; entries evicted from memory remain on disk.
    [tel] receives the [store.*] counters. *)

val dir : t -> string

val entry_path : t -> string -> string
(** Where the entry for this key lives (or would live) on disk. *)

val find : t -> schema:string -> string -> Json.t option
(** The payload stored under this key, from the LRU front if resident,
    else from disk.  A disk entry that fails to parse, whose recorded
    schema differs from [schema], or whose recorded key differs from the
    probe (a digest collision) is deleted and counted as corrupt;
    [find] then returns [None]. *)

val add : t -> schema:string -> string -> Json.t -> unit
(** Persist a payload under a key (write-through: the entry is durable
    when [add] returns) and make it resident in the LRU front.  An I/O
    failure (e.g. unwritable directory) disables persistence for the
    handle but keeps the in-memory entry — the store degrades to a
    per-process cache rather than failing the caller. *)

val write : t -> schema:string -> string -> (Buffer.t -> unit) -> unit
(** Persist the payload that the function appends to the buffer as JSON
    text, like {!add} but without a payload tree and without making the
    entry resident (a resident copy of the key is dropped).  For layers
    that keep their own decoded copy of a large entry and read its file
    themselves: the tree, and its copy in the LRU front, would cost
    many times the bytes written. *)

val read_file : string -> string option
(** The whole contents of a file, or [None] when it cannot be read. *)

val decode_entry :
  schema:string -> key:string -> string -> (Json.t, string) result
(** The payload of an entry file's contents, as {!find} decodes it from
    disk; [Error] when the contents do not parse or carry another schema
    or key.  For layers that read entry files themselves; nothing is
    counted, removed or made resident. *)

val invalidate : t -> string -> unit
(** Drop an entry from memory and disk, counting it as corrupt.  Used by
    higher layers whose decoding of the payload failed even though the
    envelope parsed. *)

val flush : t -> unit
(** Ensure everything recorded through this handle is durable.  Writes
    are write-through, so this is only a barrier for the daemon's
    shutdown path; it never raises. *)

val lru_keys : t -> string list
(** Keys resident in the memory front, most recently used first (for
    tests and introspection). *)

type counts = {
  mem_hits : int;
  disk_hits : int;
  misses : int;
  evictions : int;  (** memory-front evictions, not disk deletions *)
  corrupt : int;
  writes : int;
}

val stats : t -> counts
