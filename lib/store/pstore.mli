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

    {!add} is write-behind: it returns once the entry is resident and
    queued, and one writer domain per process lands queued entries on
    disk in the background.  Within the process a queued entry is
    already visible: {!find}, from any handle, consults the queue before
    the disk.  Other processes see it once it lands.  A crash loses only
    the entries still queued; {!flush}, and an [at_exit] hook, drain
    the queue.  {!write} and {!append} are synchronous.

    All operations are safe under concurrent use from multiple domains
    of one process and from multiple processes (entry files are written
    through {!write_atomic}, so a reader sees either the old complete
    entry or the new complete entry).  Each operation runs under its
    handle's mutex, disk access included, except the writer's: it takes
    no handle's mutex, so a queued entry's rendering and write never
    stall a lookup.

    The writer domain is spawned by the first queued write, never by
    {!open_store}.  On OCaml 5.1 [Unix.fork] fails in a process that
    has ever spawned a domain: a program that forks must do so before
    its first {!add}. *)

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

val journal_path : t -> string -> string
(** Where the entry's journal lives: lines appended to the entry since
    it was last written ({!append}), in a file beside the entry's.
    {!write} and {!invalidate} delete it. *)

val append : t -> string -> string -> unit
(** [append t key line] adds [line] (which must hold no newline) and a
    newline to the entry's journal in a single [O_APPEND] write, so
    concurrent appenders from any process each land a whole line.  When
    the journal's last line is torn (its writer died mid-write), a
    newline is written first, so the next line is not lost with it.
    An I/O failure disables persistence for the handle, as for
    {!add}. *)

val find : t -> schema:string -> string -> Json.t option
(** The payload stored under this key, from the LRU front if resident,
    else from the process's write queue if an {!add} of it (through any
    handle) has not landed yet, else from disk.  A disk entry that fails to parse, whose recorded
    schema differs from [schema], or whose recorded key differs from the
    probe (a digest collision) is deleted and counted as corrupt;
    [find] then returns [None]. *)

val add : t -> schema:string -> string -> Json.t -> unit
(** Make a payload resident under a key in the LRU front and queue its
    entry file for the writer, which renders it (the payload tree is not
    copied: the caller must not mutate it).  The entry is durable once
    it lands, at the latest when {!flush} returns; a queued write of the
    same key is superseded.  When {!queue_capacity} writes are already
    queued, [add] writes the entry itself before returning; nothing is
    dropped.  A write queued while the store directory existed does
    not recreate it if it is deleted before the write lands (a
    finished run's scratch store); one queued after the deletion does
    (a cache cleared under a running daemon).  An I/O failure
    (e.g. unwritable directory) disables persistence for the handle but
    keeps the in-memory entry — the store degrades to a per-process
    cache rather than failing the caller. *)

val queue_capacity : int
(** How many writes the process's queue holds before {!add} writes
    synchronously. *)

val write : t -> schema:string -> string -> (Buffer.t -> unit) -> unit
(** Persist the payload that the function appends to the buffer as JSON
    text, like {!add} but without a payload tree and without making the
    entry resident (a resident copy of the key is dropped).  For layers
    that keep their own decoded copy of a large entry and read its file
    themselves: the tree, and its copy in the LRU front, would cost
    many times the bytes written.  Synchronous: the entry is durable
    when [write] returns, and a queued {!add} of the key is cancelled
    first.  The new entry supersedes the key's journal, which is deleted
    once the entry is written. *)

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
(** Drop an entry and its journal from memory and disk, counting it as
    corrupt.  A queued write of the key is cancelled, and one the writer
    has in flight is waited out before the file is deleted, so the entry
    does not reappear on disk.  Used by higher layers whose decoding of
    the payload failed even though the envelope parsed. *)

val flush : t -> unit
(** Block until the process's write queue is empty and nothing is in
    flight, so that every {!add} made before, through any handle, is
    durable.  Never raises.  An [at_exit] hook does the same, so a
    program that exits normally persists its entries without calling
    it; [Unix._exit] skips that hook. *)

val set_writer_hook : (unit -> unit) -> unit
(** For tests: the function runs in the writer domain before each
    queued write lands, with that write in flight.  [ignore] (the
    default) restores normal operation. *)

type counts = {
  mem_hits : int;
  disk_hits : int;
  misses : int;
  evictions : int;  (** memory-front evictions, not disk deletions *)
  corrupt : int;
  writes : int;
}

val stats : t -> counts
