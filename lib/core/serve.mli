(** The [stenso serve] protocol ([stenso.serve/1]): request handling and
    the client side.  The daemon itself — listeners, worker pool,
    background refinement executor — lives in {!Net} (built on
    {!Tnet.Server}); this module is the socket-free core it serves.

    The protocol is NDJSON — one JSON object per line in each
    direction, many requests per connection (keep-alive):

    {v
    → {"id": 1, "program": "input A : f32[3,3]\n...", "config": {"cost_estimator": "flops"}}
    ← {"schema":"stenso.serve/1","version":"...","id":1,"ok":true,
       "cache_hit":false,"tier":2,"coalesced":false,"refined":false,
       "improved":true,"verified":true,
       "cost_before":123.0,"cost_after":27.0,
       "optimized":"input A : f32[3,3]\n...","search":{...}}
    v}

    [id] is echoed verbatim (any JSON value; [null] when absent).
    [config] is optional; recognized fields — [cost_estimator] (one of
    ["flops"], ["roofline"], ["measured"]), [timeout] (seconds),
    [node_budget], [max_depth], [rules_depth] (ints), [extended_ops],
    [use_bnb], [use_simplification] (bools) — override the daemon's
    base configuration per request; a mistyped field or an unknown
    estimator name answers [ok:false].  [tier] says which serving tier
    answered (see {!Superopt.optimize}); [coalesced]
    that this request piggybacked on an identical in-flight one;
    [refined] that the answer is final (tier-3-confirmed) — an
    unrefined answer may be silently upgraded in the store by background
    refinement, so a later identical request returns the better program
    without any client action.  A malformed line, an unparseable program
    or any synthesis failure yields [{"ok":false,"error":...}] on that
    request only; the daemon never dies on request content. *)

module Json = Obs.Telemetry.Json

val schema : string
(** ["stenso.serve/1"]. *)

(** {2 Request handling} — socket-free core, reused by tests. *)

type handler

val handler :
  ?tel:Obs.Telemetry.t ->
  ?store:Store.t ->
  base:Config.t ->
  unit ->
  handler
(** A request handler sharing one stub-library cache, one cost model per
    estimator, one single-flight table and one {!Front} table (bounded
    at 64 MiB of keys) across all requests it serves.  [base] supplies
    the defaults requests may override; its [jobs] is forced to 1 — the
    daemon's parallelism is its worker pool, not per-request domains. *)

val handle_line :
  ?background:((unit -> unit) -> bool) -> handler -> string -> string
(** Process one NDJSON request line into one response line (no trailing
    newline).  Never raises: every failure is an [ok:false] response.

    With a [store], a request's store key comes from the handler's
    {e front table} when an earlier request had the same front key:
    the model id, the request's {!Config.fingerprint} and the program's
    canonical text ({!Dsl.Parser.unparse}, exact in its constants).
    These determine the store key, so a repeated request — reformatted
    or not — reaches its store entry without symbolic execution.
    Otherwise the request's spec is keyed once ({!Superopt.key}) and the
    store key is added to the table.  The table lives in memory only:
    nothing goes to disk, and after a restart the first request per
    program keys its spec once again.  It holds store keys, never
    outcomes — every request still reads the store, so background
    refinement and the invalidation of stale entries act on the next
    request — and it evicts its oldest entries once the keys it holds
    would pass its bound.  The key is handed on to
    {!Superopt.optimize}; identical
    in-flight requests (same [store_key]) coalesce onto one synthesis —
    waiters get the leader's outcome with [coalesced:true] and bump the
    [serve.coalesced] counter.  [background], when given, receives
    deferred tier-3 refinement jobs for unrefined answers (at most one
    outstanding per store key; [serve.refine_enqueued] /
    [serve.refine_shed] counters); it returns [false] to reject the job
    (queue full).  Omitting it — as tests exercising only the request
    path do — disables background refinement. *)

(** The handler's front table, from front keys to store keys (exposed
    for tests).  Safe to share across domains. *)
module Front : sig
  type t

  val create : int -> t
  (** An empty table holding at most this many bytes of keys. *)

  val find : t -> string -> string option

  val add : t -> string -> string -> unit
  (** [add t front store_key] holds the pair unless [front] is already
      held, evicting the oldest pairs while the keys held (front plus
      store key bytes) would pass the bound; a pair larger than the
      bound alone is not held. *)

  val bytes : t -> int
  (** Bytes of front and store keys held. *)
end

val busy_line : string
(** The load-shedding response. *)

val too_long_line : string
(** The response sent before closing a connection whose request line
    exceeded the daemon's line cap. *)

val is_busy_line : string -> bool
(** Recognize {!busy_line} (from any build: matched on the [ok]/[error]
    fields, not byte equality). *)

(** {2 Client side} *)

type reply =
  | Reply of string  (** a protocol response line (possibly [ok:false]) *)
  | Busy  (** every endpoint shed the request, retries exhausted *)
  | Transport of string  (** no endpoint produced a response *)

val request :
  ?timeout:float ->
  ?busy_retries:int ->
  ?rng:Random.State.t ->
  ?offset:int ->
  endpoints:Tnet.Endpoint.t list ->
  string ->
  reply
(** Send one request line to a replica set and read one response line.
    Endpoints are tried round-robin from [offset] (so independent
    clients spread load); an endpoint that is not accepting yet is
    retried with geometric backoff within its slice of the [timeout]
    budget (seconds, default 30), and transport failures fail over to
    the next replica.  A busy (shed) response is backpressure, not an
    error: the request is retried up to [busy_retries] (default 3) more
    times with full-jitter exponential backoff, and only then reported
    as {!Busy} so callers can map it to a distinct exit code.
    {!Transport} means no replica produced any response. *)
