(** Observability for the synthesis engine.

    A {e sink} collects three kinds of signals, all timestamped relative
    to the sink's creation:

    - {e counters} and {e accumulators}: named monotone totals (atomic,
      shared freely across domains) — nodes expanded, prune causes,
      cache hits, seconds spent profiling;
    - {e gauges}: timestamped observations of a changing value — the
      branch-and-bound bound trajectory;
    - {e spans}: wall-clock phase timings — stub enumeration, the
      search proper, profiling.

    The disabled sink {!null} is zero-cost on hot paths: {!enabled} is a
    single field read, {!event}/{!gauge} return without allocating, and
    {!counter}/{!acc} hand back free-standing atomics that still count
    (the search's statistics work with telemetry off) but register
    nothing.  Hot loops should guard field-list construction with
    [if Telemetry.enabled t then ...].

    Everything a sink records exports as NDJSON — one JSON object per
    line, chronological events first, then final counter and accumulator
    values — via {!write_ndjson} / {!ndjson_string}. *)

(** Minimal JSON values: emission (always valid JSON; non-finite floats
    become [null]) and a strict parser for validating reports. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string

  val to_buffer : Buffer.t -> t -> unit
  (** Append {!to_string}'s text to a buffer. *)

  val of_string : string -> (t, string) result

  (** {2 Accessors} — [None] on kind mismatch. *)

  val member : string -> t -> t option

  val to_float_opt : t -> float option
  (** [Int] widens to float. *)

  val to_int_opt : t -> int option
  val to_string_opt : t -> string option
  val to_bool_opt : t -> bool option
  val to_list_opt : t -> t list option
end

(** Atomic integer counter, safe to share across domains. *)
module Counter : sig
  type t

  val make : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val get : t -> int
end

(** Atomic float accumulator (CAS loop), for summed durations. *)
module Acc : sig
  type t

  val make : unit -> t
  val add : t -> float -> unit
  val get : t -> float
end

type value = Int of int | Float of float | Str of string | Bool of bool

type event = {
  ts : float;  (** seconds since the sink was created *)
  kind : string;  (** ["event"], ["gauge"], or ["span"] *)
  name : string;
  fields : (string * value) list;
}

type t

val null : t
(** The disabled sink. *)

val create : unit -> t
(** A fresh recording sink; its clock starts now. *)

val enabled : t -> bool

(** {2 Recording} — all no-ops on {!null}. *)

val event : t -> string -> (string * value) list -> unit
val gauge : t -> string -> float -> unit
(** Recorded as an event of kind ["gauge"] with a ["value"] field. *)

val span : t -> string -> (unit -> 'a) -> 'a
(** Time [f]; record an event of kind ["span"] with a ["dur"] field,
    timestamped at the span's start.  When disabled, just runs [f]. *)

val counter : t -> string -> Counter.t
(** The named counter, created on first use.  On {!null}: a fresh,
    unregistered (but functional) counter. *)

val acc : t -> string -> Acc.t
(** The named accumulator; same contract as {!counter}. *)

val add : t -> string -> int -> unit
(** [add t name n] bumps the named counter; no-op when disabled. *)

val incr : t -> string -> unit

(** {2 Reading back} *)

val events : t -> event list
(** Chronological. *)

val counters : t -> (string * int) list
(** Registered counters with their current values, sorted by name. *)

val accs : t -> (string * float) list

val series : t -> string -> (float * float) list
(** [(ts, value)] pairs of the named gauge, chronological. *)

(** {2 Export} *)

val write_ndjson : t -> out_channel -> unit
val ndjson_string : t -> string
