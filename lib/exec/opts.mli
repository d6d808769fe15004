(** Execution options for the compiled engine (exported as
    [Stenso.Exec.Options]).

    One immutable record carries the VM's settings, built in the same
    [default |> with_*] style as [Stenso.Config].  The planner always
    fuses elementwise chains and reduction producers, and the
    matmul/transpose tile is a constant (64), so the lane count is the
    one setting that changes how a program runs — and never what it
    computes. *)

type t = {
  domains : int;
      (** parallel lanes for long strips and tiled kernels; [1] runs
          everything in the calling domain.  Results are bitwise
          independent of this value. *)
  tel : Obs.Telemetry.t;  (** sink for [exec.*] compile telemetry *)
}

val default : t
(** [domains] = [min 8 (Domain.recommended_domain_count ())], null
    telemetry. *)

val with_domains : int -> t -> t
(** Clamped to the pool's capacity; raises [Invalid_argument] below
    1. *)

val with_telemetry : Obs.Telemetry.t -> t -> t

val domains : t -> int
val telemetry : t -> Obs.Telemetry.t

val fingerprint : t -> string
(** ["fus=true;red=true;tile=64;dom=N"]: the lane count, with the
    planner's constants spelled as literals so that existing measured
    cost caches and archived exec-bench reports stay valid (the
    telemetry sink is excluded).  Keys the measured cost model's
    profiling table and is recorded in exec-bench reports. *)
