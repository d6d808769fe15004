(* Execution options: the VM's settings, in one immutable record built
   with [default |> with_*] — the same builder style as
   [Stenso.Config].  The planner always fuses and the VM's tile is a
   constant, so the only setting is the lane count (plus the telemetry
   sink, which changes no result). *)

type t = { domains : int; tel : Obs.Telemetry.t }

let default =
  { domains = min 8 (Pool.default_domains ()); tel = Obs.Telemetry.null }

let with_domains domains t =
  if domains < 1 then invalid_arg "Exec.Options: domains must be >= 1";
  { t with domains = min domains (Pool.max_workers + 1) }

let with_telemetry tel t = { t with tel }

let domains t = t.domains
let telemetry t = t.tel

(* Excludes the telemetry sink: two options values that plan and
   execute identically fingerprint identically.  [fus=true;red=true;
   tile=64] spell the planner's constants so that measured cost-cache
   keys and archived reports keep their bytes. *)
let fingerprint t =
  Printf.sprintf "fus=true;red=true;tile=64;dom=%d" t.domains
