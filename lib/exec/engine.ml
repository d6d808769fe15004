(* Engine facade: the switchable execution backends, the options
   record every knob travels through, and the telemetry wiring for
   fusion/arena/parallelism statistics. *)

module Ast = Dsl.Ast
module Types = Dsl.Types
module Tel = Obs.Telemetry
module Options = Opts

type kind = [ `Interp | `Vm ]

let kind_name = function `Interp -> "interp" | `Vm -> "vm"

let kind_of_string = function
  | "interp" -> Some `Interp
  | "vm" -> Some `Vm
  | _ -> None

let all_kinds : kind list = [ `Interp; `Vm ]

type compiled = Plan.t
type stats = Plan.stats = {
  ir_nodes : int;
  steps : int;
  ops_fused : int;
  consts_folded : int;
  buffers_reused : int;
  arena_slots : int;
  arena_bytes : int;
  parallel_strips : int;
}

let stats (p : compiled) = p.Plan.stats
let result_shape (p : compiled) = p.Plan.result_shape
let options (p : compiled) = p.Plan.opts

let compile ?(options = Options.default) ~(env : Types.env) (prog : Ast.t) :
    compiled =
  let p = Plan.compile ~opts:options (Ir.of_ast ~env prog) in
  let tel = Options.telemetry options in
  if Tel.enabled tel then begin
    let s = p.Plan.stats in
    Tel.incr tel "exec.compiles";
    Tel.add tel "exec.ops_fused" s.ops_fused;
    Tel.add tel "exec.buffers_reused" s.buffers_reused;
    Tel.add tel "exec.consts_folded" s.consts_folded;
    Tel.add tel "exec.parallel_strips" s.parallel_strips;
    Tel.gauge tel "exec.arena_bytes" (float_of_int s.arena_bytes);
    Tel.event tel "exec.compile"
      [
        ("ir_nodes", Tel.Int s.ir_nodes);
        ("steps", Tel.Int s.steps);
        ("ops_fused", Tel.Int s.ops_fused);
        ("consts_folded", Tel.Int s.consts_folded);
        ("buffers_reused", Tel.Int s.buffers_reused);
        ("arena_slots", Tel.Int s.arena_slots);
        ("arena_bytes", Tel.Int s.arena_bytes);
        ("parallel_strips", Tel.Int s.parallel_strips);
        ("options", Tel.Str (Options.fingerprint options));
      ]
  end;
  p

let run = Vm.run

let eval ?options (kind : kind) ~(env : Types.env) lookup (prog : Ast.t) =
  match kind with
  | `Interp -> Dsl.Interp.eval lookup prog
  | `Vm -> Vm.run (compile ?options ~env prog) lookup
