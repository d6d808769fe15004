(* Engine facade: compile and run through the VM, the options record
   its settings travel through, and the telemetry wiring for
   fusion/arena/parallelism statistics. *)

module Ast = Dsl.Ast
module Types = Dsl.Types
module Tel = Obs.Telemetry
module Options = Opts

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
