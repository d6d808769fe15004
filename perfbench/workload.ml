(* What every workload hands back to [bench.ml], which turns
   it into the end-to-end metrics (the same definitions on every
   workload) and prints the per-layer ledger. *)

type opts = {
  seed : int;
  seconds : float;
  trace : bool;
  state : string;  (** scratch + cross-run state directory in the checkout *)
  cli : string;  (** the built [stenso] binary (serve_warm's daemon) *)
  only : string list option;  (** restrict the item list (smoke mode) *)
}

type t = {
  setup : float;  (** seconds; median of the set-ups made in this run *)
  items : (string * float list) list;
      (** latency samples (seconds) per item: program, request line or
          kernel *)
  samples : float list;  (** every latency sample, for percentiles *)
  completed : int;  (** units of work finished while measuring *)
  busy : float;  (** seconds spent on them (throughput denominator) *)
  cost_ratios : float list;  (** cost_before / cost_after per result *)
  rss_mb : float;  (** peak resident set of the process doing the work *)
  attempted : int;
  failed : int;
  layers : (string * float) list;  (** per-layer metrics, traced runs only *)
}

let select opts items ~name =
  match opts.only with
  | None -> items
  | Some names -> List.filter (fun x -> List.mem (name x) names) items

(* Report a failure on standard output; the caller counts it. *)
let fail item reason = Printf.printf "FAIL %s: %s\n%!" item reason

(* The untraced run of a workload leaves its end-to-end total and exact
   results here; the traced run (and the next untraced run) compare
   against them. *)
let state_file opts name = Filename.concat opts.state (name ^ ".last.json")

module Json = Stenso.Telemetry.Json

let load_state opts name =
  match open_in_bin (state_file opts name) with
  | exception Sys_error _ -> None
  | ic ->
      let s =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Result.to_option (Json.of_string s)

let save_state opts name doc =
  Util.mkdir_p opts.state;
  let path = state_file opts name in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc (Json.to_string doc);
  close_out oc;
  Sys.rename tmp path

(* Exact results keyed by item: [(item, [(field, rendering)])].  Prints
   every item whose exact fields differ from [prev] and returns how many
   did.  Differences are named, not counted as failures: a change that
   alters search results legitimately changes them. *)
let compare_exact ~label ~prev cur =
  let diffs =
    List.filter_map
      (fun (item, fields) ->
        match List.assoc_opt item prev with
        | None -> None
        | Some pfields ->
            let changed =
              List.filter
                (fun (f, v) ->
                  match List.assoc_opt f pfields with
                  | Some pv -> pv <> v
                  | None -> false)
                fields
            in
            if changed = [] then None
            else Some (item, List.map fst changed))
      cur
  in
  let compared =
    List.length (List.filter (fun (i, _) -> List.mem_assoc i prev) cur)
  in
  if diffs = [] then
    Printf.printf "determinism (%s): %d/%d items identical\n" label compared
      (List.length cur)
  else
    List.iter
      (fun (item, fields) ->
        Printf.printf "determinism (%s): %s differs in %s\n" label item
          (String.concat ", " fields))
      diffs;
  List.length diffs

let exact_to_json exact =
  Json.Obj
    (List.map
       (fun (item, fields) ->
         (item, Json.Obj (List.map (fun (f, v) -> (f, Json.Str v)) fields)))
       exact)

let exact_of_json j =
  match j with
  | Json.Obj items ->
      List.filter_map
        (fun (item, v) ->
          match v with
          | Json.Obj fields ->
              Some
                ( item,
                  List.filter_map
                    (fun (f, v) -> Option.map (fun s -> (f, s)) (Json.to_string_opt v))
                    fields )
          | _ -> None)
        items
  | _ -> []

(* Persist this untraced run; compare exact results with the previous
   run in the same checkout. *)
let untraced_done opts name ~total exact =
  (match load_state opts name with
  | Some doc -> (
      match Json.member "exact" doc with
      | Some e -> ignore (compare_exact ~label:"vs previous run" ~prev:(exact_of_json e) exact)
      | None -> ())
  | None -> Printf.printf "determinism (vs previous run): no previous run\n");
  save_state opts name
    (Json.Obj [ ("total_s", Json.Float total); ("exact", exact_to_json exact) ])

(* The traced run: compare results with the untraced run and return the
   untraced end-to-end total, for the tracing overhead. *)
let traced_done opts name exact =
  match load_state opts name with
  | None ->
      Printf.printf
        "determinism (traced vs untraced): no untraced run in this checkout\n";
      None
  | Some doc ->
      (match Json.member "exact" doc with
      | Some e ->
          ignore
            (compare_exact ~label:"traced vs untraced" ~prev:(exact_of_json e)
               exact)
      | None -> ());
      Option.bind (Json.member "total_s" doc) Json.to_float_opt

(* The closing line of every traced run: end-to-end time, the part the
   layers account for, the rest, and what tracing itself cost (the
   traced run's end-to-end total minus the untraced run's). *)
let print_ledger_line name ~e2e_ms ~steps_ms ~traced_total ~untraced_total =
  let unaccounted = e2e_ms -. steps_ms in
  let pct x = if e2e_ms > 0. then 100. *. x /. e2e_ms else 0. in
  let overhead = Option.map (fun u -> (traced_total -. u) *. 1000.) untraced_total in
  Printf.printf
    "ledger %s: end-to-end %.3f ms, layers %.3f ms, unaccounted_ms %.3f \
     (%.1f%%), tracing overhead %s\n"
    name e2e_ms steps_ms unaccounted (pct unaccounted)
    (match (overhead, untraced_total) with
    | Some o, Some u -> Printf.sprintf "%.3f ms (%.1f%%)" o (o /. (10. *. u))
    | _ -> "n/a (no untraced run in this checkout)");
  (unaccounted, overhead)
