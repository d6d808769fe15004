(* The traced run's span ledger.

   Spans are recorded by the benchmark around its own calls into each
   layer, kept in memory and written out as NDJSON when the run ends.
   Three kinds of span end up here:

   - [call]: a timed call the benchmark made ([record] / [span]);
   - [sink]: a span the program itself reported through the recording
     [Obs.Telemetry] sink handed to that call (its existing
     [phase.*] spans), re-parented under the call;
   - [replay]: the benchmark's own re-execution, after the timed call, of
     a public step that call performs internally but does not report
     (cost estimation, symbolic verification, store writes...), on the
     same inputs.  A replay's duration stands in for that step's share
     of the parent call.

   A layer's self time is its duration minus its children's durations;
   children of one span never overlap, so this equals the interval
   definition. *)

type span = {
  id : int;
  parent : int;  (** 0 = root *)
  req : string;  (** request id: spans of one request share it *)
  name : string;
  kind : string;  (** "call", "sink" or "replay" *)
  start : float;
  dur : float;  (** seconds *)
}

type t = { mutable spans : span list; mutable next : int; enabled : bool }

let create ~enabled = { spans = []; next = 1; enabled }

let record t ?(parent = 0) ?(kind = "call") ~req name ~start ~dur =
  if not t.enabled then 0
  else begin
    let id = t.next in
    t.next <- id + 1;
    t.spans <- { id; parent; req; name; kind; start; dur } :: t.spans;
    id
  end

(* Time [f] as a span; returns its result, duration and span id. *)
let span t ?parent ?kind ~req name f =
  let start = Util.now () in
  let r = f () in
  let dur = Util.now () -. start in
  (r, dur, record t ?parent ?kind ~req name ~start ~dur)

(* Re-parent the phase spans a recording sink collected during a call
   that started at [base] (the sink's clock origin); returns
   [(name, (id, dur))] for each imported span. *)
let import_sink t ~parent ~req ~base sink ~names =
  List.filter_map
    (fun (e : Stenso.Telemetry.event) ->
      match (e.kind, List.assoc_opt e.name names) with
      | "span", Some name ->
          let dur =
            match List.assoc_opt "dur" e.fields with
            | Some (Stenso.Telemetry.Float d) -> d
            | _ -> 0.
          in
          let id =
            record t ~parent ~kind:"sink" ~req name ~start:(base +. e.ts) ~dur
          in
          Some (name, (id, dur))
      | _ -> None)
    (Stenso.Telemetry.events sink)

(* Per-layer (count, total seconds, self seconds), by span name. *)
let layers t =
  let child_sum = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_sum s.parent
          (s.dur +. Option.value ~default:0. (Hashtbl.find_opt child_sum s.parent)))
    t.spans;
  let acc = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = s.dur -. Option.value ~default:0. (Hashtbl.find_opt child_sum s.id) in
      let n, total, selft =
        Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt acc s.name)
      in
      Hashtbl.replace acc s.name (n + 1, total +. s.dur, selft +. self))
    t.spans;
  Hashtbl.fold (fun name v l -> (name, v) :: l) acc []
  |> List.sort (fun (_, (_, _, a)) (_, (_, _, b)) -> Float.compare b a)

let self_ms t name =
  match List.assoc_opt name (layers t) with
  | Some (_, _, s) -> s *. 1000.
  | None -> 0.

let total_ms t name =
  match List.assoc_opt name (layers t) with
  | Some (_, d, _) -> d *. 1000.
  | None -> 0.

let print_layers t =
  Printf.printf "per-layer self time (traced run)\n";
  Printf.printf "  %-22s %8s %12s %12s\n" "layer" "spans" "total ms" "self ms";
  List.iter
    (fun (name, (n, total, self)) ->
      Printf.printf "  %-22s %8d %12.3f %12.3f\n" name n (total *. 1000.)
        (self *. 1000.))
    (layers t)

let write_ndjson t path =
  let module J = Stenso.Telemetry.Json in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc
            (J.to_string
               (J.Obj
                  [
                    ("id", J.Int s.id);
                    ("parent", J.Int s.parent);
                    ("req", J.Str s.req);
                    ("name", J.Str s.name);
                    ("kind", J.Str s.kind);
                    ("start", J.Float s.start);
                    ("dur", J.Float s.dur);
                  ]));
          output_char oc '\n')
        (List.rev t.spans))
