module Json = Obs.Telemetry.Json
module Ast = Dsl.Ast

let schema = "stenso.rules/1"

(* Fixed and key-relevant: the serving tier recomputes a request's
   database key from its environment alone, so the miner and the server
   must agree on the constant terminals by construction, not by
   configuration. *)
let standard_consts = [ 0.; 1.; 2.; 3.; 4.; 5. ]

let mine_config ?(jobs = 1) ~depth () =
  { Stub.default_config with Stub.depth; jobs }

let key ~env ~model_id ~depth =
  Printf.sprintf "stenso.rules|model=%s|%s" model_id
    (Stub.fingerprint (mine_config ~depth ()) ~consts:standard_consts env)

type rule = { rule : Rules.t; gain : float }

(* The entry's optima table, never changed once built and shared by
   every view of one decode, under the cheaper optima its journal
   adds. *)
type optima = {
  table : (string, float * string) Hashtbl.t;
  journal : (string, float * string) Hashtbl.t;
  added : int;  (* digests in [journal] that [table] lacks *)
}

type t = {
  version : string;
  model_id : string;
  depth : int;
  truncated : bool;
      (* the mining enumeration hit its stub cap or deadline: the rule
         set is still sound (each rule was verified within the library),
         but "no better program exists" conclusions must not be drawn *)
  rules : rule list;
  rule_set : Egraph.rule_set;
  optima : optima;
}

let best o digest =
  match Hashtbl.find_opt o.journal digest with
  | Some _ as b -> b
  | None -> Hashtbl.find_opt o.table digest

let optimum t digest = best t.optima digest

let optima_count t = Hashtbl.length t.optima.table + t.optima.added

let optima_sorted t =
  let o = t.optima in
  let bindings tbl skip =
    Hashtbl.fold
      (fun digest b acc -> if skip digest then acc else (digest, b) :: acc)
      tbl
  in
  bindings o.table (Hashtbl.mem o.journal)
    (bindings o.journal (fun _ -> false) [])
  |> List.sort (fun (x, _) (y, _) -> compare x y)

let compile rules = Egraph.compile (List.map (fun r -> r.rule) rules)

let flat ?(truncated = false) ~version ~model_id ~depth ~rules table =
  {
    version;
    model_id;
    depth;
    truncated;
    rules;
    rule_set = compile rules;
    optima = { table; journal = Hashtbl.create 1; added = 0 };
  }

let max_rules = 1024

let spec_digest spec_key = Store.digest spec_key

let rule_id (r : Rules.t) = Ast.to_string r.lhs ^ " ==> " ^ Ast.to_string r.rhs

(* Dedupe by rendered lhs/rhs keeping the best gain, rank by gain. *)
let dedupe_rules rules =
  let best : (string, rule) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun r ->
      let id = rule_id r.rule in
      match Hashtbl.find_opt best id with
      | Some prev when prev.gain >= r.gain -> ()
      | Some _ -> Hashtbl.replace best id r
      | None ->
          Hashtbl.add best id r;
          order := id :: !order)
    rules;
  let all = List.rev_map (fun id -> Hashtbl.find best id) !order in
  let sorted =
    List.stable_sort (fun a b -> compare b.gain a.gain) all
  in
  List.filteri (fun i _ -> i < max_rules) sorted

let entry ?truncated ~model_id ~depth ~rules ~optima () =
  let table = Hashtbl.create (List.length optima) in
  List.iter
    (fun (digest, ((cost, _) as binding)) ->
      match Hashtbl.find_opt table digest with
      | Some (prev, _) when prev <= cost -> ()
      | _ -> Hashtbl.replace table digest binding)
    optima;
  flat ?truncated ~version:Version.current ~model_id ~depth
    ~rules:(dedupe_rules rules) table

let lookup_optimum t digest =
  match optimum t digest with
  | None -> None
  | Some (cost, text) -> (
      match Dsl.Parser.expression text with
      | prog -> Some (cost, prog)
      | exception _ -> None)

(* ------------------------------------------------------------------ *)
(* JSON round-trip                                                     *)
(* ------------------------------------------------------------------ *)

let rule_json r =
  Json.Obj
    [
      ("lhs", Json.Str (Ast.to_string r.rule.Rules.lhs));
      ("rhs", Json.Str (Ast.to_string r.rule.Rules.rhs));
      ( "metavars",
        Json.List
          (List.map
             (fun (orig, mv) -> Json.List [ Json.Str orig; Json.Str mv ])
             r.rule.Rules.metavars) );
      ("gain", Json.Float r.gain);
    ]

(* The entry's JSON text, streamed into [buf]: a tree of thousands of
   optima would cost many times the bytes it renders. *)
let render buf t =
  let field i name =
    if i > 0 then Buffer.add_char buf ',';
    Json.to_buffer buf (Json.Str name);
    Buffer.add_char buf ':'
  in
  let list emit xs =
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        Json.to_buffer buf (emit x))
      xs;
    Buffer.add_char buf ']'
  in
  Buffer.add_char buf '{';
  List.iteri
    (fun i (name, v) ->
      field i name;
      Json.to_buffer buf v)
    [
      ("version", Json.Str t.version);
      ("model", Json.Str t.model_id);
      ("depth", Json.Int t.depth);
      ("truncated", Json.Bool t.truncated);
    ];
  field 4 "rules";
  list rule_json t.rules;
  field 5 "optima";
  list
    (fun (digest, (cost, text)) ->
      Json.List [ Json.Str digest; Json.Float cost; Json.Str text ])
    (optima_sorted t);
  Buffer.add_char buf '}'

let rule_of_json j =
  let str name = Option.bind (Json.member name j) Json.to_string_opt in
  match (str "lhs", str "rhs") with
  | Some lhs_text, Some rhs_text -> (
      match
        (Dsl.Parser.expression lhs_text, Dsl.Parser.expression rhs_text)
      with
      | lhs, rhs ->
          let metavars =
            match Option.bind (Json.member "metavars" j) Json.to_list_opt with
            | None -> []
            | Some pairs ->
                List.filter_map
                  (function
                    | Json.List [ Json.Str orig; Json.Str mv ] ->
                        Some (orig, mv)
                    | _ -> None)
                  pairs
          in
          let gain =
            Option.value ~default:0.
              (Option.bind (Json.member "gain" j) Json.to_float_opt)
          in
          Some { rule = { Rules.lhs; rhs; metavars }; gain }
      | exception _ -> None)
  | _ -> None

let of_json j =
  let ( let* ) = Option.bind in
  let* version = Option.bind (Json.member "version" j) Json.to_string_opt in
  let* model_id = Option.bind (Json.member "model" j) Json.to_string_opt in
  let* depth = Option.bind (Json.member "depth" j) Json.to_int_opt in
  let* rule_docs = Option.bind (Json.member "rules" j) Json.to_list_opt in
  let* optima_docs = Option.bind (Json.member "optima" j) Json.to_list_opt in
  (* Entries written before the flag existed default to [false]: their
     optima predate truncation tracking and are grandfathered in. *)
  let truncated =
    Option.value ~default:false
      (Option.bind (Json.member "truncated" j) Json.to_bool_opt)
  in
  (* Individually malformed lines degrade the entry, not the load. *)
  let rules = List.filter_map rule_of_json rule_docs in
  let table = Hashtbl.create (List.length optima_docs) in
  List.iter
    (function
      | Json.List [ Json.Str digest; cost; Json.Str text ] -> (
          match Json.to_float_opt cost with
          | Some c -> Hashtbl.replace table digest (c, text)
          | None -> ())
      | _ -> ())
    optima_docs;
  Some (flat ~truncated ~version ~model_id ~depth ~rules table)

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)
(* ------------------------------------------------------------------ *)

(* One tier-3 discovery: the optimum, and the generalized rule when the
   entry lacked it. *)
let journal_line ?rule ~spec_digest ~cost ~prog () =
  Json.to_string
    (Json.Obj
       ([
          ("digest", Json.Str spec_digest);
          ("cost", Json.Float cost);
          ("prog", Json.Str prog);
        ]
       @
       match rule with
       | None -> []
       | Some r -> [ ("rule", rule_json r) ]))

(* [fresh] placed in rules sorted by decreasing gain where
   [dedupe_rules (fresh :: rules)] places a rule it lacks: after the
   rules with a higher gain.  Returns the list capped at [max_rules] and
   the rule the cap pushed out, if any. *)
let insert_rule fresh rules =
  let rec go = function
    | r :: rest when compare fresh.gain r.gain < 0 -> r :: go rest
    | rest -> fresh :: rest
  in
  let rules = go rules in
  if List.length rules <= max_rules then (rules, None)
  else
    (List.filteri (fun i _ -> i < max_rules) rules, List.nth_opt rules max_rules)

(* One decode of an entry's bytes, shared by every view of them. *)
type base = {
  digest : Digest.t;
  db : t;  (* the entry alone *)
  ids : (string, unit) Hashtbl.t option Atomic.t;
      (* [rule_id]s of [db.rules], rendered when a journal line first
         brings a rule *)
}

let base_ids b =
  match Atomic.get b.ids with
  | Some ids -> ids
  | None ->
      let ids = Hashtbl.create (List.length b.db.rules) in
      List.iter (fun r -> Hashtbl.replace ids (rule_id r.rule) ()) b.db.rules;
      Atomic.set b.ids (Some ids);
      ids

(* An entry with its journal folded in.  Every table here is built for
   this view and never changed afterwards. *)
type view = {
  base : base;
  db : t;
  lines : int;  (* journal lines folded *)
  consumed : int;  (* journal bytes folded: whole lines only *)
  present : (string, bool) Hashtbl.t;
      (* rule ids the journal added (true) or the cap pushed out (false);
         any other rule is present iff the base has it *)
}

let has_rule v id =
  match Hashtbl.find_opt v.present id with
  | Some p -> p
  | None -> Hashtbl.mem (base_ids v.base) id

let base_view base =
  { base; db = base.db; lines = 0; consumed = 0; present = Hashtbl.create 1 }

(* Fold the whole lines of [text], the journal from [v.consumed] on,
   into a new view.  A line that does not decode (a torn write that a
   later line was appended after) is skipped; a last line without its
   newline is left for a later fold. *)
let fold_journal v text =
  match String.rindex_opt text '\n' with
  | None -> v
  | Some last ->
      let o = v.db.optima in
      let journal = Hashtbl.copy o.journal in
      let present = Hashtbl.copy v.present in
      let added = ref o.added in
      let rules = ref v.db.rules in
      let rules_changed = ref false in
      let v = { v with present } in
      let fold_line line =
        match Json.of_string line with
        | Error _ -> ()
        | Ok j ->
            let str name = Option.bind (Json.member name j) Json.to_string_opt in
            (match
               ( str "digest",
                 Option.bind (Json.member "cost" j) Json.to_float_opt,
                 str "prog" )
             with
            | Some digest, Some cost, Some prog -> (
                match best { o with journal } digest with
                | Some (prev, _) when prev <= cost -> ()
                | prev ->
                    if Option.is_none prev then incr added;
                    Hashtbl.replace journal digest (cost, prog))
            | _ -> ());
            Option.iter
              (fun rj ->
                match rule_of_json rj with
                | Some fresh when not (has_rule v (rule_id fresh.rule)) ->
                    let kept, dropped = insert_rule fresh !rules in
                    rules := kept;
                    rules_changed := true;
                    Hashtbl.replace present (rule_id fresh.rule) true;
                    Option.iter
                      (fun d -> Hashtbl.replace present (rule_id d.rule) false)
                      dropped
                | Some _ | None -> ())
              (Json.member "rule" j)
      in
      let lines = String.split_on_char '\n' (String.sub text 0 last) in
      List.iter fold_line lines;
      {
        v with
        lines = v.lines + List.length lines;
        consumed = v.consumed + last + 1;
        db =
          {
            v.db with
            rules = !rules;
            rule_set =
              (if !rules_changed then compile !rules else v.db.rule_set);
            optima = { o with journal; added = !added };
          };
      }

(* ------------------------------------------------------------------ *)
(* Store plumbing                                                      *)
(* ------------------------------------------------------------------ *)

(* Decoded-entry cache: one view per database key.  Parsing a few
   hundred rules plus a few thousand optima lines per request would
   dominate tier-2 latency, so a lookup only stats the entry file and
   its journal: unchanged files (path, inode, size, mtime) reuse the
   view, and a journal that grew is folded from where the view stopped.
   Another entry file (another store's copy, a touched file) is
   digested, and only bytes not seen before are read and parsed; its
   journal is folded from the start, so a copy of a database never
   inherits another store's feedback.  A process therefore holds at
   most one decode per key however many stores it opens over copies of
   one database, and reading the files makes external modification and
   corruption visible at once. *)
type stamp = { path : string; ino : int; size : int; mtime : float }

type cached = { stamp : stamp; journal : stamp option; view : view }

let cache : (string, cached) Hashtbl.t = Hashtbl.create 8
let cache_lock = Mutex.create ()

let cached key =
  Mutex.protect cache_lock (fun () -> Hashtbl.find_opt cache key)

let remember key c =
  Mutex.protect cache_lock (fun () -> Hashtbl.replace cache key c)

let stamp path =
  match Unix.stat path with
  | st ->
      Some { path; ino = st.st_ino; size = st.st_size; mtime = st.st_mtime }
  | exception Unix.Unix_error _ -> None

(* The view of this entry file's [base] with [journal] folded in,
   starting from [from] when it already folded a prefix of it. *)
let with_journal ?from base journal =
  let start = Option.value from ~default:(base_view base) in
  match journal with
  | None -> start
  | Some js -> (
      match Store.read_file ~pos:start.consumed js.path with
      | None -> start
      | Some text -> fold_journal start text)

(* Stamps are taken before the reads: a file replaced or grown in
   between is cached under the old stamp, so the next lookup reads it
   again. *)
let lookup store ~key =
  let path = Store.entry_path store key in
  match stamp path with
  | None -> None
  | Some st -> (
      let js = stamp (Store.journal_path store key) in
      let keep view =
        remember key { stamp = st; journal = js; view };
        Some view
      in
      match cached key with
      | Some c when c.stamp = st && c.journal = js -> Some c.view
      | Some c when c.stamp = st ->
          let from =
            match (c.journal, js) with
            | Some pj, Some j when pj.ino = j.ino && j.size >= c.view.consumed
              ->
                c.view
            | _ -> base_view c.view.base
          in
          keep (with_journal ~from c.view.base js)
      | prev -> (
          let same_bytes (c : cached) =
            match Digest.file path with
            | d -> Digest.equal c.view.base.digest d
            | exception Sys_error _ -> false
          in
          match prev with
          | Some c when same_bytes c -> keep (with_journal c.view.base js)
          | _ -> (
              match Store.read_file path with
              | None -> None
              | Some contents -> (
                  match
                    Option.bind
                      (Result.to_option
                         (Store.decode_entry ~schema ~key contents))
                      of_json
                  with
                  | Some db ->
                      let base =
                        {
                          digest = Digest.string contents;
                          db;
                          ids = Atomic.make None;
                        }
                      in
                      keep (with_journal base js)
                  | None ->
                      Store.invalidate store key;
                      None))))

let find store ~key = Option.map (fun v -> v.db) (lookup store ~key)

let record store ~key t =
  let path = Store.entry_path store key in
  let before = stamp path in
  Store.write store ~schema key (fun buf -> render buf t);
  (* Cache the decode only when the write landed (a new file); after a
     failed write the file on disk, if any, is still the old entry, and
     the entry is served from disk only. *)
  match stamp path with
  | Some st when Some st <> before -> (
      match Digest.file path with
      | digest ->
          let db =
            if Hashtbl.length t.optima.journal = 0 then t
            else
              let table = Hashtbl.of_seq (List.to_seq (optima_sorted t)) in
              { t with optima = { table; journal = Hashtbl.create 1; added = 0 } }
          in
          let base = { digest; db; ids = Atomic.make None } in
          remember key { stamp = st; journal = None; view = base_view base }
      | exception Sys_error _ -> ())
  | _ -> ()

(* A journal this many lines long is folded into a rewritten entry: the
   decode of a fresh process folds at most this many lines. *)
let compact_after = 256

(* Serializes feedback within this process; across processes appends
   interleave whole lines, and a compaction racing another process's
   append may lose that one line, which is acceptable for a cache whose
   entries are independently correct. *)
let feedback_lock = Mutex.create ()

let record_feedback store ~key ~model_id ~depth ?rule ~spec_digest ~cost ~prog
    () =
  let fresh = Option.map (fun (rule, gain) -> { rule; gain }) rule in
  Mutex.protect feedback_lock (fun () ->
      match lookup store ~key with
      | Some v when v.db.model_id = model_id && v.db.depth = depth ->
          let cheaper =
            match optimum v.db spec_digest with
            | Some (prev, _) -> prev > cost
            | None -> true
          in
          let fresh =
            Option.bind fresh (fun r ->
                if has_rule v (rule_id r.rule) then None else Some r)
          in
          if cheaper || fresh <> None then begin
            Store.append store key
              (journal_line ?rule:fresh ~spec_digest ~cost ~prog ());
            if v.lines + 1 >= compact_after then
              Option.iter
                (fun t -> record store ~key { t with version = Version.current })
                (find store ~key)
          end
      | Some _ | None ->
          (* Never mined (or mined for another model or depth): the
             organic-growth path starts the entry. *)
          record store ~key
            (entry ~model_id ~depth ~rules:(Option.to_list fresh)
               ~optima:[ (spec_digest, (cost, prog)) ]
               ()))
