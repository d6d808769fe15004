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

type t = {
  version : string;
  model_id : string;
  depth : int;
  truncated : bool;
      (* the mining enumeration hit its stub cap or deadline: the rule
         set is still sound (each rule was verified within the library),
         but "no better program exists" conclusions must not be drawn *)
  rules : rule list;
  optima : (string, float * string) Hashtbl.t;
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

let entry ?(truncated = false) ~model_id ~depth ~rules ~optima () =
  let table = Hashtbl.create (List.length optima) in
  List.iter
    (fun (digest, ((cost, _) as binding)) ->
      match Hashtbl.find_opt table digest with
      | Some (prev, _) when prev <= cost -> ()
      | _ -> Hashtbl.replace table digest binding)
    optima;
  {
    version = Version.current;
    model_id;
    depth;
    truncated;
    rules = dedupe_rules rules;
    optima = table;
  }

let lookup_optimum t digest =
  match Hashtbl.find_opt t.optima digest with
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

(* The entry's JSON text, streamed into [buf]: feedback rewrites the
   whole database after every verified search, and a tree of thousands
   of optima would cost many times the bytes it renders. *)
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
  (* Deterministic rendering: hash order is arbitrary. *)
  let optima =
    Hashtbl.fold (fun digest b acc -> (digest, b) :: acc) t.optima []
    |> List.sort (fun (x, _) (y, _) -> compare x y)
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
    optima;
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
  let optima = Hashtbl.create (List.length optima_docs) in
  List.iter
    (function
      | Json.List [ Json.Str digest; cost; Json.Str text ] -> (
          match Json.to_float_opt cost with
          | Some c -> Hashtbl.replace optima digest (c, text)
          | None -> ())
      | _ -> ())
    optima_docs;
  Some { version; model_id; depth; truncated; rules; optima }

(* ------------------------------------------------------------------ *)
(* Store plumbing                                                      *)
(* ------------------------------------------------------------------ *)

(* Decoded-entry cache: one decode per database key, shared by every
   store handle whose entry file holds the same bytes.  Parsing a few
   hundred rules plus a few thousand optima lines per request would
   dominate tier-2 latency, so a lookup only stats the entry file: the
   same file (path, inode, size, mtime) reuses the decode; another file
   is digested, and only bytes not seen before are read and parsed.  A
   process therefore holds at most one decode per key, however many
   stores it opens over copies of one database, and reading the file
   makes external modification and corruption visible at once. *)
type stamp = { path : string; ino : int; size : int; mtime : float }
type cached = { stamp : stamp; digest : Digest.t; db : t }

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

(* The stamp is taken before the read: a file replaced in between is
   cached under the old stamp, so the next lookup reads it again. *)
let find store ~key =
  let path = Store.entry_path store key in
  match stamp path with
  | None -> None
  | Some st -> (
      match cached key with
      | Some c when c.stamp = st -> Some c.db
      | prev -> (
          let same_bytes c =
            match Digest.file path with
            | d -> Digest.equal c.digest d
            | exception Sys_error _ -> false
          in
          match prev with
          | Some c when same_bytes c ->
              remember key { c with stamp = st };
              Some c.db
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
                      remember key
                        { stamp = st; digest = Digest.string contents; db };
                      Some db
                  | None ->
                      Store.invalidate store key;
                      None))))

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
      | digest -> remember key { stamp = st; digest; db = t }
      | exception Sys_error _ -> ())
  | _ -> ()

(* Serializes feedback read-modify-writes within this process; across
   processes the last writer wins, which is acceptable for a cache whose
   entries are independently correct. *)
let feedback_lock = Mutex.create ()

let record_feedback store ~key ~model_id ~depth ?rule ~spec_digest ~cost ~prog
    () =
  Mutex.protect feedback_lock (fun () ->
      let current =
        match find store ~key with
        | Some t when t.model_id = model_id && t.depth = depth -> Some t
        | Some _ | None -> None
      in
      let rules, optima_tbl =
        match current with
        | Some t -> (t.rules, Hashtbl.copy t.optima)
        | None -> ([], Hashtbl.create 4)
      in
      (* Feedback optima come from verified searches, not from the
         mining enumeration; they do not clear the truncation mark. *)
      let truncated =
        match current with Some t -> t.truncated | None -> false
      in
      let rules =
        match rule with
        | None -> rules
        | Some (r, gain) ->
            let fresh = { rule = r; gain } in
            if List.exists (fun e -> rule_id e.rule = rule_id r) rules then
              rules
            else dedupe_rules (fresh :: rules)
      in
      (match Hashtbl.find_opt optima_tbl spec_digest with
      | Some (prev, _) when prev <= cost -> ()
      | _ -> Hashtbl.replace optima_tbl spec_digest (cost, prog));
      record store ~key
        {
          version = Version.current;
          model_id;
          depth;
          truncated;
          rules;
          optima = optima_tbl;
        })
