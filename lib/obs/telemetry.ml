module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let add_escaped buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let add_float buf f =
    if not (Float.is_finite f) then Buffer.add_string buf "null"
    else begin
      (* Shortest representation that round-trips. *)
      let s = Printf.sprintf "%g" f in
      Buffer.add_string buf
        (if float_of_string s = f then s else Printf.sprintf "%.17g" f)
    end

  let rec emit buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> add_float buf f
    | Str s ->
        Buffer.add_char buf '"';
        add_escaped buf s;
        Buffer.add_char buf '"'
    | List xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            emit buf x)
          xs;
        Buffer.add_char buf ']'
    | Obj kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            add_escaped buf k;
            Buffer.add_string buf "\":";
            emit buf v)
          kvs;
        Buffer.add_char buf '}'

  let to_buffer = emit

  let to_string j =
    let buf = Buffer.create 256 in
    emit buf j;
    Buffer.contents buf

  exception Parse_error of string

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg =
      raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
    in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while
        !pos < n
        && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected '%c'" c)
    in
    let lit w v =
      let l = String.length w in
      if !pos + l <= n && String.sub s !pos l = w then begin
        pos := !pos + l;
        v
      end
      else fail "bad literal"
    in
    let add_utf8 buf code =
      if code < 0x80 then Buffer.add_char buf (Char.chr code)
      else if code < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
      end
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> incr pos
          | '\\' ->
              incr pos;
              if !pos >= n then fail "bad escape";
              (match s.[!pos] with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'u' ->
                  if !pos + 4 >= n then fail "bad \\u escape";
                  (match
                     int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4)
                   with
                  | Some code -> add_utf8 buf code
                  | None -> fail "bad \\u escape");
                  pos := !pos + 4
              | _ -> fail "bad escape");
              incr pos;
              go ()
          | c ->
              Buffer.add_char buf c;
              incr pos;
              go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      if peek () = Some '-' then incr pos;
      while
        !pos < n
        &&
        match s.[!pos] with
        | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
        | _ -> false
      do
        incr pos
      done;
      let str = String.sub s start (!pos - start) in
      match int_of_string_opt str with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt str with
          | Some f -> Float f
          | None -> fail "bad number")
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' -> obj ()
      | Some '[' -> arr ()
      | Some '"' -> Str (parse_string ())
      | Some 't' -> lit "true" (Bool true)
      | Some 'f' -> lit "false" (Bool false)
      | Some 'n' -> lit "null" Null
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some _ -> fail "unexpected character"
      | None -> fail "unexpected end of input"
    and obj () =
      expect '{';
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
              incr pos;
              members ((k, v) :: acc)
          | Some '}' ->
              incr pos;
              Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
    and arr () =
      expect '[';
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        List []
      end
      else
        let rec elems acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
              incr pos;
              elems (v :: acc)
          | Some ']' ->
              incr pos;
              List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elems []
    in
    match
      let v = value () in
      skip_ws ();
      if !pos <> n then fail "trailing characters";
      v
    with
    | v -> Ok v
    | exception Parse_error msg -> Error msg

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

  let to_float_opt = function
    | Int i -> Some (float_of_int i)
    | Float f -> Some f
    | _ -> None

  let to_int_opt = function Int i -> Some i | _ -> None
  let to_string_opt = function Str s -> Some s | _ -> None
  let to_bool_opt = function Bool b -> Some b | _ -> None
  let to_list_opt = function List xs -> Some xs | _ -> None
end

module Counter = struct
  type t = int Atomic.t

  let make () = Atomic.make 0
  let incr = Atomic.incr
  let add t n = ignore (Atomic.fetch_and_add t n)
  let get = Atomic.get
end

module Acc = struct
  type t = float Atomic.t

  let make () = Atomic.make 0.

  let rec add t v =
    let cur = Atomic.get t in
    if not (Atomic.compare_and_set t cur (cur +. v)) then add t v

  let get = Atomic.get
end

type value = Int of int | Float of float | Str of string | Bool of bool

type event = {
  ts : float;
  kind : string;
  name : string;
  fields : (string * value) list;
}

type t = {
  on : bool;
  t0 : float;
  lock : Mutex.t;
  mutable evs : event list;  (* newest first *)
  cnts : (string, Counter.t) Hashtbl.t;
  accums : (string, Acc.t) Hashtbl.t;
}

let null =
  {
    on = false;
    t0 = 0.;
    lock = Mutex.create ();
    evs = [];
    cnts = Hashtbl.create 1;
    accums = Hashtbl.create 1;
  }

let create () =
  {
    on = true;
    t0 = Unix.gettimeofday ();
    lock = Mutex.create ();
    evs = [];
    cnts = Hashtbl.create 32;
    accums = Hashtbl.create 8;
  }

let enabled t = t.on
let now t = Unix.gettimeofday () -. t.t0

let record t ~ts kind name fields =
  let ev = { ts; kind; name; fields } in
  Mutex.protect t.lock (fun () -> t.evs <- ev :: t.evs)

let event t name fields = if t.on then record t ~ts:(now t) "event" name fields

let gauge t name v =
  if t.on then record t ~ts:(now t) "gauge" name [ ("value", Float v) ]

let span t name f =
  if not t.on then f ()
  else begin
    let start = now t in
    Fun.protect
      ~finally:(fun () ->
        record t ~ts:start "span" name [ ("dur", Float (now t -. start)) ])
      f
  end

let counter t name =
  if not t.on then Counter.make ()
  else
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.cnts name with
        | Some c -> c
        | None ->
            let c = Counter.make () in
            Hashtbl.add t.cnts name c;
            c)

let acc t name =
  if not t.on then Acc.make ()
  else
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.accums name with
        | Some a -> a
        | None ->
            let a = Acc.make () in
            Hashtbl.add t.accums name a;
            a)

let add t name n = if t.on then Counter.add (counter t name) n
let incr t name = if t.on then Counter.incr (counter t name)
let events t = List.rev t.evs

let counters t =
  Hashtbl.fold (fun k c acc -> (k, Counter.get c) :: acc) t.cnts []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let accs t =
  Hashtbl.fold (fun k a out -> (k, Acc.get a) :: out) t.accums []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let series t name =
  List.filter_map
    (fun ev ->
      if ev.kind = "gauge" && ev.name = name then
        match List.assoc_opt "value" ev.fields with
        | Some (Float v) -> Some (ev.ts, v)
        | Some (Int v) -> Some (ev.ts, float_of_int v)
        | _ -> None
      else None)
    (events t)

let json_of_value = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Str s -> Json.Str s
  | Bool b -> Json.Bool b

let event_json ev =
  Json.Obj
    (("ts", Json.Float ev.ts)
    :: ("kind", Json.Str ev.kind)
    :: ("name", Json.Str ev.name)
    :: List.map (fun (k, v) -> (k, json_of_value v)) ev.fields)

let ndjson_lines t =
  List.map (fun ev -> Json.to_string (event_json ev)) (events t)
  @ List.map
      (fun (name, v) ->
        Json.to_string
          (Json.Obj
             [
               ("kind", Json.Str "counter");
               ("name", Json.Str name);
               ("value", Json.Int v);
             ]))
      (counters t)
  @ List.map
      (fun (name, v) ->
        Json.to_string
          (Json.Obj
             [
               ("kind", Json.Str "acc");
               ("name", Json.Str name);
               ("value", Json.Float v);
             ]))
      (accs t)

let ndjson_string t =
  String.concat "" (List.map (fun l -> l ^ "\n") (ndjson_lines t))

let write_ndjson t oc =
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    (ndjson_lines t)
