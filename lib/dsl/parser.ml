exception Parse_error of string

(* Every diagnostic carries the 1-based line and column of the
   offending token, so `stenso run`/`lift` can point at the source. *)
let fail_at line col fmt =
  Format.kasprintf
    (fun m ->
      raise (Parse_error (Printf.sprintf "line %d, column %d: %s" line col m)))
    fmt

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)
(* ------------------------------------------------------------------ *)

type token =
  | IDENT of string
  | NUMBER of float
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | COMMA
  | COLON
  | DOT
  | PLUS
  | MINUS
  | STAR
  | STARSTAR
  | SLASH
  | AT
  | EQUALS
  | NEWLINE
  | EOF

let pp_token = function
  | IDENT s -> s
  | NUMBER f -> string_of_float f
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | COMMA -> ","
  | COLON -> ":"
  | DOT -> "."
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | STARSTAR -> "**"
  | SLASH -> "/"
  | AT -> "@"
  | EQUALS -> "="
  | NEWLINE -> "<newline>"
  | EOF -> "<eof>"

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

type ptok = { tok : token; tline : int; tcol : int }

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  let line = ref 1 in
  let bol = ref 0 in
  (* Position of the token that starts at the cursor. *)
  let tline = ref 1 and tcol = ref 1 in
  let mark () =
    tline := !line;
    tcol := !i - !bol + 1
  in
  let emit t = toks := { tok = t; tline = !tline; tcol = !tcol } :: !toks in
  while !i < n do
    let c = src.[!i] in
    mark ();
    if c = '#' then begin
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '\n' then begin
      emit NEWLINE;
      incr i;
      incr line;
      bol := !i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        incr i
      done;
      emit (IDENT (String.sub src start (!i - start)))
    end
    else if is_digit c || (c = '.' && !i + 1 < n && is_digit src.[!i + 1]) then begin
      let start = !i in
      while
        !i < n
        && (is_digit src.[!i]
           || src.[!i] = '.'
           || src.[!i] = 'e'
           || src.[!i] = 'E'
           || ((src.[!i] = '+' || src.[!i] = '-')
              && !i > start
              && (src.[!i - 1] = 'e' || src.[!i - 1] = 'E')))
      do
        incr i
      done;
      let text = String.sub src start (!i - start) in
      match float_of_string_opt text with
      | Some f -> emit (NUMBER f)
      | None -> fail_at !tline !tcol "bad numeric literal %S" text
    end
    else begin
      incr i;
      match c with
      | '(' -> emit LPAREN
      | ')' -> emit RPAREN
      | '[' -> emit LBRACKET
      | ']' -> emit RBRACKET
      | ',' -> emit COMMA
      | ':' -> emit COLON
      | '.' -> emit DOT
      | '+' -> emit PLUS
      | '-' -> emit MINUS
      | '*' ->
          if !i < n && src.[!i] = '*' then begin
            incr i;
            emit STARSTAR
          end
          else emit STAR
      | '/' -> emit SLASH
      | '@' -> emit AT
      | '=' -> emit EQUALS
      | c -> fail_at !tline !tcol "unexpected character %C" c
    end
  done;
  mark ();
  emit EOF;
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* Token stream                                                       *)
(* ------------------------------------------------------------------ *)

(* [line]/[col] track the most recently peeked token, so a failure
   raised right after [peek]/[next] points at it. *)
type stream = { mutable toks : ptok list; mutable line : int; mutable col : int }

let stream src =
  let toks = tokenize src in
  match toks with
  | [] -> { toks; line = 1; col = 1 }
  | t :: _ -> { toks; line = t.tline; col = t.tcol }

let peek s =
  match s.toks with
  | t :: _ ->
      s.line <- t.tline;
      s.col <- t.tcol;
      t.tok
  | [] -> EOF

let advance s = match s.toks with _ :: rest -> s.toks <- rest | [] -> ()

let next s =
  let t = peek s in
  advance s;
  t

let sfail s fmt = fail_at s.line s.col fmt

let expect s tok =
  let t = next s in
  if t <> tok then
    sfail s "expected %s but found %s" (pp_token tok) (pp_token t)

let skip_newlines s =
  while peek s = NEWLINE do
    advance s
  done

(* Inside brackets newlines are insignificant; our surface syntax keeps
   everything on one logical line per declaration, so we just skip them
   in expression position. *)

(* ------------------------------------------------------------------ *)
(* Expression parser                                                  *)
(* ------------------------------------------------------------------ *)

let kwarg_axis s =
  (* Parses [axis = <int>] after the [axis] ident has been consumed. *)
  expect s EQUALS;
  match next s with
  | NUMBER f when Float.is_integer f -> int_of_float f
  | MINUS -> (
      match next s with
      | NUMBER f when Float.is_integer f -> -int_of_float f
      | t -> sfail s "expected integer axis, found %s" (pp_token t))
  | t -> sfail s "expected integer axis, found %s" (pp_token t)

let rec parse_expr s = parse_additive s

and parse_additive s =
  let lhs = ref (parse_multiplicative s) in
  let continue_ = ref true in
  while !continue_ do
    match peek s with
    | PLUS ->
        advance s;
        lhs := Ast.App (Add, [ !lhs; parse_multiplicative s ])
    | MINUS ->
        advance s;
        lhs := Ast.App (Sub, [ !lhs; parse_multiplicative s ])
    | _ -> continue_ := false
  done;
  !lhs

and parse_multiplicative s =
  let lhs = ref (parse_unary s) in
  let continue_ = ref true in
  while !continue_ do
    match peek s with
    | STAR ->
        advance s;
        lhs := Ast.App (Mul, [ !lhs; parse_unary s ])
    | SLASH ->
        advance s;
        lhs := Ast.App (Div, [ !lhs; parse_unary s ])
    | AT ->
        advance s;
        lhs := Ast.App (Dot, [ !lhs; parse_unary s ])
    | _ -> continue_ := false
  done;
  !lhs

and parse_unary s =
  match peek s with
  | MINUS -> (
      advance s;
      (* Negative literals fold at parse time (they are Python-level
         constants, not framework operations). *)
      match parse_unary s with
      | Ast.Const f -> Ast.Const (-.f)
      | e -> Ast.App (Mul, [ Ast.Const (-1.); e ]))
  | _ -> parse_power s

and parse_power s =
  let base = parse_postfix s in
  match peek s with
  | STARSTAR ->
      advance s;
      Ast.App (Pow_op, [ base; parse_unary s ])
  | _ -> base

and parse_postfix s =
  let e = ref (parse_atom s) in
  let continue_ = ref true in
  while !continue_ do
    match peek s with
    | DOT -> (
        advance s;
        match next s with
        | IDENT "T" -> e := Ast.App (Transpose None, [ !e ])
        | t -> sfail s "expected .T, found .%s" (pp_token t))
    | _ -> continue_ := false
  done;
  !e

and parse_atom s =
  match next s with
  | NUMBER f -> Ast.Const f
  | LPAREN ->
      let e = parse_expr s in
      expect s RPAREN;
      e
  | IDENT "np" ->
      expect s DOT;
      let fn = match next s with
        | IDENT name -> name
        | t -> sfail s "expected function name after np., found %s" (pp_token t)
      in
      parse_np_call s fn
  | IDENT name -> Ast.Input name
  | t -> sfail s "unexpected token %s in expression" (pp_token t)

and parse_int s =
  match next s with
  | NUMBER f when Float.is_integer f -> int_of_float f
  | MINUS -> (
      match next s with
      | NUMBER f when Float.is_integer f -> -int_of_float f
      | t -> sfail s "expected integer, found %s" (pp_token t))
  | t -> sfail s "expected integer, found %s" (pp_token t)

and parse_int_seq s close =
  (* Comma-separated integers up to (and consuming) [close]. *)
  if peek s = close then begin
    advance s;
    []
  end
  else
    let rec go acc =
      let n = parse_int s in
      match next s with
      | COMMA -> if peek s = close then (advance s; List.rev (n :: acc)) else go (n :: acc)
      | t when t = close -> List.rev (n :: acc)
      | t -> sfail s "expected , or %s, found %s" (pp_token close) (pp_token t)
    in
    go []

and parse_int_group s =
  (* A tuple or list of integers: (1, 2) or [1, 2], or a bare integer. *)
  match peek s with
  | LPAREN ->
      advance s;
      parse_int_seq s RPAREN
  | LBRACKET ->
      advance s;
      parse_int_seq s RBRACKET
  | _ -> [ parse_int s ]

and parse_expr_list s =
  (* [e1, e2, ...] — the bracket has already been consumed. *)
  let rec go acc =
    let e = parse_expr s in
    match next s with
    | COMMA -> if peek s = RBRACKET then (advance s; List.rev (e :: acc)) else go (e :: acc)
    | RBRACKET -> List.rev (e :: acc)
    | t -> sfail s "expected , or ] in list, found %s" (pp_token t)
  in
  go []

and parse_np_call s fn =
  expect s LPAREN;
  let unary mk =
    let a = parse_expr s in
    expect s RPAREN;
    mk a
  in
  let binary mk =
    let a = parse_expr s in
    expect s COMMA;
    let b = parse_expr s in
    expect s RPAREN;
    mk a b
  in
  match fn with
  | "add" -> binary (fun a b -> Ast.App (Add, [ a; b ]))
  | "subtract" -> binary (fun a b -> Ast.App (Sub, [ a; b ]))
  | "multiply" -> binary (fun a b -> Ast.App (Mul, [ a; b ]))
  | "divide" -> binary (fun a b -> Ast.App (Div, [ a; b ]))
  | "power" -> binary (fun a b -> Ast.App (Pow_op, [ a; b ]))
  | "maximum" -> binary (fun a b -> Ast.App (Maximum, [ a; b ]))
  | "dot" | "matmul" | "inner" -> binary (fun a b -> Ast.App (Dot, [ a; b ]))
  | "less" -> binary (fun a b -> Ast.App (Less, [ a; b ]))
  | "sqrt" -> unary (fun a -> Ast.App (Sqrt, [ a ]))
  | "exp" -> unary (fun a -> Ast.App (Exp, [ a ]))
  | "log" -> unary (fun a -> Ast.App (Log, [ a ]))
  | "triu" -> unary (fun a -> Ast.App (Triu, [ a ]))
  | "tril" -> unary (fun a -> Ast.App (Tril, [ a ]))
  | "diag" | "diagonal" -> unary (fun a -> Ast.App (Diag, [ a ]))
  | "trace" -> unary (fun a -> Ast.App (Trace, [ a ]))
  | "where" ->
      let c = parse_expr s in
      expect s COMMA;
      let a = parse_expr s in
      expect s COMMA;
      let b = parse_expr s in
      expect s RPAREN;
      Ast.App (Where, [ c; a; b ])
  | "sum" | "max" ->
      let a = parse_expr s in
      let axis = ref None and keepdims = ref false in
      let parse_keepdims () =
        expect s EQUALS;
        match next s with
        | IDENT "True" -> keepdims := true
        | IDENT "False" -> keepdims := false
        | t -> sfail s "expected True or False for keepdims, found %s" (pp_token t)
      in
      let rec args () =
        match peek s with
        | COMMA ->
            advance s;
            (match next s with
            | IDENT "axis" -> axis := Some (kwarg_axis s)
            | IDENT "keepdims" -> parse_keepdims ()
            | NUMBER f when Float.is_integer f -> axis := Some (int_of_float f)
            | MINUS -> (
                match next s with
                | NUMBER f when Float.is_integer f ->
                    axis := Some (-int_of_float f)
                | t -> sfail s "bad axis: %s" (pp_token t))
            | t ->
                sfail s "expected axis or keepdims argument, found %s"
                  (pp_token t));
            args ()
        | _ -> ()
      in
      args ();
      expect s RPAREN;
      let r = Ast.reduce ~keepdims:!keepdims !axis in
      if fn = "sum" then Ast.App (Sum r, [ a ]) else Ast.App (Max r, [ a ])
  | "transpose" ->
      let a = parse_expr s in
      let perm =
        match peek s with
        | COMMA ->
            advance s;
            Some (Array.of_list (parse_int_group s))
        | _ -> None
      in
      expect s RPAREN;
      Ast.App (Transpose perm, [ a ])
  | "tensordot" ->
      let a = parse_expr s in
      expect s COMMA;
      let b = parse_expr s in
      expect s COMMA;
      expect s LPAREN;
      let axes_a = parse_int_group s in
      expect s COMMA;
      let axes_b = parse_int_group s in
      expect s RPAREN;
      expect s RPAREN;
      Ast.App (Tensordot (axes_a, axes_b), [ a; b ])
  | "reshape" ->
      let a = parse_expr s in
      expect s COMMA;
      let shape = Array.of_list (parse_int_group s) in
      expect s RPAREN;
      Ast.App (Reshape shape, [ a ])
  | "full" ->
      let shape = Array.of_list (parse_int_group s) in
      expect s COMMA;
      let v = parse_expr s in
      expect s RPAREN;
      Ast.App (Full shape, [ v ])
  | "stack" -> (
      expect s LBRACKET;
      (* Either a comprehension or an explicit list. *)
      let first = parse_expr s in
      match peek s with
      | IDENT "for" ->
          advance s;
          let var = match next s with
            | IDENT v -> v
            | t -> sfail s "expected comprehension variable, found %s" (pp_token t)
          in
          (match next s with
          | IDENT "in" -> ()
          | t -> sfail s "expected 'in', found %s" (pp_token t));
          let iter = match next s with
            | IDENT v -> v
            | t -> sfail s "comprehension source must be an input name, found %s"
                     (pp_token t)
          in
          expect s RBRACKET;
          let axis =
            match peek s with
            | COMMA -> (
                advance s;
                match next s with
                | IDENT "axis" -> kwarg_axis s
                | t -> sfail s "expected axis=, found %s" (pp_token t))
            | _ -> 0
          in
          expect s RPAREN;
          if axis <> 0 then sfail s "comprehension stack only supports axis=0";
          Ast.For_stack { var; iter; body = first }
      | COMMA | RBRACKET ->
          let rest =
            if peek s = RBRACKET then (advance s; [])
            else begin
              advance s;
              parse_expr_list s
            end
          in
          let axis =
            match peek s with
            | COMMA -> (
                advance s;
                match next s with
                | IDENT "axis" -> kwarg_axis s
                | t -> sfail s "expected axis=, found %s" (pp_token t))
            | _ -> 0
          in
          expect s RPAREN;
          Ast.App (Stack axis, first :: rest)
      | t -> sfail s "unexpected %s in stack literal" (pp_token t))
  | fn -> sfail s "unknown numpy function np.%s" fn

(* ------------------------------------------------------------------ *)
(* Declarations                                                       *)
(* ------------------------------------------------------------------ *)

let parse_dtype_shape s =
  let dtype =
    match next s with
    | IDENT ("f" | "f32" | "f64" | "float") -> Types.Float
    | IDENT ("b" | "bool") -> Types.Bool
    | t -> sfail s "expected dtype (f32 or bool), found %s" (pp_token t)
  in
  expect s LBRACKET;
  let dims = parse_int_seq s RBRACKET in
  let shape = Array.of_list dims in
  match dtype with
  | Types.Float -> Types.float_t shape
  | Types.Bool -> Types.bool_t shape

let program src =
  let s = stream src in
  let env = ref [] in
  let result = ref None in
  let rec loop () =
    skip_newlines s;
    match peek s with
    | EOF -> ()
    | IDENT "input" ->
        advance s;
        let name = match next s with
          | IDENT n -> n
          | t -> sfail s "expected input name, found %s" (pp_token t)
        in
        expect s COLON;
        let vt = parse_dtype_shape s in
        if List.mem_assoc name !env then sfail s "duplicate input %s" name;
        env := (name, vt) :: !env;
        loop ()
    | IDENT "return" ->
        advance s;
        let e = parse_expr s in
        (match !result with
        | None -> result := Some e
        | Some _ -> sfail s "multiple return statements");
        loop ()
    | t -> sfail s "expected 'input' or 'return', found %s" (pp_token t)
  in
  loop ();
  match !result with
  | None -> sfail s "missing return statement"
  | Some e -> (List.rev !env, e)

let expression src =
  let s = stream src in
  skip_newlines s;
  let e = parse_expr s in
  skip_newlines s;
  (match peek s with
  | EOF -> ()
  | t -> sfail s "trailing input after expression: %s" (pp_token t));
  e

(* The inverse of [program]: render an environment and expression back
   to the surface syntax, such that [program (unparse env e)] yields the
   same environment and AST.  Shared by the CLI's program output and the
   persistent store's cached-outcome entries, so both always produce the
   byte-identical text for a given program. *)
let unparse (env : Types.env) (prog : Ast.t) =
  let buf = Buffer.create 256 in
  let str = Buffer.add_string buf in
  List.iter
    (fun (name, (vt : Types.vt)) ->
      str "input "; str name;
      str (match vt.dtype with Types.Float -> " : f32[" | Types.Bool -> " : bool[");
      Array.iteri (fun i d -> if i > 0 then str ", "; str (string_of_int d)) vt.shape;
      str "]\n")
    env;
  str "return "; Ast.render buf prog; str "\n";
  Buffer.contents buf
