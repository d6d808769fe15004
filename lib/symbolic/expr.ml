type t =
  | Rat of Q.t
  | Var of Sym.t
  | Add of t list
  | Mul of t list
  | Pow of t * t
  | App of fn * t list

and fn = Exp | Log | Max | Less | Where

(* How many terms an integer power of a sum may expand into before we
   give up and keep the power as an opaque atom (sound, less complete). *)
let expand_term_limit = 4096

let fn_rank = function Exp -> 0 | Log -> 1 | Max -> 2 | Less -> 3 | Where -> 4
let rank = function
  | Rat _ -> 0
  | Var _ -> 1
  | Pow _ -> 2
  | App _ -> 3
  | Mul _ -> 4
  | Add _ -> 5

let rec compare a b =
  if a == b then 0
  else
    match (a, b) with
    | Rat x, Rat y -> Q.compare x y
    | Var x, Var y -> Sym.compare x y
    | Pow (b1, e1), Pow (b2, e2) ->
        let c = compare b1 b2 in
        if c <> 0 then c else compare e1 e2
    | App (f, xs), App (g, ys) ->
        let c = Int.compare (fn_rank f) (fn_rank g) in
        if c <> 0 then c else compare_list xs ys
    | Mul xs, Mul ys | Add xs, Add ys -> compare_list xs ys
    | _ -> Int.compare (rank a) (rank b)

and compare_list xs ys =
  match (xs, ys) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: xs, y :: ys ->
      let c = compare x y in
      if c <> 0 then c else compare_list xs ys

let equal a b = a == b || compare a b = 0

(* Structural hash over the whole tree.  Each step folds a child (or a
   constructor tag) into the running state and passes the result through
   a multiply-xorshift finalizer.  The finalizer is a bijection on the
   native int, and its nonlinearity keeps sums and products of the same
   atoms apart (a linear polynomial mix sends [1 + a] and [-1*a] to one
   value).  The fold multiplies rather than xors, so folding a value
   into an equal state does not cancel to zero. *)
let mix h =
  let h = h lxor (h lsr 31) in
  let h = h * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

let hash_combine h x = mix ((h * 0x100000001B3) + x)

(* A symbol folds in its base's characters and its indices.  Plain
   loops: this runs for every symbol of every value hashed. *)
let hash_sym (s : Sym.t) =
  let h = ref (hash_combine 2 (String.length s.base)) in
  for i = 0 to String.length s.base - 1 do
    h := hash_combine !h (Char.code (String.unsafe_get s.base i))
  done;
  for i = 0 to Array.length s.indices - 1 do
    h := hash_combine !h (Array.unsafe_get s.indices i)
  done;
  !h

let rec hash t =
  match t with
  | Rat q -> hash_combine (hash_combine 1 (Q.num q)) (Q.den q)
  | Var s -> hash_sym s
  | Add xs -> hash_list 3 xs
  | Mul xs -> hash_list 4 xs
  | Pow (b, e) -> hash_combine (hash_combine 5 (hash b)) (hash e)
  | App (f, xs) -> hash_list (hash_combine 6 (fn_rank f)) xs

and hash_list h = function
  | [] -> h
  | x :: xs -> hash_list (hash_combine h (hash x)) xs

(* Tables keyed by expression value: the base maps of [div_exact] and
   [root_exact], and [Intern]. *)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* One shared node for each small rational n or n/2 with |n| <= 8: most
   coefficients and exponents are such (-1 alone is a third of them),
   and a stub library holds hundreds of thousands. *)
let small_rats =
  Array.init 34 (fun i -> Rat (Q.make ((i mod 17) - 8) (1 + (i / 17))))

let rat q =
  let n = Q.num q and d = Q.den q in
  if d <= 2 && n >= -8 && n <= 8 then small_rats.(n + 8 + (17 * (d - 1)))
  else Rat q

let int n = rat (Q.of_int n)
let zero = rat Q.zero
let one = rat Q.one
let var s = Var s
let sym name = Var (Sym.scalar name)
let is_zero = function Rat q -> Q.is_zero q | _ -> false
let is_one = function Rat q -> Q.is_one q | _ -> false
let to_const = function Rat q -> Some q | _ -> None

(* [split_coeff t] = (q, rest) with t = q * rest and rest coefficient-free. *)
let split_coeff = function
  | Rat q -> (q, one)
  | Mul (Rat q :: fs) -> (
      match fs with [ f ] -> (q, f) | fs -> (q, Mul fs))
  | t -> (Q.one, t)

let terms = function Add ts -> ts | t -> [ t ]
let factors = function Mul fs -> fs | t -> [ t ]
let as_base_exp = function Pow (b, e) -> (b, e) | f -> (f, one)

(* Rebuild a term from a coefficient and a coefficient-free rest. *)
let mk_term q rest =
  if Q.is_zero q then zero
  else if Q.is_one q then rest
  else
    match rest with
    | Rat r -> rat (Q.mul q r)
    | Mul fs -> Mul (rat q :: fs)
    | t -> Mul [ rat q; t ]

(* Conservative syntactic positivity: [true] means the expression is
   positive for every assignment where it is defined (reals; a positive
   base to any real power stays positive). *)
let rec surely_pos = function
  | Rat q -> Q.sign q > 0
  | App (Exp, _) -> true
  | App (Max, xs) -> xs <> [] && List.for_all surely_pos xs
  | Pow (b, _) -> surely_pos b
  | Mul fs -> List.for_all surely_pos fs
  | Add ts -> ts <> [] && List.for_all surely_pos ts
  | Var _ | App ((Log | Less | Where), _) -> false

let is_sum = function Add _ -> true | _ -> false

(* [add [a; b]] for two terms neither of which is a sum: the general
   path below specialised to that case, with the same result. *)
let add_two a b =
  let qa, ra = split_coeff a and qb, rb = split_coeff b in
  let c = compare ra rb in
  if c = 0 then mk_term (Q.add qb qa) rb
  else if Q.is_zero qa then b
  else if Q.is_zero qb then a
  else if c < 0 then Add [ a; b ]
  else Add [ b; a ]

(* [add [a; b]] when one is a sum: a sum's terms are ordered by their
   coefficient-free rests, so the general path's sort is a merge of the
   two term lists, combining equal rests (the second operand's first,
   as the general path orders them). *)
let add_merged xs ys =
  let rec go xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> rest
    | x :: xs', y :: ys' ->
        let qx, rx = split_coeff x and qy, ry = split_coeff y in
        let c = compare rx ry in
        if c < 0 then x :: go xs' ys
        else if c > 0 then y :: go xs ys'
        else
          let q = Q.add qy qx in
          if Q.is_zero q then go xs' ys' else mk_term q ry :: go xs' ys'
  in
  match go xs ys with [] -> zero | [ t ] -> t | ts -> Add ts

let rec add es =
  match es with
  | [] -> zero
  | [ a ] -> a
  | [ a; b ] when not (is_sum a || is_sum b) -> add_two a b
  | [ a; b ] ->
      if is_zero a then b else if is_zero b then a
      else add_merged (terms a) (terms b)
  | _ -> add_general es

and add_general es =
  let rec flatten acc = function
    | [] -> acc
    | Add ts :: rest -> flatten (List.rev_append ts acc) rest
    | e :: rest -> flatten (e :: acc) rest
  in
  let ts = flatten [] es in
  (* Collect like terms: group by coefficient-free rest.  A term that
     combines with no other is kept as it came ([mk_term] would rebuild
     an equal one), so sums share their operands' terms. *)
  let triples =
    List.map
      (fun t ->
        let q, r = split_coeff t in
        (q, r, Some t))
      ts
  in
  let sorted =
    List.sort (fun (_, r1, _) (_, r2, _) -> compare r1 r2) triples
  in
  let rec combine = function
    | (q1, r1, _) :: (q2, r2, _) :: rest when equal r1 r2 ->
        combine ((Q.add q1 q2, r1, None) :: rest)
    | p :: rest -> p :: combine rest
    | [] -> []
  in
  let combined =
    List.filter (fun (q, _, _) -> not (Q.is_zero q)) (combine sorted)
  in
  match
    List.map
      (function _, _, Some t -> t | q, r, None -> mk_term q r)
      combined
  with
  | [] -> zero
  | [ t ] -> t
  | ts -> Add ts

and mul es =
  match es with
  | [] -> one
  | [ a ] -> a
  | [ Rat p; Rat q ] -> rat (Q.mul p q)
  | [ (Rat q as k); ((Var _ | Pow _ | App _) as x) ]
  | [ ((Var _ | Pow _ | App _) as x); (Rat q as k) ] ->
      (* A coefficient times an atom: what the general path below
         returns for it ([pow] is the identity on an atom's own base
         and exponent). *)
      if Q.is_zero q then zero else if Q.is_one q then x else Mul [ k; x ]
  | [ Rat q; (Add ts as sum) ] | [ (Add ts as sum); Rat q ] ->
      (* A coefficient times a sum scales each term; no two combine. *)
      if Q.is_zero q then zero
      else if Q.is_one q then sum
      else
        let k = rat q in
        Add (List.map (fun t -> mul [ k; t ]) ts)
  | [ Rat q; Mul fs ] | [ Mul fs; Rat q ] -> (
      (* A coefficient times a product: only the coefficient changes. *)
      let c, rest =
        match fs with Rat c :: rest -> (c, rest) | _ -> (Q.one, fs)
      in
      let q = Q.mul c q in
      if Q.is_zero q then zero
      else if not (Q.is_one q) then Mul (rat q :: rest)
      else match rest with [ f ] -> f | _ -> Mul rest)
  | [
      ((Var _ | Pow _ | App _ | Mul _) as a);
      ((Var _ | Pow _ | App _ | Mul _) as b);
    ] -> (
      (* Two atoms or products: when no base occurs in both, nothing
         merges or expands, and the factors are the two sorted factor
         lists merged. *)
      let coeff_factors = function
        | Mul (Rat c :: fs) -> (c, fs)
        | Mul fs -> (Q.one, fs)
        | x -> (Q.one, [ x ])
      in
      let ca, fa = coeff_factors a and cb, fb = coeff_factors b in
      let base f = fst (as_base_exp f) in
      let shared f =
        let bf = base f in
        List.exists (fun g -> equal bf (base g)) fb
      in
      if List.exists shared fa then mul_general es
      else
        let q = Q.mul ca cb in
        let fs = List.merge compare fa fb in
        if not (Q.is_one q) then Mul (rat q :: fs)
        else match fs with [ f ] -> f | _ -> Mul fs)
  | _ -> mul_general es

and mul_general es =
  let rec flatten acc = function
    | [] -> acc
    | Mul fs :: rest -> flatten (List.rev_append fs acc) rest
    | e :: rest -> flatten (e :: acc) rest
  in
  let fs = flatten [] es in
  if List.exists is_zero fs then zero
  else
    let coeff, fs =
      List.fold_left
        (fun (c, acc) f ->
          match f with Rat q -> (Q.mul c q, acc) | f -> (c, f :: acc))
        (Q.one, []) fs
    in
    (* Merge equal bases by adding exponents (before distributing, so
       that e.g. (A+B) * (A+B)^(-1/2) collapses to sqrt(A+B)). *)
    let base_exps =
      List.map
        (fun f ->
          let b, e = as_base_exp f in
          (b, e, Some f))
        fs
    in
    let sorted =
      List.sort (fun (b1, _, _) (b2, _, _) -> compare b1 b2) base_exps
    in
    let rec merge = function
      | (b1, e1, _) :: (b2, e2, _) :: rest when equal b1 b2 ->
          merge ((b1, add [ e1; e2 ], None) :: rest)
      | p :: rest -> p :: merge rest
      | [] -> []
    in
    (* A factor that merges with no other is kept as it came: [pow] is
       the identity on a factor's own base and exponent. *)
    let rebuilt =
      List.map
        (function _, _, Some f -> f | b, e, None -> pow b e)
        (merge sorted)
    in
    if
      List.exists (function Rat _ | Mul _ -> true | _ -> false) rebuilt
    then
      (* A factor collapsed to a constant or product: re-flatten. *)
      mul (rat coeff :: rebuilt)
    else
      let adds, others =
        List.partition (function Add _ -> true | _ -> false) rebuilt
      in
      match adds with
      | Add ts :: more_adds ->
          (* Distribute over a remaining bare sum factor (expansion). *)
          let tail = more_adds @ others in
          let with_coeff t =
            if Q.is_one coeff then t :: tail else rat coeff :: t :: tail
          in
          add (List.map (fun t -> mul (with_coeff t)) ts)
      | _ :: _ -> assert false
      | [] -> (
          let factors' = List.sort compare others in
          let factors' =
            if Q.is_one coeff then factors' else rat coeff :: factors'
          in
          match factors' with [] -> one | [ f ] -> f | fs -> Mul fs)

and pow b e =
  match (b, e) with
  | _, Rat q when Q.is_zero q -> one
  | _, Rat q when Q.is_one q -> b
  | Rat qb, _ when Q.is_one qb -> one
  | Rat qb, Rat qe when Q.is_zero qb ->
      (* 0^q for q <= 0 is kept as an opaque atom (evaluating to an
         infinity), keeping the constructors total. *)
      if Q.sign qe > 0 then zero else Pow (b, e)
  | Rat qb, Rat qe -> (
      match Q.to_int qe with
      | Some n -> rat (Q.pow_int qb n)
      | None -> (
          match rat_root qb qe with Some q -> rat q | None -> Pow (b, e)))
  | Mul fs, _ -> mul (List.map (fun f -> pow f e) fs)
  | Pow (b', e'), _ -> pow b' (mul [ e'; e ])
  | Add ts, _ -> (
      (* (c * r)^e = c^e * r^e when c, the common surely-positive factor
         of the sum's terms, exists.  This identifies max-shifted
         softmax denominators with their naive forms. *)
      match factor_pos_common ts with
      | Some (common, residual) -> mul [ pow common e; pow residual e ]
      | None -> (
          match e with
          | Rat q when Q.is_integer q && Q.sign q > 0 -> (
              match Q.to_int q with
              | Some n when pow_fits (List.length ts) n -> expand_pow_add ts n
              | _ -> Pow (b, e))
          | _ -> Pow (b, e)))
  | _ -> Pow (b, e)

(* Expand (t1 + ... + tk)^n by repeated term-by-term distribution.  The
   operands passed to [mul] are individual terms (never bare sums), so
   this cannot re-trigger the base-merging path that would rebuild the
   power and loop. *)
and expand_pow_add ts n =
  let step acc =
    add
      (List.concat_map
         (fun acc_term -> List.map (fun t -> mul [ acc_term; t ]) ts)
         (terms acc))
  in
  let rec go acc k = if k = 0 then acc else go (step acc) (k - 1) in
  go one n

(* Does |ts|^n stay under the expansion limit? *)
and pow_fits nterms n =
  let rec go acc i = if i = 0 then true
    else if acc > expand_term_limit then false
    else go (acc * nterms) (i - 1)
  in
  go 1 n

(* Greatest common surely-positive factor of the terms of a sum:
   [Some (common, residual)] with [add ts = mul [common; residual]] and
   [common <> 1].  Only bases that are syntactically positive
   ([surely_pos]) and carry rational exponents everywhere they appear
   participate; a base absent from a term counts as exponent 0 there, so
   a base whose minimum exponent is negative factors out as a common
   denominator (clearing it from every term).  Together with the hooks
   in [pow] and [log] this is what lets the normal form identify e.g. a
   max-shifted softmax with its naive form:
     exp(x-m) / (exp(x-m) + exp(y-m))  -->  exp(x) / (exp(x) + exp(y)) *)
and factor_pos_common ts =
  match ts with
  | [] | [ _ ] -> None
  | _ ->
      let factor_exps term =
        let _, rest = split_coeff term in
        List.map as_base_exp (factors rest)
      in
      let per_term = List.map factor_exps ts in
      (* rational exponent of [b] in a term's factor list; absent -> 0,
         symbolic exponent -> None (base cannot participate) *)
      let exp_of b fs =
        match List.find_opt (fun (b', _) -> equal b b') fs with
        | None -> Some Q.zero
        | Some (_, Rat q) -> Some q
        | Some (_, _) -> None
      in
      let candidates =
        List.concat_map (List.map fst) per_term
        |> List.sort_uniq compare
        |> List.filter (fun b ->
               (match b with Rat _ -> false | _ -> true) && surely_pos b)
      in
      let min_exp b =
        List.fold_left
          (fun acc fs ->
            match (acc, exp_of b fs) with
            | Some m, Some q -> Some (if Q.compare q m < 0 then q else m)
            | _ -> None)
          (exp_of b (List.hd per_term))
          (List.tl per_term)
      in
      let pulled =
        List.filter_map
          (fun b ->
            match min_exp b with
            | Some m when Q.sign m <> 0 -> Some (b, m)
            | _ -> None)
          candidates
      in
      if pulled = [] then None
      else
        let common = mul (List.map (fun (b, m) -> pow b (rat m)) pulled) in
        let inv = List.map (fun (b, m) -> pow b (rat (Q.neg m))) pulled in
        let residual = add (List.map (fun t -> mul (t :: inv)) ts) in
        Some (common, residual)

(* Exact rational root: qb^qe for fractional qe, when num and den of qb
   have exact integer roots. *)
and rat_root qb qe =
  let iroot x r =
    if x < 0 then None
    else if x <= 1 then Some x (* 0^r = 0, 1^r = 1 for any r *)
    else if r >= 63 then None (* any root >= 2 overflows g^r past int *)
    else
      let guess = int_of_float (Float.round (Float.pow (float_of_int x) (1. /. float_of_int r))) in
      let candidates = [ guess - 1; guess; guess + 1 ] in
      List.find_opt
        (fun g ->
          (* x >= 2 forces g >= 2, so the power loop runs at most r < 63
             steps and bails as soon as it passes x — without this bound
             a denominator like 10^10 (from a float constant such as
             1e-10) made the verification loop for that many steps. *)
          g >= 2
          &&
          let rec p acc i =
            if i = 0 then acc
            else if acc > x / g then x + 1 (* acc*g > x; g^r only grows *)
            else p (acc * g) (i - 1)
          in
          p 1 r = x)
        candidates
  in
  if Q.sign qb < 0 then None
  else
    let p = Q.num qe and r = Q.den qe in
    match (iroot (Q.num qb) r, iroot (Q.den qb) r) with
    | Some rn, Some rd -> Some (Q.pow_int (Q.make rn rd) p)
    | _ -> None

let sub a b = add [ a; mul [ rat Q.minus_one; b ] ]
let neg a = mul [ rat Q.minus_one; a ]
let div a b = mul [ a; pow b (rat Q.minus_one) ]
let sqrt a = pow a (rat Q.half)

let rec exp e =
  match e with
  | Rat q when Q.is_zero q -> one
  | App (Log, [ x ]) -> x
  | Add ts -> mul (List.map exp ts)
  | Mul (Rat q :: fs) when not (Q.is_one q) ->
      pow (exp (mul fs)) (rat q)
  | _ -> App (Exp, [ e ])

let rec log e =
  match e with
  | Rat q when Q.is_one q -> zero
  | App (Exp, [ x ]) -> x
  | Mul fs -> add (List.map log fs)
  | Pow (b, ex) -> mul [ ex; log b ]
  | Add ts -> (
      (* log(c * r) = log c + log r for the common surely-positive
         factor c of the sum; identifies stable logsumexp with its
         naive form (the log pulls the exp(-m) shift back out). *)
      match factor_pos_common ts with
      | Some (common, residual) -> add [ log common; log residual ]
      | None -> App (Log, [ e ]))
  | _ -> App (Log, [ e ])

let rec max2 a b =
  let args = function App (Max, xs) -> xs | x -> [ x ] in
  let xs = List.sort_uniq compare (args a @ args b) in
  match xs with
  | [ x ] -> x
  | [ Rat p; Rat q ] -> rat (if Q.compare p q >= 0 then p else q)
  | xs -> (
      (* max(c + u, c + v) = c + max(u, v): additive terms common to
         every argument shift out of the max (max-shift invariance).
         Term lists are kept sorted so common terms are a sorted-list
         intersection and removal is a sorted-list difference. *)
      let term_lists = List.map (fun x -> List.sort compare (terms x)) xs in
      let inter2 ts us =
        let rec go ts us acc =
          match (ts, us) with
          | [], _ | _, [] -> List.rev acc
          | t :: ts', u :: us' ->
              let c = compare t u in
              if c = 0 then go ts' us' (t :: acc)
              else if c < 0 then go ts' us acc
              else go ts us' acc
        in
        go ts us []
      in
      let common =
        match term_lists with
        | t0 :: rest -> List.fold_left inter2 t0 rest
        | [] -> []
      in
      match common with
      | [] -> App (Max, xs)
      | _ ->
          let rec diff ts cs =
            match (ts, cs) with
            | ts, [] -> ts
            | [], _ -> []
            | t :: ts', c :: cs' ->
                let k = compare t c in
                if k = 0 then diff ts' cs'
                else if k < 0 then t :: diff ts' cs
                else diff ts cs'
          in
          let residuals =
            List.map (fun ts -> add (diff ts common)) term_lists
          in
          let shifted =
            match residuals with
            | r :: rest -> List.fold_left max2 r rest
            | [] -> assert false
          in
          add (common @ [ shifted ]))

let less a b =
  match (a, b) with
  | Rat p, Rat q -> if Q.compare p q < 0 then one else zero
  | _ -> if equal a b then zero else App (Less, [ a; b ])

let where c a b =
  (* Nested selections on the same condition collapse to the branch the
     condition selects. *)
  let a = match a with App (Where, [ c'; x; _ ]) when equal c c' -> x | _ -> a in
  let b = match b with App (Where, [ c'; _; y ]) when equal c c' -> y | _ -> b in
  match c with
  | Rat q -> if Q.is_zero q then b else a
  | App (Less, [ x; y ]) when equal x b && equal y a ->
      (* where(x < y, y, x) = max(x, y) *)
      max2 x y
  | _ -> if equal a b then a else App (Where, [ c; a; b ])

let rec vars t =
  match t with
  | Rat _ -> Sym.Set.empty
  | Var s -> Sym.Set.singleton s
  | Add xs | Mul xs | App (_, xs) ->
      List.fold_left (fun acc x -> Sym.Set.union acc (vars x)) Sym.Set.empty xs
  | Pow (b, e) -> Sym.Set.union (vars b) (vars e)

let rec var_bases t tbl =
  match t with
  | Rat _ -> ()
  | Var s -> Hashtbl.replace tbl (Sym.base s) ()
  | Add xs | Mul xs | App (_, xs) -> List.iter (fun x -> var_bases x tbl) xs
  | Pow (b, e) ->
      var_bases b tbl;
      var_bases e tbl

let base_names t =
  let tbl = Hashtbl.create 8 in
  var_bases t tbl;
  Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort String.compare

let rec singular = function
  | Rat _ | Var _ -> false
  | Pow (Rat q, _) when Q.is_zero q -> true
  | Add xs | Mul xs | App (_, xs) -> List.exists singular xs
  | Pow (b, e) -> singular b || singular e

(* Inverting a product turns a factor [sum^-q] into [sum^q], which the
   normal form expands against the other factors.  Products and
   quotients expand no other sum in a way that loses symbols: the
   reciprocal of a sum expands nothing, and a product distributes over
   a sum term by term without reducing the fractions inside the terms. *)
let may_cancel e =
  let reciprocal_sum = function
    | Pow (Add _, Rat q) -> Q.sign q < 0
    | _ -> false
  in
  singular e
  ||
  match e with
  | Mul fs -> List.exists reciprocal_sum fs
  | f -> reciprocal_sum f

let rec size t =
  match t with
  | Rat _ | Var _ -> 1
  | Add xs | Mul xs | App (_, xs) ->
      List.fold_left (fun acc x -> acc + size x) 1 xs
  | Pow (b, e) -> 1 + size b + size e

(* Map from negative-power bases to their most negative exponent. *)
let neg_pow_map t =
  let tbl = Tbl.create 8 in
  let note b q =
    match Tbl.find_opt tbl b with
    | Some q' when Q.compare q' q <= 0 -> ()
    | _ -> Tbl.replace tbl b q
  in
  let rec go t =
    match t with
    | Rat _ | Var _ -> ()
    | Add xs | Mul xs | App (_, xs) -> List.iter go xs
    | Pow (b, e) ->
        (match e with
        | Rat q when Q.sign q < 0 -> note b q
        | _ -> ());
        go b;
        go e
  in
  go t;
  tbl

(* Multivariate polynomial long division: repeatedly eliminate the
   dividend's leading term against the divisor's leading term.  The
   structural term order is not a strict admissible monomial order, so a
   step cap guards termination; failure just means "not exactly
   divisible as far as we can tell", which is sound for the solver. *)
let rec poly_div_exact a b =
  (* The leading term is the one with the largest coefficient-free
     monomial (comparing whole terms would let numeric coefficient heads
     scramble the order); eliminating against it reduces the dividend
     instead of inflating its degree. *)
  let leading ts =
    match ts with
    | [] -> invalid_arg "poly_div_exact"
    | t0 :: rest ->
        List.fold_left
          (fun best t ->
            let _, rb = split_coeff best and _, rt = split_coeff t in
            if compare rt rb > 0 then t else best)
          t0 rest
  in
  let b_terms = terms b in
  match b_terms with
  | [] | [ _ ] -> None
  | _ ->
      let b_lead = leading b_terms in
      let coeff_ok t =
        let q, _ = split_coeff t in
        abs (Q.num q) < 1_000_000_000 && Q.den q < 1_000_000_000
      in
      let steps = ref 0 in
      let rec go remainder quotient =
        incr steps;
        if is_zero remainder then Some (add quotient)
        else if !steps > 200 then None
        else
          let r_lead = leading (terms remainder) in
          match simple_div_exact r_lead b_lead with
          | None -> None
          | Some q ->
              if not (List.for_all coeff_ok (terms q)) then None
              else
                let remainder' = sub remainder (mul [ q; b ]) in
                (* progress check: the leading term must actually cancel
                   or a non-admissible order could loop *)
                if equal remainder' remainder then None
                else go remainder' (q :: quotient)
      in
      go a []

and simple_div_exact a b =
  if is_zero b then None
  else
    let q = div a b in
    let before = neg_pow_map a and after = neg_pow_map q in
    let ok =
      Tbl.fold
        (fun base qexp acc ->
          acc
          &&
          match Tbl.find_opt before base with
          | Some q0 -> Q.compare qexp q0 >= 0
          | None -> false)
        after true
    in
    if ok then Some q else None

let rec mentions s = function
  | Rat _ -> false
  | Var s' -> Sym.equal s s'
  | Add xs | Mul xs | App (_, xs) -> List.exists (mentions s) xs
  | Pow (b, e) -> mentions s b || mentions s e

(* [simple_div_exact t (Var s)] for a term [t] (not a sum), answered by
   lowering [s]'s exponent among [t]'s factors.  [Some r] is that
   answer; [None] leaves the case to the general path: a sum, a
   non-rational or resulting negative exponent of [s], or an [s] below
   the top level.  Every other factor, and so every other base's
   negative exponent, is unchanged: the quotient is exact exactly when
   [s]'s new exponent is not negative, and when [t] does not mention
   [s] at all it is not. *)
let div_symbol_exact t s =
  match t with
  | Add _ -> None
  | Rat q -> Some (if Q.is_zero q then Some zero else None)
  | _ -> (
      let coeff, rest = split_coeff t in
      let fs = factors rest in
      let is_s f =
        match as_base_exp f with Var s', _ -> Sym.equal s s' | _ -> false
      in
      match List.partition is_s fs with
      | [], _ -> if mentions s t then None else Some None
      | [ f ], others -> (
          match as_base_exp f with
          | base, Rat q when Q.compare q Q.one >= 0 ->
              let q = Q.sub q Q.one in
              let others =
                if Q.is_zero q then others
                else
                  let f = if Q.is_one q then base else Pow (base, rat q) in
                  List.merge compare [ f ] others
              in
              let rest =
                match others with [] -> one | [ f ] -> f | fs -> Mul fs
              in
              Some (Some (mk_term coeff rest))
          | _ -> None)
      | _ -> None)

let div_exact_unguarded a b =
  let by_symbol = match b with Var s -> div_symbol_exact a s | _ -> None in
  match by_symbol with
  | Some r -> r
  | None -> (
      match simple_div_exact a b with
      | Some q -> Some q
      | None -> (
          match b with
          | Add _ -> (
              match poly_div_exact a b with
              | Some q ->
                  (* long division is exact by construction, but re-verify
                     through the normal form out of caution *)
                  if equal (mul [ q; b ]) a then Some q else None
              | None -> None)
          | Rat _ | Var _ | Mul _ | Pow _ | App _ -> None))

let div_exact a b =
  (* Coefficient overflow during division just means "cannot decide":
     fail soft. *)
  match div_exact_unguarded a b with
  | exception Q.Overflow -> None
  | r -> r

(* Fractional-power bases (exponent not an integer). *)
let frac_pow_bases t =
  let tbl = Tbl.create 8 in
  let rec go t =
    match t with
    | Rat _ | Var _ -> ()
    | Add xs | Mul xs | App (_, xs) -> List.iter go xs
    | Pow (b, e) ->
        (match e with
        | Rat q when not (Q.is_integer q) -> Tbl.replace tbl b ()
        | Rat _ -> ()
        | _ -> Tbl.replace tbl b ());
        go b;
        go e
  in
  go t;
  tbl

let root_exact e q =
  if Q.is_zero q || (is_zero e && Q.sign q < 0) then None
  else try
    match pow e (rat (Q.inv q)) with
    | exception Invalid_argument _ -> None
    | r ->
    if not (equal (pow r (rat q)) e) then None
    else
      let before = frac_pow_bases e and after = frac_pow_bases r in
      let ok =
        Tbl.fold
          (fun base () acc -> acc && Tbl.mem before base)
          after true
      in
      if ok then Some r else None
  with Q.Overflow -> None

let linear_coeff e x =
  let exception Nonlinear in
  try
    let coeffs = ref [] and rest = ref [] in
    List.iter
      (fun term ->
        let q, r = split_coeff term in
        let fs = factors r in
        let with_x, without_x =
          List.partition
            (fun f ->
              let b, _ = as_base_exp f in
              match b with Var s -> Sym.equal s x | _ -> false)
            fs
        in
        match with_x with
        | [] ->
            if Sym.Set.mem x (vars term) then raise Nonlinear
            else rest := term :: !rest
        | [ f ] ->
            let _, ex = as_base_exp f in
            if not (is_one ex) then raise Nonlinear;
            let remainder = mk_term q (mul without_x) in
            if Sym.Set.mem x (vars remainder) then raise Nonlinear;
            coeffs := remainder :: !coeffs
        | _ -> raise Nonlinear)
      (terms e);
    Some (add !coeffs, add !rest)
  with Nonlinear | Q.Overflow -> None

let rec eval env t =
  match t with
  | Rat q -> Q.to_float q
  | Var s -> env s
  | Add xs -> List.fold_left (fun acc x -> acc +. eval env x) 0. xs
  | Mul xs -> List.fold_left (fun acc x -> acc *. eval env x) 1. xs
  | Pow (b, e) -> Float.pow (eval env b) (eval env e)
  | App (Exp, [ x ]) -> Float.exp (eval env x)
  | App (Log, [ x ]) -> Float.log (eval env x)
  | App (Max, xs) ->
      List.fold_left (fun acc x -> Float.max acc (eval env x)) neg_infinity xs
  | App (Less, [ a; b ]) -> if eval env a < eval env b then 1. else 0.
  | App (Where, [ c; a; b ]) ->
      if eval env c <> 0. then eval env a else eval env b
  | App ((Exp | Log | Less | Where), _) ->
      invalid_arg "Expr.eval: malformed application"

let rec subst f t =
  match t with
  | Rat _ -> t
  | Var s -> ( match f s with Some e -> e | None -> t)
  | Add xs -> add (List.map (subst f) xs)
  | Mul xs -> mul (List.map (subst f) xs)
  | Pow (b, e) -> pow (subst f b) (subst f e)
  | App (Exp, [ x ]) -> exp (subst f x)
  | App (Log, [ x ]) -> log (subst f x)
  | App (Max, xs) -> (
      match List.map (subst f) xs with
      | [] -> invalid_arg "Expr.subst: empty max"
      | x :: rest -> List.fold_left max2 x rest)
  | App (Less, [ a; b ]) -> less (subst f a) (subst f b)
  | App (Where, [ c; a; b ]) -> where (subst f c) (subst f a) (subst f b)
  | App ((Exp | Log | Less | Where), _) ->
      invalid_arg "Expr.subst: malformed application"

let fn_name = function
  | Exp -> "exp"
  | Log -> "log"
  | Max -> "max"
  | Less -> "less"
  | Where -> "where"

let rec render buf t =
  let str = Buffer.add_string buf in
  let list sep xs =
    List.iteri
      (fun i x ->
        if i > 0 then str sep;
        render buf x)
      xs
  in
  match t with
  | Rat q -> str (Q.to_string q)
  | Var s -> str (Sym.to_string s)
  | Add ts -> str "("; list " + " ts; str ")"
  | Mul fs -> str "("; list "*" fs; str ")"
  | Pow (b, e) -> render buf b; str "^"; render buf e
  | App (f, xs) -> str (fn_name f); str "("; list ", " xs; str ")"

let to_string t =
  let buf = Buffer.create 64 in
  render buf t;
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string t)

module Reference = struct
  let add = add_general
  let mul = mul_general

  let div_exact a b =
    match simple_div_exact a b with
    | exception Q.Overflow -> None
    | r -> r
end

module Intern = struct
  type table = t Tbl.t

  let create () : table = Tbl.create 4096

  let share tbl t =
    match Tbl.find_opt tbl t with
    | Some shared -> shared
    | None ->
        Tbl.add tbl t t;
        t

  (* Products and powers, alone or as the terms of a sum, are what
     separately built values repeat (the products of a contraction recur
     in every value built on it); constants and symbols are shared
     already. *)
  let intern tbl t =
    match t with
    | Add ts ->
        let ts' =
          List.map (function (Mul _ | Pow _) as u -> share tbl u | u -> u) ts
        in
        if List.equal ( == ) ts ts' then t else Add ts'
    | Mul _ | Pow _ -> share tbl t
    | Rat _ | Var _ | App _ -> t
end
