module Ast = Dsl.Ast
module Types = Dsl.Types
module St = Dsl.Sexec.Stensor
module Shape = Tensor.Shape
module Expr = Symbolic.Expr
module Q = Symbolic.Q
module Sym = Symbolic.Sym

type part = P_hole of Spec.t | P_conc of Stub.t
type decomposition = { op : Ast.op; parts : part list }

(* Sums and additive splits are only offered for at most this many terms
   per element. *)
let max_split_terms = 64

let hole_specs d =
  List.filter_map (function P_hole s -> Some s | P_conc _ -> None) d.parts

let conc_cost d =
  List.fold_left
    (fun acc p ->
      match p with P_conc s -> acc +. s.Stub.cost | P_hole _ -> acc)
    0. d.parts

let reconstruct d progs =
  let progs = ref progs in
  let args =
    List.map
      (fun p ->
        match p with
        | P_conc s -> s.Stub.prog
        | P_hole _ -> (
            match !progs with
            | p :: rest ->
                progs := rest;
                p
            | [] -> invalid_arg "Invert.reconstruct: not enough programs"))
      d.parts
  in
  Ast.App (d.op, args)

let pp ppf d =
  let part ppf = function
    | P_hole s -> Format.fprintf ppf "??%a" Shape.pp (Spec.shape s)
    | P_conc s -> Ast.pp ppf s.Stub.prog
  in
  Format.fprintf ppf "%s(%a)" (Ast.op_name d.op)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       part)
    d.parts

(* ------------------------------------------------------------------ *)
(* Elementwise helpers                                                 *)
(* ------------------------------------------------------------------ *)

exception No_solution

(* Elementwise combination under broadcasting where the combiner may
   fail; [None] when any element fails. *)
let map2_opt f a b =
  match
    St.map2
      (fun x y -> match f x y with Some v -> v | None -> raise No_solution)
      a b
  with
  | t -> Some t
  | exception (No_solution | Q.Overflow) -> None

(* Does [c]'s shape broadcast to exactly the spec shape? *)
let fits_within c_shape spec_shape =
  match Shape.broadcast c_shape spec_shape with
  | Some s -> Shape.equal s spec_shape
  | None -> false

(* ------------------------------------------------------------------ *)
(* The var-set bound on elementwise holes                              *)
(* ------------------------------------------------------------------ *)

(* What a budgeted call knows about the spec: its elements, their symbol
   sets and its complexity. *)
type frame = {
  elems : Expr.t array;
  evars : Sym.Set.t array;
  may_cancel : bool array;
  cx : float;
}

let element_vars t = Array.map Expr.vars (St.unsafe_data t)

let frame spec ~complexity =
  let elems = St.unsafe_data spec in
  {
    elems;
    evars = element_vars spec;
    may_cancel = Array.map Expr.may_cancel elems;
    cx = complexity;
  }

(* Offset of the operand element each spec element broadcasts from. *)
let broadcast_from c_shape spec_shape =
  if Shape.equal c_shape spec_shape then Fun.id
  else if Shape.numel c_shape = 1 then fun _ -> 0
  else begin
    let offs = Array.make (Shape.numel spec_shape) 0 in
    let i = ref 0 in
    Shape.iter_indices spec_shape (fun idx ->
        offs.(!i) <- Shape.broadcast_offset c_shape idx;
        incr i);
    fun i -> offs.(i)
  end

(* |a Δ b| without building the difference. *)
let sym_diff_card a b =
  let only x y =
    Sym.Set.fold (fun v k -> if Sym.Set.mem v y then k else k + 1) x 0
  in
  only a b + only b a

(* A variable in exactly one of [spec_i] and [c_i] cannot cancel, so it
   survives in hole element i, which is then nonzero.  For the
   multiplicative sketches an element where either operand is zero or
   may cancel a symbol it shows ({!Expr.may_cancel}: a [0^q] atom, or a
   factor that is a sum under a negative power) decides nothing and is
   not counted. *)
let counted_mult f (cel : Expr.t array) at i =
  not
    (Expr.is_zero f.elems.(i) || f.may_cancel.(i)
    || Expr.is_zero cel.(at i) || Expr.may_cancel cel.(at i))

(* The float expression of [Sexec.complexity]: on counts that never
   exceed the hole's own it never exceeds the hole's complexity, since
   rounding is monotone. *)
let complexity_of ~total ~nonzero n =
  let n = float_of_int n in
  float_of_int total /. n *. (float_of_int nonzero /. n)

(* The additive and the multiplicative bound of one operand, in one pass. *)
let var_bounds f (c : Stub.operand) at =
  let n = Array.length f.elems in
  if n = 0 then (0., 0.)
  else begin
    let cel = St.unsafe_data c.stub.sem in
    let add_total = ref 0 and add_nonzero = ref 0 in
    let mul_total = ref 0 and mul_nonzero = ref 0 in
    for i = 0 to n - 1 do
      let d = sym_diff_card f.evars.(i) c.elem_vars.(at i) in
      if d > 0 then begin
        add_total := !add_total + d;
        incr add_nonzero;
        if counted_mult f cel at i then begin
          mul_total := !mul_total + d;
          incr mul_nonzero
        end
      end
    done;
    ( complexity_of ~total:!add_total ~nonzero:!add_nonzero n,
      complexity_of ~total:!mul_total ~nonzero:!mul_nonzero n )
  end

(* An elementwise hole the bound places at or above the spec's
   complexity fails the simplification test ([add], [sub], [mul] and
   [div] never tie structurally): such a sketch family is skipped. *)
let skip_families f c at =
  let additive, multiplicative = var_bounds f c at in
  (additive >= f.cx, multiplicative >= f.cx)

let hole_bound ~multiplicative spec c =
  let f = frame spec ~complexity:0. in
  let op =
    { Stub.stub = c; vars = Sym.Set.empty; elem_vars = element_vars c.Stub.sem }
  in
  let additive, mult =
    var_bounds f op (broadcast_from (St.shape c.sem) (St.shape spec))
  in
  if multiplicative then mult else additive

(* ------------------------------------------------------------------ *)
(* One-hole elementwise sketches                                       *)
(* ------------------------------------------------------------------ *)

(* [skip_add] rules out the three additive sketches ([add(??,c)],
   [sub(??,c)], [sub(c,??)]) and [skip_mul] the three multiplicative
   ones ([mul(??,c)], [div(??,c)], [div(c,??)]) before their holes are
   built; [power] and [maximum] are always built. *)
let elementwise_candidates ~skip_add ~skip_mul (conc : Stub.t) spec =
  let c = conc.Stub.sem in
  let mk op parts = { op; parts } in
  let hole_first op h = mk op [ P_hole h; P_conc conc ] in
  let hole_second op h = mk op [ P_conc conc; P_hole h ] in
  let out = ref [] in
  let push d = out := d :: !out in
  if not skip_add then begin
    (* add(??, c) — also covers add(c, ??) by commutativity. *)
    let h = St.sub spec c in
    push (hole_first Ast.Add h);
    (* sub(??, c) and sub(c, ??), whose hole c - spec is -h. *)
    push (hole_first Ast.Sub (St.add spec c));
    push (hole_second Ast.Sub (St.neg h))
  end;
  if not skip_mul then begin
    (* mul(??, c): exact division. *)
    (match map2_opt Expr.div_exact spec c with
    | Some h -> push (hole_first Ast.Mul h)
    | None -> ());
    (* div(??, c). *)
    push (hole_first Ast.Div (St.mul spec c));
    (* div(c, ??): c / spec must be exact. *)
    match map2_opt Expr.div_exact c spec with
    | Some h -> push (hole_second Ast.Div h)
    | None -> ()
  end;
  (* power(??, q) for a scalar rational exponent; q = 1 would give the
     spec itself as the hole. *)
  (match Spec.to_const c with
  | Some q when not (Q.is_zero q || Q.is_one q) && St.numel c = 1 -> (
      match
        map2_opt (fun e _ -> Expr.root_exact e q) spec c
      with
      | Some h -> push (hole_first Ast.Pow_op h)
      | None -> ())
  | _ -> ());
  (* power(c, ??): consistent exponent extraction. *)
  (let exponent_of ce fe =
     if Expr.equal ce fe then Some Q.one
     else
       match (ce, fe) with
       | _, Expr.Pow (b, Expr.Rat n) when Expr.equal b ce -> Some n
       | Expr.Pow (b1, Expr.Rat m), Expr.Pow (b2, Expr.Rat n)
         when Expr.equal b1 b2 && not (Q.is_zero m) ->
           Some (Q.div n m)
       | _ -> None
   in
   let exps =
     try
       Some
         (St.map2
            (fun ce fe ->
              match exponent_of ce fe with
              | Some q -> Expr.rat q
              | None -> raise No_solution)
            c spec)
     with No_solution | Invalid_argument _ | Q.Overflow -> None
   in
   match exps with
   | Some e -> (
       match Spec.is_uniform e with
       | Some expq when not (Expr.is_one expq) ->
           push (hole_second Ast.Pow_op (Spec.scalar expq))
       | _ -> ())
   | None -> ());
  (* maximum(??, c): strip c from a max application. *)
  (let strip ce fe =
     match fe with
     | Expr.App (Expr.Max, xs) when List.exists (Expr.equal ce) xs -> (
         match List.filter (fun x -> not (Expr.equal ce x)) xs with
         | [] -> Some ce
         | [ x ] -> Some x
         | x :: rest -> Some (List.fold_left Expr.max2 x rest))
     | _ when Expr.equal ce fe -> Some ce
     | _ -> None
   in
   match map2_opt strip c spec with
   | Some h -> push (hole_first Ast.Maximum h)
   | None -> ());
  !out

(* ------------------------------------------------------------------ *)
(* Unary sketches                                                      *)
(* ------------------------------------------------------------------ *)

let unary_candidates spec =
  let out = ref [] in
  let push op h = out := { op; parts = [ P_hole h ] } :: !out in
  (* Squaring expands sums, after which the normal form cannot always
     recognize the square root again; only offer the sketch when the
     round trip is structurally exact. *)
  (match St.map (fun e -> Expr.pow e (Expr.int 2)) spec with
  | squared -> if St.equal (St.sqrt squared) spec then push Ast.Sqrt squared
  | exception Q.Overflow -> ());
  push Ast.Exp (St.log spec);
  push Ast.Log (St.exp spec);
  if Shape.rank (St.shape spec) >= 2 then
    push (Ast.Transpose None) (St.transpose spec);
  !out

(* ------------------------------------------------------------------ *)
(* Sum splitting                                                       *)
(* ------------------------------------------------------------------ *)

(* Uniform term count across all elements, or None. *)
let uniform_term_count spec =
  let arr = St.to_array spec in
  if Array.length arr = 0 then None
  else
    let count e = List.length (Expr.terms e) in
    let t = count arr.(0) in
    if t >= 2 && Array.for_all (fun e -> count e = t) arr then Some t
    else None

let sum_axis_candidates spec =
  match uniform_term_count spec with
  | Some t when t <= max_split_terms ->
      let s = St.shape spec in
      List.init
        (Shape.rank s + 1)
        (fun axis ->
          let hole_shape = Shape.insert_axis s axis t in
          let hole =
            St.init hole_shape (fun idx ->
                let j = idx.(axis) in
                let src = Shape.remove_axis idx axis in
                List.nth (Expr.terms (St.get spec src)) j)
          in
          (* Resulting axis in the original rank: summing [hole] over
             [axis] restores the spec. *)
          { op = Ast.sum_op (Some axis); parts = [ P_hole hole ] })
  | _ -> []

let divisor_pairs t =
  let rec go d acc =
    if d > t then acc
    else if t mod d = 0 then go (d + 1) ((d, t / d) :: acc)
    else go (d + 1) acc
  in
  go 2 []

let sum_all_candidates spec =
  if Shape.rank (St.shape spec) <> 0 then []
  else
    match uniform_term_count spec with
    | Some t when t <= max_split_terms ->
        let terms = Expr.terms (St.get spec [||]) in
        let arr = Array.of_list terms in
        let flat =
          { op = Ast.sum_op None; parts = [ P_hole (St.of_array [| t |] arr) ] }
        in
        let matrices =
          List.filter_map
            (fun (r, c) ->
              if r = t then None
              else Some { op = Ast.sum_op None;
                          parts = [ P_hole (St.of_array [| r; c |] arr) ] })
            (divisor_pairs t)
        in
        flat :: matrices
    | _ -> []

(* ------------------------------------------------------------------ *)
(* Contractions: dot and tensordot                                     *)
(* ------------------------------------------------------------------ *)

(* The concrete operand of a contraction inversion must consist of
   distinct symbols so coefficients are well-defined. *)
let distinct_symbols c =
  let seen = ref Sym.Set.empty in
  Array.for_all
    (function
      | Expr.Var s when not (Sym.Set.mem s !seen) ->
          seen := Sym.Set.add s !seen;
          true
      | _ -> false)
    (St.unsafe_data c)

(* Solve [phi = sum_j H_j * c_j] for the vector (H_j) by successive
   linear-coefficient extraction; every coefficient must be free of the
   contraction symbols and the remainder must vanish. *)
let linear_solve_element phi (csyms : Sym.t array) =
  let cset = Array.fold_right Sym.Set.add csyms Sym.Set.empty in
  let rest = ref phi in
  let coeffs =
    Array.map
      (fun s ->
        match Expr.linear_coeff !rest s with
        | None -> raise No_solution
        | Some (c, r) ->
            if not (Sym.Set.is_empty (Sym.Set.inter (Expr.vars c) cset)) then
              raise No_solution;
            rest := r;
            c)
      csyms
  in
  if Expr.is_zero !rest then coeffs else raise No_solution

(* Fallback for specs nonlinear in the contraction symbols (e.g. the
   quadratic form x^T A x): assign each term of phi to one contraction
   index by exact division.  Ambiguous terms prefer the index whose
   quotient contains a symbol with matching leading index — the
   heuristic that recovers H = A@x from x_i * A_ij * x_j.  The caller
   verifies the assignment by reconstruction. *)
let assign_solve_element phi (csyms : Sym.t array) =
  let n = Array.length csyms in
  let buckets = Array.make n [] in
  List.iter
    (fun term ->
      let candidates =
        List.filter_map
          (fun j ->
            match Expr.div_exact term (Expr.var csyms.(j)) with
            | Some q -> Some (j, q)
            | None -> None)
          (List.init n Fun.id)
      in
      let chosen =
        match candidates with
        | [] -> raise No_solution
        | [ c ] -> Some c
        | cands -> (
            let aligned =
              List.filter
                (fun (j, q) ->
                  Sym.Set.exists
                    (fun s ->
                      Array.length s.Sym.indices > 0 && s.Sym.indices.(0) = j)
                    (Expr.vars q))
                cands
            in
            match aligned with a :: _ -> Some a | [] -> Some (List.hd cands))
      in
      match chosen with
      | Some (j, q) -> buckets.(j) <- q :: buckets.(j)
      | None -> raise No_solution)
    (Expr.terms phi);
  Array.map (fun ts -> Expr.add ts) buckets

let linear_or_assign phi csyms =
  try linear_solve_element phi csyms
  with No_solution -> assign_solve_element phi csyms

(* The hole of a contraction sketch, element by element: at spec index
   [idx] the contraction symbols are [c]'s elements at [c_at idx j]
   ([j < k]), [solve] gives one coefficient per symbol, and coefficient
   [j] fills the hole at [h_at idx j] — an element reached twice must
   get the same coefficient.  The hole is kept only if [rebuild hole]
   reproduces the spec. *)
let solve_contraction ~solve spec c ~k ~hole_shape ~c_at ~h_at ~rebuild =
  try
    let hole = St.create hole_shape Expr.zero in
    let seen = Hashtbl.create 16 in
    Shape.iter_indices (St.shape spec) (fun idx ->
        let csyms =
          Array.init k (fun j ->
              match St.get c (c_at idx j) with
              | Expr.Var v -> v
              | _ -> raise No_solution)
        in
        Array.iteri
          (fun j coeff ->
            let hidx = h_at idx j in
            match Hashtbl.find_opt seen hidx with
            | Some prev ->
                if not (Expr.equal prev coeff) then raise No_solution
            | None ->
                Hashtbl.replace seen (Array.copy hidx) coeff;
                St.set hole hidx coeff)
          (solve (St.get spec idx) csyms));
    if St.equal (rebuild hole) spec then Some hole else None
  with No_solution | Invalid_argument _ | Q.Overflow -> None

(* The contraction sketches of a concrete operand [c] of rank >= 1
   with distinct symbols, in this order:
   - [dot(??, c)]: spec = H[:-1] ++ (c minus its contraction axis),
     solved whole by linear extraction and then by term assignment, the
     second kept only when its hole differs;
   - [dot(c, ??)]: spec = c[:-1] ++ H[1:], for a hole of rank 1 or 2;
   - [tensordot(c, ??, ([0],[0]))]: spec = c[1:] ++ H[1:];
   - [tensordot(??, c, ([0],[0]))]: spec = H[1:] ++ c[1:].
   The last three fall back from linear extraction to term assignment
   element by element. *)
let contraction_candidates spec (conc : Stub.t) =
  let c = conc.Stub.sem in
  let cs = St.shape c and s = St.shape spec in
  let c_rest = Shape.rank cs - 1 in
  let nl = Shape.rank s - c_rest in
  if c_rest < 0 || nl < 0 || not (distinct_symbols c) then []
  else
    let sketch ?(solve = linear_or_assign) op parts ~k ~hole_shape ~c_at ~h_at
        rebuild =
      match
        solve_contraction ~solve spec c ~k ~hole_shape ~c_at ~h_at ~rebuild
      with
      | Some h -> [ { op; parts = parts (P_hole h) } ]
      | None -> []
    in
    let hole_first h = [ h; P_conc conc ]
    and hole_second h = [ P_conc conc; h ] in
    let dot_left =
      let axis = max 0 (c_rest - 1) in
      if not (Shape.equal (Array.sub s nl c_rest) (Shape.remove_axis cs axis))
      then []
      else
        let k = cs.(axis) in
        let solved solve =
          sketch ~solve Ast.Dot hole_first ~k
            ~hole_shape:(Array.append (Array.sub s 0 nl) [| k |])
            ~c_at:(fun idx j ->
              Shape.insert_axis (Array.sub idx nl c_rest) axis j)
            ~h_at:(fun idx j -> Array.append (Array.sub idx 0 nl) [| j |])
            (fun h -> St.dot h c)
        in
        (* On a spec linear in [c] both strategies find the same hole. *)
        match (solved linear_solve_element, solved assign_solve_element) with
        | [ l ], [ a ] when List.equal Spec.equal (hole_specs l) (hole_specs a)
          ->
            [ l ]
        | ls, als -> ls @ als
    in
    let dot_right =
      let k = cs.(c_rest) in
      if
        nl > 1
        || not (Shape.equal (Array.sub s 0 c_rest) (Array.sub cs 0 c_rest))
      then []
      else
        sketch Ast.Dot hole_second ~k
          ~hole_shape:(Array.append [| k |] (Array.sub s c_rest nl))
          ~c_at:(fun idx j -> Array.append (Array.sub idx 0 c_rest) [| j |])
          ~h_at:(fun idx j -> Array.append [| j |] (Array.sub idx c_rest nl))
          (fun h -> St.dot c h)
    in
    let k = cs.(0) and td = Ast.Tensordot ([ 0 ], [ 0 ]) in
    let tensordot a b = St.tensordot a b ~axes_a:[ 0 ] ~axes_b:[ 0 ] in
    let c_tail = Array.sub cs 1 c_rest in
    let tensordot_right =
      if not (Shape.equal (Array.sub s 0 c_rest) c_tail) then []
      else
        sketch td hole_second ~k
          ~hole_shape:(Array.append [| k |] (Array.sub s c_rest nl))
          ~c_at:(fun idx j -> Array.append [| j |] (Array.sub idx 0 c_rest))
          ~h_at:(fun idx j -> Array.append [| j |] (Array.sub idx c_rest nl))
          (fun h -> tensordot c h)
    in
    let tensordot_left =
      if not (Shape.equal (Array.sub s nl c_rest) c_tail) then []
      else
        sketch td hole_first ~k
          ~hole_shape:(Array.append [| k |] (Array.sub s 0 nl))
          ~c_at:(fun idx j -> Array.append [| j |] (Array.sub idx nl c_rest))
          ~h_at:(fun idx j -> Array.append [| j |] (Array.sub idx 0 nl))
          (fun h -> tensordot h c)
    in
    dot_left @ dot_right @ tensordot_right @ tensordot_left

(* ------------------------------------------------------------------ *)
(* Two-hole splits                                                     *)
(* ------------------------------------------------------------------ *)

let nonzero_somewhere t =
  Array.exists (fun e -> not (Expr.is_zero e)) (St.to_array t)

(* Split every element's terms by a predicate on terms. *)
let term_split spec pred =
  let left = St.map (fun e -> Expr.add (List.filter pred (Expr.terms e))) spec in
  let right =
    St.map
      (fun e -> Expr.add (List.filter (fun t -> not (pred t)) (Expr.terms e)))
      spec
  in
  (left, right)

let add_split_candidates spec =
  match uniform_term_count spec with
  | None -> []
  | Some t when t > max_split_terms -> []
  | Some _ ->
      let bases =
        List.sort_uniq String.compare
          (Array.to_list (St.to_array spec)
          |> List.concat_map (fun e -> Expr.base_names e))
      in
      let by_var =
        List.filter_map
          (fun v ->
            let pred term = List.mem v (Expr.base_names term) in
            let l, r = term_split spec pred in
            if nonzero_somewhere l && nonzero_somewhere r then
              Some { op = Ast.Add; parts = [ P_hole l; P_hole r ] }
            else None)
          bases
      in
      let by_sign =
        let pred term =
          let q, _ = Expr.split_coeff term in
          Q.sign q >= 0
        in
        let l, r = term_split spec pred in
        if nonzero_somewhere l && nonzero_somewhere r then
          [ { op = Ast.Sub; parts = [ P_hole l; P_hole (St.neg r) ] } ]
        else []
      in
      by_var @ by_sign

let mul_split_candidates spec =
  let bases =
    List.sort_uniq String.compare
      (Array.to_list (St.to_array spec)
      |> List.concat_map (fun e -> Expr.base_names e))
  in
  List.filter_map
    (fun v ->
      let split_elem e =
        let fs = Expr.factors e in
        let l, r =
          List.partition (fun f -> List.mem v (Expr.base_names f)) fs
        in
        (Expr.mul l, Expr.mul r)
      in
      let left = St.map (fun e -> fst (split_elem e)) spec in
      let right = St.map (fun e -> snd (split_elem e)) spec in
      let trivial t =
        Array.for_all Expr.is_one (St.to_array t)
        || Array.exists Expr.is_zero (St.to_array t)
      in
      if trivial left || trivial right then None
      else Some { op = Ast.Mul; parts = [ P_hole left; P_hole right ] })
    bases

(* ------------------------------------------------------------------ *)
(* Masking (Section V-A's density-driven cases)                        *)
(* ------------------------------------------------------------------ *)

(* When the spec is partially zero, a masking operation applied to a
   dense library value may reproduce it exactly: this hole-less
   completion is how [triu(A) + triu(B)] becomes [triu(A + B)] — the
   search cannot conjure the masked-away elements, but the library
   can. *)
let masked_candidates (ix : Stub.index) spec =
  let s = St.shape spec in
  if Shape.rank s <> 2 then []
  else
    let has_zero = Array.exists Expr.is_zero (St.unsafe_data spec) in
    if not has_zero then []
    else
      (* The completion is allowed to mention element symbols the mask
         discards (that is its purpose), but only from inputs the spec
         actually draws on. *)
      let spec_names =
        List.concat_map Expr.base_names (Array.to_list (St.unsafe_data spec))
        |> List.sort_uniq String.compare
      in
      let names_ok sem =
        List.for_all
          (fun n -> List.mem n spec_names)
          (List.concat_map Expr.base_names
             (Array.to_list (St.unsafe_data sem)))
      in
      List.concat_map
        (fun (c : Stub.t) ->
          if Shape.equal (St.shape c.sem) s && names_ok c.sem then
            List.filter_map
              (fun op ->
                match Dsl.Sexec.apply_op op [ c.sem ] with
                | masked when St.equal masked spec ->
                    Some { op; parts = [ P_conc c ] }
                | _ -> None
                | exception (Invalid_argument _ | Dsl.Eval.Eval_error _) ->
                    None)
              [ Ast.Triu; Ast.Tril ]
          else [])
        ix.planes

(* where(c, ??, ??) against a boolean mask from the library: each hole
   keeps the elements its branch selects (zero elsewhere), which lowers
   both branches' density — the mechanism the paper's complexity metric
   supports masking with. *)
let where_candidates (ix : Stub.index) spec svars =
  let s = St.shape spec in
  List.filter_map
    (fun ((c : Stub.t), vars) ->
      if fits_within (St.shape c.sem) s && Sym.Set.subset vars svars then
        let taken = St.where c.sem spec (St.create s Expr.zero) in
        let other = St.where c.sem (St.create s Expr.zero) spec in
        if nonzero_somewhere taken && nonzero_somewhere other then
          Some
            { op = Ast.Where; parts = [ P_conc c; P_hole taken; P_hole other ] }
        else None
      else None)
    ix.masks

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

(* A decomposition is only usable if recombining its parts reproduces
   the spec *structurally* — mathematically-exact candidates that the
   normal form cannot re-cancel (e.g. dividing by a sum expands into a
   rational function) would send the recursion after sub-programs whose
   assembly later fails verification. *)
let recombines spec d =
  (* Additive residuals, term partitions and contraction solutions are
     exact by construction (sums re-merge canonically; the contraction
     solvers verify internally), so only the remaining operation kinds
     pay for re-execution here. *)
  let exact_by_construction =
    match d.op with
    | Ast.Add | Ast.Sub | Ast.Sum _ | Ast.Dot | Ast.Tensordot _ -> true
    | Ast.Mul | Ast.Div | Ast.Pow_op | Ast.Maximum | Ast.Sqrt | Ast.Exp
    | Ast.Log | Ast.Transpose _ | Ast.Max _ | Ast.Stack _ | Ast.Where
    | Ast.Less | Ast.Triu | Ast.Tril | Ast.Diag | Ast.Trace | Ast.Reshape _
    | Ast.Full _ ->
        false
  in
  exact_by_construction
  ||
  let args =
    List.map
      (function P_hole h -> h | P_conc (s : Stub.t) -> s.sem)
      d.parts
  in
  match Dsl.Sexec.apply_op d.op args with
  | result -> St.equal result spec
  | exception (Invalid_argument _ | Dsl.Eval.Eval_error _ | Q.Overflow) ->
      false

let candidates ?(tel = Obs.Telemetry.null) ?budget lib spec =
  let ix = Stub.index lib in
  let spec_shape = St.shape spec in
  let f = Option.map (fun complexity -> frame spec ~complexity) budget in
  let evars = match f with Some f -> f.evars | None -> element_vars spec in
  let svars = Array.fold_left Sym.Set.union Sym.Set.empty evars in
  let concs =
    List.filter
      (fun (o : Stub.operand) ->
        Sym.Set.subset o.vars svars && not (St.equal o.stub.sem spec))
      ix.concrete
  in
  let skipped = ref 0 in
  let elementwise =
    List.concat_map
      (fun (o : Stub.operand) ->
        let c_shape = St.shape o.stub.sem in
        if not (fits_within c_shape spec_shape) then []
        else
          let skip_add, skip_mul =
            match f with
            | None -> (false, false)
            | Some f -> skip_families f o (broadcast_from c_shape spec_shape)
          in
          if skip_add then skipped := !skipped + 3;
          if skip_mul then skipped := !skipped + 3;
          elementwise_candidates ~skip_add ~skip_mul o.stub spec)
      concs
  in
  let contractions =
    List.concat_map
      (fun (o : Stub.operand) -> contraction_candidates spec o.stub)
      concs
  in
  let proposed =
    unary_candidates spec
    @ sum_axis_candidates spec
    @ sum_all_candidates spec
    @ add_split_candidates spec
    @ mul_split_candidates spec
    @ masked_candidates ix spec
    @ where_candidates ix spec svars
    @ elementwise @ contractions
  in
  if Obs.Telemetry.enabled tel then begin
    Obs.Telemetry.add tel "invert.proposed" (List.length proposed);
    Obs.Telemetry.add tel "invert.skipped" !skipped
  end;
  proposed
