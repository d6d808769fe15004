module Ast = Dsl.Ast
module Types = Dsl.Types

type eclass = int

exception Unsupported of string

(* E-nodes reference children by e-class id; operators reuse the DSL's
   op type (attributes included), with dedicated leaves for inputs and
   constants.  Constants are keyed by their IEEE-754 bit pattern, not
   the float itself: hashconsing and e-matching compare nodes
   structurally, and [nan <> nan] under structural equality would mint
   a fresh e-class for every NaN added and make patterns containing a
   NaN literal unmatchable. *)
type nop = N_input of string | N_const of int64 | N_op of Ast.op
type enode = { nop : nop; children : eclass array }

type class_data = {
  mutable nodes : enode list;
  mutable parents : (enode * eclass) list;
  vt : Types.vt;
}

type saturation_stats = {
  iterations : int;
  applications : int;
  classes : int;
  nodes : int;
  saturated : bool;
}

type t = {
  env : Types.env;
  mutable parent : int array;  (* union-find *)
  mutable count : int;
  classes : (eclass, class_data) Hashtbl.t;
  memo : (enode, eclass) Hashtbl.t;  (* hashcons of canonical e-nodes *)
  mutable worklist : eclass list;  (* classes needing congruence repair *)
  mutable last_stats : saturation_stats;
}

let create env =
  {
    env;
    parent = Array.init 64 Fun.id;
    count = 0;
    classes = Hashtbl.create 256;
    memo = Hashtbl.create 256;
    worklist = [];
    last_stats =
      { iterations = 0; applications = 0; classes = 0; nodes = 0;
        saturated = true };
  }

let rec find g i =
  let p = g.parent.(i) in
  if p = i then i
  else begin
    let root = find g p in
    g.parent.(i) <- root;
    root
  end

let canonicalize g node =
  { node with children = Array.map (find g) node.children }

let class_of g i = Hashtbl.find g.classes (find g i)

let fresh_class g vt =
  let id = g.count in
  g.count <- g.count + 1;
  if id >= Array.length g.parent then begin
    let bigger = Array.init (2 * Array.length g.parent) Fun.id in
    Array.blit g.parent 0 bigger 0 (Array.length g.parent);
    g.parent <- bigger
  end;
  g.parent.(id) <- id;
  Hashtbl.replace g.classes id { nodes = []; parents = []; vt };
  id

let node_vt g node =
  match node.nop with
  | N_input name -> (
      match List.assoc_opt name g.env with
      | Some vt -> vt
      | None -> raise (Types.Type_error ("unbound input " ^ name)))
  | N_const _ -> Types.scalar_f
  | N_op op ->
      Types.infer_op op
        (Array.to_list (Array.map (fun c -> (class_of g c).vt) node.children))

(* Insert a canonical node, returning its e-class. *)
let add_node g node =
  let node = canonicalize g node in
  match Hashtbl.find_opt g.memo node with
  | Some c -> find g c
  | None ->
      let vt = node_vt g node in
      let id = fresh_class g vt in
      Hashtbl.replace g.memo node id;
      (class_of g id).nodes <- [ node ];
      Array.iter
        (fun child ->
          let cd = class_of g child in
          cd.parents <- (node, id) :: cd.parents)
        node.children;
      id

let rec add g (t : Ast.t) =
  match t with
  | Input name -> add_node g { nop = N_input name; children = [||] }
  | Const f ->
      add_node g { nop = N_const (Int64.bits_of_float f); children = [||] }
  | App (op, args) ->
      let children = Array.of_list (List.map (add g) args) in
      add_node g { nop = N_op op; children }
  | For_stack _ -> raise (Unsupported "comprehensions in an e-graph")

let equivalent g a b = find g a = find g b
let repr = find

(* Union two classes and queue congruence repair. *)
let union g a b =
  let ra = find g a and rb = find g b in
  if ra = rb then false
  else begin
    (* merge smaller into larger *)
    let da = Hashtbl.find g.classes ra and db = Hashtbl.find g.classes rb in
    let keep, absorb, dk, dab =
      if List.length da.parents >= List.length db.parents then (ra, rb, da, db)
      else (rb, ra, db, da)
    in
    g.parent.(absorb) <- keep;
    dk.nodes <- dab.nodes @ dk.nodes;
    dk.parents <- dab.parents @ dk.parents;
    Hashtbl.remove g.classes absorb;
    g.worklist <- keep :: g.worklist;
    true
  end

(* Congruence closure: re-canonicalize parents of merged classes; equal
   canonical nodes force their classes equal. *)
let rebuild g =
  while g.worklist <> [] do
    let todo = List.sort_uniq compare (List.map (find g) g.worklist) in
    g.worklist <- [];
    List.iter
      (fun cls ->
        match Hashtbl.find_opt g.classes cls with
        | None -> ()
        | Some data ->
            let parents = data.parents in
            data.parents <- [];
            let fresh = Hashtbl.create 16 in
            List.iter
              (fun (pnode, pcls) ->
                let canon = canonicalize g pnode in
                Hashtbl.remove g.memo pnode;
                (match Hashtbl.find_opt fresh canon with
                | Some other -> ignore (union g pcls other)
                | None -> ());
                Hashtbl.replace fresh canon (find g pcls))
              parents;
            Hashtbl.iter
              (fun canon pcls ->
                Hashtbl.replace g.memo canon pcls;
                (class_of g cls).parents <-
                  (canon, pcls) :: (class_of g cls).parents)
              fresh)
      todo
  done

(* ------------------------------------------------------------------ *)
(* E-matching                                                          *)
(* ------------------------------------------------------------------ *)

(* Match a rule's left side against an e-class, producing bindings from
   its metavariables ([vars]) to e-classes.  Names are compared with
   [String.equal]: polymorphic equality on these hot leaf checks costs
   tier 2 a measurable share of its saturation time. *)
let ematch g ~vars lhs cls =
  let rec is_var mv = function
    | [] -> false
    | v :: rest -> String.equal v mv || is_var mv rest
  in
  let rec bound mv = function
    | [] -> None
    | (v, c) :: rest -> if String.equal v mv then Some c else bound mv rest
  in
  let rec go (pat : Ast.t) cls (subst : (string * eclass) list) =
    let cls = find g cls in
    match pat with
    | Input mv when is_var mv vars -> (
        match bound mv subst with
        | Some bound -> if find g bound = cls then [ subst ] else []
        | None -> [ (mv, cls) :: subst ])
    | Input name ->
        if
          List.exists
            (fun n -> n.nop = N_input name)
            (class_of g cls).nodes
        then [ subst ]
        else []
    | Const f ->
        let bits = Int64.bits_of_float f in
        if
          List.exists (fun n -> n.nop = N_const bits) (class_of g cls).nodes
        then [ subst ]
        else []
    | App (op, args) ->
        List.concat_map
          (fun node ->
            match node.nop with
            | N_op op' when op' = op
                            && Array.length node.children
                               = List.length args ->
                let rec children i substs = function
                  | [] -> substs
                  | arg :: rest ->
                      children (i + 1)
                        (List.concat_map (go arg node.children.(i)) substs)
                        rest
                in
                children 0 [ subst ] args
            | N_op _ | N_input _ | N_const _ -> [])
          (class_of g cls).nodes
    | For_stack _ -> []
  in
  go lhs cls []

(* ------------------------------------------------------------------ *)
(* Rule sets                                                           *)
(* ------------------------------------------------------------------ *)

(* A rule's bucket: the root e-node its left side needs (operator or
   leaf, and arity), [every] for a bare metavariable, which matches
   every class, or [never] for a left side that matches nothing. *)
let every = -1
let never = -2

type compiled = {
  rule : Rules.t;
  vars : string list;  (* the metavariables of [rule.lhs] *)
  bucket : int;
}

type rule_set = {
  rules : compiled array;  (* in the order given *)
  buckets : (nop * int, int) Hashtbl.t;  (* root e-node -> bucket *)
  n_buckets : int;
}

let compile_with ~indexed rules =
  let buckets = Hashtbl.create 64 in
  let bucket key =
    match Hashtbl.find_opt buckets key with
    | Some b -> b
    | None ->
        let b = Hashtbl.length buckets in
        Hashtbl.add buckets key b;
        b
  in
  let compile (rule : Rules.t) =
    let vars = List.map snd rule.metavars in
    let bucket =
      if not indexed then every
      else
        match rule.lhs with
        | Input name when List.exists (String.equal name) vars -> every
        | Input name -> bucket (N_input name, 0)
        | Const f -> bucket (N_const (Int64.bits_of_float f), 0)
        | App (op, args) -> bucket (N_op op, List.length args)
        | For_stack _ -> never
    in
    { rule; vars; bucket }
  in
  let rules = Array.of_list (List.map compile rules) in
  { rules; buckets; n_buckets = Hashtbl.length buckets }

let compile rules = compile_with ~indexed:true rules
let unindexed rules = compile_with ~indexed:false rules

(* Instantiate the rule's right-hand side under a binding. *)
let rec instantiate g (pat : Ast.t) subst =
  match pat with
  | Input name -> (
      match List.assoc_opt name subst with
      | Some cls -> cls
      | None -> add g (Input name))
  | Const f -> add g (Const f)
  | App (op, args) ->
      let children =
        Array.of_list (List.map (fun a -> instantiate g a subst) args)
      in
      add_node g { nop = N_op op; children }
  | For_stack _ -> raise (Unsupported "comprehension in rule rhs")

(* Every class id ever minted holds exactly one e-node from its
   creation, and unions only move e-nodes between classes, so the e-graph
   has [g.count] e-nodes. *)
let total_nodes g = g.count

(* The classes each bucket's rules can match this round: those holding
   an e-node with the bucket's root, each in snapshot order. *)
let bucket_classes rs g =
  let classes = Array.make rs.n_buckets [] in
  if rs.n_buckets > 0 then
    Hashtbl.iter
      (fun cls (data : class_data) ->
        List.iter
          (fun node ->
            match
              Hashtbl.find_opt rs.buckets
                (node.nop, Array.length node.children)
            with
            | None -> ()
            | Some b -> (
                match classes.(b) with
                | c :: _ when c = cls -> ()
                | l -> classes.(b) <- cls :: l))
          data.nodes)
      g.classes;
  classes

let saturate_set ?(iters = 8) ?(node_limit = 10_000) rs g =
  let applications = ref 0 in
  let iterations = ref 0 in
  let saturated = ref false in
  (try
     for _ = 1 to iters do
       incr iterations;
       (* snapshot the classes before this round; [Hashtbl.iter] visits
          them in the order [Hashtbl.fold] does, so every bucket lists
          its classes in snapshot order *)
       let classes = Hashtbl.fold (fun c _ acc -> c :: acc) g.classes [] in
       let buckets = bucket_classes rs g in
       (* rule-major, classes in snapshot order within a rule *)
       let matches =
         Array.fold_right
           (fun cr acc ->
             let candidates =
               if cr.bucket = every then classes
               else if cr.bucket = never then []
               else buckets.(cr.bucket)
             in
             List.concat_map
               (fun cls ->
                 if Hashtbl.mem g.classes cls then
                   List.map (fun subst -> (cr.rule, cls, subst))
                     (ematch g ~vars:cr.vars cr.rule.lhs cls)
                 else [])
               candidates
             @ acc)
           rs.rules []
       in
       let changed = ref false in
       List.iter
         (fun ((rule : Rules.t), cls, subst) ->
           if total_nodes g < node_limit then begin
             match instantiate g rule.rhs subst with
             | rhs_cls ->
                 if union g cls rhs_cls then begin
                   incr applications;
                   changed := true
                 end
             | exception
                 (Types.Type_error _ | Unsupported _ | Invalid_argument _)
               ->
                 ()
           end)
         matches;
       rebuild g;
       if not !changed then begin
         saturated := true;
         raise Exit
       end;
       if total_nodes g >= node_limit then raise Exit
     done
   with Exit -> ());
  let stats =
    {
      iterations = !iterations;
      applications = !applications;
      classes = Hashtbl.length g.classes;
      nodes = total_nodes g;
      saturated = !saturated;
    }
  in
  g.last_stats <- stats;
  stats

let saturate ?iters ?node_limit ~rules g =
  saturate_set ?iters ?node_limit (compile rules) g

(* ------------------------------------------------------------------ *)
(* Extraction                                                          *)
(* ------------------------------------------------------------------ *)

let extract g ~model cls =
  (* Bottom-up cost relaxation to a fixpoint, then reconstruction. *)
  let best : (eclass, float * enode) Hashtbl.t = Hashtbl.create 64 in
  let node_cost node =
    match node.nop with
    | N_input _ | N_const _ -> Some 0.
    | N_op op ->
        let child_costs =
          Array.map
            (fun c ->
              match Hashtbl.find_opt best (find g c) with
              | Some (cost, _) -> cost
              | None -> infinity)
            node.children
        in
        if Array.exists (fun c -> c = infinity) child_costs then None
        else
          let arg_ts =
            Array.to_list
              (Array.map (fun c -> (class_of g c).vt) node.children)
          in
          (match model.Cost.Model.op_cost op arg_ts with
          | c -> Some (c +. Array.fold_left ( +. ) 0. child_costs)
          | exception Types.Type_error _ -> None)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun id (data : class_data) ->
        List.iter
          (fun node ->
            match node_cost node with
            | None -> ()
            | Some cost -> (
                match Hashtbl.find_opt best id with
                | Some (old, _) when old <= cost -> ()
                | _ ->
                    Hashtbl.replace best id (cost, node);
                    changed := true))
          data.nodes)
      g.classes
  done;
  let rec build id =
    match Hashtbl.find_opt best (find g id) with
    | None -> raise (Unsupported "extraction from an unrealizable class")
    | Some (_, node) -> (
        match node.nop with
        | N_input name -> Ast.Input name
        | N_const bits -> Ast.Const (Int64.float_of_bits bits)
        | N_op op ->
            Ast.App (op, Array.to_list (Array.map build node.children)))
  in
  build cls

let stats g =
  {
    g.last_stats with
    classes = Hashtbl.length g.classes;
    nodes = total_nodes g;
  }
