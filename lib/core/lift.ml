(* Stenso.Lift: sketch-guided lifting of scalar loop-nest kernels into
   the tensor DSL, per Guided Tensor Lifting / TF-Coder (PAPERS.md).

   The loop language itself (AST, parser, reference interpreter) lives
   in lib/lift as the dependency-free library [Tlift], re-exported here
   — the same layering as [Exec] over [Texec] and [Net] over [Tnet] —
   because the lifting engine needs [Stub]/[Superopt], which live above
   [Tlift] in the build graph.

   Pipeline:
   1. run the kernel on sampled input draws (the suite generator's
      distribution) — its behavioral signature;
   2. enumerate the stub library for the kernel's input environment
      (full bottom-up binary combination: lifted programs are found
      whole, not recursively decomposed, so the redundancy cut the
      sketch search relies on does not apply);
   3. shape/rank analysis of the loop nest proposes sketches — a bare
      library hole, reduce-of-reshape patterns for pooling loops,
      binary-operator skeletons for the operators the body uses;
   4. fill holes with library stubs, pruning every candidate whose
      concrete outputs mismatch the signature (TF-Coder value check —
      cheap, vectorized, before any symbolic work);
   5. certify survivors: the kernel's symbolic spec (the loop
      interpreter run over [Symbolic.Expr] scalars) must equal the
      candidate's, and a VM differential must agree on fresh draws.

   Certified lifts are handed to [Superopt.optimize] by {!optimize},
   so the result is both lifted and superoptimized. *)

module Loop_ast = Tlift.Loop_ast
module Loop_parser = Tlift.Loop_parser
module Loop_interp = Tlift.Loop_interp
module Ast = Dsl.Ast
module Types = Dsl.Types
module Interp = Dsl.Interp
module Sexec = Dsl.Sexec
module Ftensor = Tensor.Ftensor
module Tel = Obs.Telemetry

type stats = {
  sketches : int;  (** sketch templates proposed by loop analysis *)
  pruned_by_value : int;  (** candidates rejected by the value check *)
  certified : int;  (** value matches submitted to certification *)
  library_size : int;
  lift_s : float;  (** end-to-end lifting wall time *)
  verify_s : float;  (** time inside symbolic + differential checks *)
}

type lifted = {
  kernel : Loop_ast.kernel;
  env : Types.env;
  prog : Ast.t;
  stats : stats;
}

type error =
  | Unsupported of string
      (** The kernel is outside the liftable fragment (semantic error
          from the reference interpreter). *)
  | Not_lifted of stats
      (** The sketch space was exhausted without a certified lift. *)

let error_message = function
  | Unsupported msg -> Printf.sprintf "kernel not liftable: %s" msg
  | Not_lifted stats ->
      Printf.sprintf
        "no DSL program found (%d sketches, %d candidates value-pruned, %d \
         certification attempts)"
        stats.sketches stats.pruned_by_value stats.certified

let error_stats = function
  | Unsupported _ ->
      {
        sketches = 0;
        pruned_by_value = 0;
        certified = 0;
        library_size = 0;
        lift_s = 0.;
        verify_s = 0.;
      }
  | Not_lifted stats -> stats

(* ------------------------------------------------------------------ *)
(* Symbolic instantiation of the loop interpreter                     *)
(* ------------------------------------------------------------------ *)

module Sym_interp = Loop_interp.Make (Sexec.Expr_elt)

let symbolic_spec (k : Loop_ast.kernel) (env : Types.env) : Spec.t =
  let inputs =
    List.map
      (fun (name, t) -> (name, Sexec.Stensor.to_array t))
      (Sexec.sym_env env)
  in
  let out = Sym_interp.run k inputs in
  let dims = Array.of_list (Loop_ast.out_param k).dims in
  Sexec.Stensor.of_array dims out

(* ------------------------------------------------------------------ *)
(* Loop-nest analysis and sketch proposal                             *)
(* ------------------------------------------------------------------ *)

type reduce_kind = Rsum | Rmax

type sketch =
  | Hole  (** a single library stub *)
  | Binary of Ast.op  (** op(H1, H2), both holes library stubs *)
  | Reduce_reshape of reduce_kind * int array
      (** reduce(axis=last)(reshape(H, dims)) — pooling-style loops *)

let sketch_name = function
  | Hole -> "hole"
  | Binary op -> Printf.sprintf "binary:%s" (Ast.op_name op)
  | Reduce_reshape (k, dims) ->
      Printf.sprintf "%s-reshape:%s"
        (match k with Rsum -> "sum" | Rmax -> "max")
        (String.concat "x" (Array.to_list (Array.map string_of_int dims)))

type analysis = {
  ops : (Loop_ast.binop, unit) Hashtbl.t;
  mutable uses_fmax : bool;
  mutable acc_add : bool;  (** [x = x + e] / [+=] accumulation *)
  mutable acc_max : bool;  (** [x = fmaxf(x, e)] accumulation *)
  mutable nests : (int * int) list;  (** (outer, inner) loop extents *)
}

let analyze (k : Loop_ast.kernel) =
  let a =
    {
      ops = Hashtbl.create 4;
      uses_fmax = false;
      acc_add = false;
      acc_max = false;
      nests = [];
    }
  in
  let rec reads_base base : Loop_ast.expr -> bool = function
    | Num _ -> false
    | Var v -> v = base
    | Load (b, idx) -> b = base || List.exists (reads_base base) idx
    | Neg e -> reads_base base e
    | Binop (_, x, y) -> reads_base base x || reads_base base y
    | Intrinsic (_, args) -> List.exists (reads_base base) args
  in
  let rec expr : Loop_ast.expr -> unit = function
    | Num _ | Var _ -> ()
    | Load (_, idx) -> List.iter expr idx
    | Neg e -> expr e
    | Binop (op, x, y) ->
        Hashtbl.replace a.ops op ();
        expr x;
        expr y
    | Intrinsic (f, args) ->
        if f = Loop_ast.Fmax then a.uses_fmax <- true;
        List.iter expr args
  in
  let rec stmt : Loop_ast.stmt -> unit = function
    | Decl { init; _ } -> expr init
    | Assign (lhs, e) ->
        List.iter expr lhs.indices;
        expr e;
        if reads_base lhs.base e then
          (match e with
          | Binop (Loop_ast.Add, _, _) -> a.acc_add <- true
          | Intrinsic (Loop_ast.Fmax, _) -> a.acc_max <- true
          | _ -> ())
    | For { lo; hi; body; _ } ->
        let extent = hi - lo in
        List.iter
          (function
            | Loop_ast.For { lo = lo'; hi = hi'; _ } ->
                a.nests <- (extent, hi' - lo') :: a.nests
            | _ -> ())
          body;
        List.iter stmt body
  in
  List.iter stmt k.body;
  a

let propose (k : Loop_ast.kernel) (a : analysis) : sketch list =
  let out_dims = (Loop_ast.out_param k).dims in
  (* Pooling-style loops: an output loop of extent [n] around a
     reduction loop of extent [c] suggests reducing the trailing axis
     of an [n x c] view of a flat input. *)
  let reshapes =
    List.concat_map
      (fun (n, c) ->
        if out_dims = [ n ] && c > 1 then
          (if a.acc_max then [ Reduce_reshape (Rmax, [| n; c |]) ] else [])
          @ (if a.acc_add then [ Reduce_reshape (Rsum, [| n; c |]) ] else [])
        else [])
      a.nests
  in
  (* Binary skeletons for the scalar operators the body actually uses:
     the lifted form of [y[i] = e1[i] / e2] is [Div] over two library
     values, and likewise for the others.  [Div] leads — normalization
     and softmax-style kernels are the common case — and commutative
     wrappers over [Add]/[Mul] come last (a bare [Hole] usually beats
     them). *)
  let binaries =
    List.filter_map
      (fun (lop, op) ->
        if Hashtbl.mem a.ops lop then Some (Binary op) else None)
      [
        (Loop_ast.Div, Ast.Div);
        (Loop_ast.Sub, Ast.Sub);
        (Loop_ast.Add, Ast.Add);
        (Loop_ast.Mul, Ast.Mul);
      ]
  in
  let maxes =
    if a.uses_fmax && not a.acc_max then [ Binary Maximum ] else []
  in
  let rec dedup seen = function
    | [] -> []
    | s :: rest ->
        if List.mem s seen then dedup seen rest
        else s :: dedup (s :: seen) rest
  in
  dedup [] ((Hole :: reshapes) @ binaries @ maxes)

(* ------------------------------------------------------------------ *)
(* Candidate generation with value pruning                            *)
(* ------------------------------------------------------------------ *)

(* [Ftensor.allclose] scales its tolerance by the second argument, so
   the (finite) expected signature must be the scaling side: a
   candidate with infinite outputs would otherwise inflate the
   tolerance to infinity and "match" anything. *)
let close_outputs ~expected outs =
  List.for_all2
    (fun (e : Ftensor.t) (o : Ftensor.t) ->
      Tensor.Shape.equal (Ftensor.shape e) (Ftensor.shape o)
      && Ftensor.allclose o e)
    expected outs

(* A sketch filling is either a full candidate (program plus its
   outputs on every sample) or a cheap rejection: binary sketches probe
   one output element per pair before materializing whole tensors, so
   the quadratic pair scan costs a float op, not three allocations. *)
type filling = Probe_pruned | Cand of Ast.t * Ftensor.t list

(* All fillings of one sketch, cheapest stubs first. *)
let fill (sketch : sketch) ~(out_shape : int array)
    ~(stubs : (Stub.t * Ftensor.t list) list)
    ~(expected : Ftensor.t list) : filling Seq.t =
  let float_stub (s : Stub.t) = s.vt.Types.dtype = Types.Float in
  match sketch with
  | Hole ->
      List.to_seq stubs
      |> Seq.filter_map (fun ((s : Stub.t), outs) ->
             if
               float_stub s
               && Tensor.Shape.equal s.vt.Types.shape out_shape
             then Some (Cand (s.prog, outs))
             else None)
  | Reduce_reshape (kind, dims) ->
      let numel = Array.fold_left ( * ) 1 dims in
      let op =
        match kind with
        | Rsum -> Ast.sum_op (Some (Array.length dims - 1))
        | Rmax -> Ast.max_op (Some (Array.length dims - 1))
      in
      List.to_seq stubs
      |> Seq.filter_map (fun ((s : Stub.t), outs) ->
             if
               float_stub s
               && Array.fold_left ( * ) 1 s.vt.Types.shape = numel
             then
               match
                 List.map
                   (fun o -> Interp.apply_op op [ Ftensor.reshape o dims ])
                   outs
               with
               | outs' ->
                   Some
                     (Cand
                        ( Ast.App (op, [ App (Reshape dims, [ s.prog ]) ]),
                          outs' ))
               | exception _ -> None
             else None)
  | Binary op ->
      (* Only pairs whose shapes broadcast to the output shape can
         match; Dot pairs are shape-checked by evaluation instead. *)
      let compatible (a : Stub.t) (b : Stub.t) =
        match op with
        | Ast.Dot -> true
        | _ -> (
            match Tensor.Shape.broadcast a.vt.Types.shape b.vt.Types.shape with
            | Some s -> Tensor.Shape.equal s out_shape
            | None -> false)
      in
      let scalar_op =
        match op with
        | Ast.Add -> Some ( +. )
        | Ast.Sub -> Some ( -. )
        | Ast.Mul -> Some ( *. )
        | Ast.Div -> Some ( /. )
        | Ast.Maximum -> Some Float.max
        | _ -> None
      in
      (* Element [0,...,0] of a broadcast elementwise result is the op
         applied to each operand's element [0,...,0]. *)
      let first (t : Ftensor.t) =
        Ftensor.get t (Array.make (Array.length (Ftensor.shape t)) 0)
      in
      let expected0 = first (List.hd expected) in
      let probed =
        List.filter_map
          (fun ((s : Stub.t), outs) ->
            if float_stub s then Some (s, outs, first (List.hd outs))
            else None)
          stubs
      in
      let probe_close c =
        Float.abs (c -. expected0) <= 1e-9 +. (1e-6 *. Float.abs expected0)
      in
      List.to_seq probed
      |> Seq.concat_map (fun ((s1 : Stub.t), o1, p1) ->
             List.to_seq probed
             |> Seq.filter_map (fun ((s2 : Stub.t), o2, p2) ->
                    if not (compatible s1 s2) then None
                    else
                      match scalar_op with
                      | Some f when not (probe_close (f p1 p2)) ->
                          Some Probe_pruned
                      | _ -> (
                          match
                            List.map2
                              (fun a b -> Interp.apply_op op [ a; b ])
                              o1 o2
                          with
                          | outs ->
                              Some
                                (Cand
                                   (Ast.App (op, [ s1.prog; s2.prog ]), outs))
                          | exception _ -> None)))

(* ------------------------------------------------------------------ *)
(* The lift                                                           *)
(* ------------------------------------------------------------------ *)

let default_stub_config =
  {
    Stub.default_config with
    (* Lifted programs are matched whole against the library, not
       recursively decomposed, so the atom-operand redundancy cut of
       the sketch search would lose programs like dot(A-B, A-B);
       enumerate the full binary square instead.  The environments are
       kernel-sized, so the square stays small. *)
    full_binary = true;
  }

let lift ?(tel = Tel.null) ?(config = Config.default)
    ?(stub_cache : Stub.Cache.cache option) ?(samples = 3) ?(seed = 0x11f7)
    (kernel : Loop_ast.kernel) : (lifted, error) result =
  let t0 = Unix.gettimeofday () in
  let env = Loop_ast.dsl_env kernel in
  let out_shape = Array.of_list (Loop_ast.out_param kernel).dims in
  let st = Random.State.make [| seed |] in
  let draws = List.init samples (fun _ -> Interp.random_inputs st env) in
  match
    let expected = List.map (Loop_interp.run_tensors kernel) draws in
    let spec = symbolic_spec kernel env in
    (expected, spec)
  with
  | exception Loop_interp.Eval_error msg ->
      Tel.event tel "lift.failed"
        [ ("kernel", Str kernel.kname); ("reason", Str msg) ];
      Error (Unsupported msg)
  | expected, spec ->
      let model = Config.model ~tel config in
      let consts = Loop_ast.literals kernel in
      let sconfig = default_stub_config in
      let lib =
        Stub.resolve ?cache:stub_cache ~config:sconfig ~tel ~model ~consts env
      in
      (* The value table's cache key fingerprints the sampled inputs
         (bit-exact) alongside the library, so lifts against different
         draws or distributions can never collide. *)
      let library_fp =
        Printf.sprintf "%s;model=%s"
          (Stub.fingerprint sconfig ~consts env)
          model.Cost.Model.name
      in
      let values = Stub.Values.get ~tel ~library_fp lib draws in
      let stubs = Stub.Values.to_list values in
      let analysis = analyze kernel in
      let sketches = propose kernel analysis in
      let exec_options = Config.exec_options config in
      let pruned = ref 0 in
      let certified = ref 0 in
      let verify_s = ref 0. in
      let stats () =
        {
          sketches = List.length sketches;
          pruned_by_value = !pruned;
          certified = !certified;
          library_size = Stub.size lib;
          lift_s = Unix.gettimeofday () -. t0;
          verify_s = !verify_s;
        }
      in
      let certify cand =
        incr certified;
        let t = Unix.gettimeofday () in
        let ok =
          (match Sexec.exec_env env cand with
          | cand_spec -> Spec.equal spec cand_spec
          | exception _ -> false)
          && Superopt.differential ~trials:8 ~max_draws:256 ~seed:0x11f7ed
               ~exec_options ~env
               ~reference:(Loop_interp.run_tensors kernel)
               cand
        in
        verify_s := !verify_s +. Unix.gettimeofday () -. t;
        ok
      in
      let result =
        List.find_map
          (fun sketch ->
            let found =
              Seq.find_map
                (function
                  | Probe_pruned ->
                      incr pruned;
                      None
                  | Cand (cand, outs) ->
                      if not (close_outputs ~expected outs) then begin
                        incr pruned;
                        None
                      end
                      else if certify cand then Some cand
                      else None)
                (fill sketch ~out_shape ~stubs ~expected)
            in
            (match found with
            | Some _ ->
                Tel.event tel "lift.sketch"
                  [
                    ("kernel", Str kernel.kname);
                    ("sketch", Str (sketch_name sketch));
                  ]
            | None -> ());
            found)
          sketches
      in
      let s = stats () in
      Tel.add tel "lift.sketches" s.sketches;
      Tel.add tel "lift.pruned_by_value" s.pruned_by_value;
      Tel.Acc.add (Tel.acc tel "lift.verify_ms") (s.verify_s *. 1000.);
      (match result with
      | Some prog ->
          Tel.event tel "lift.done"
            [
              ("kernel", Str kernel.kname);
              ("program", Str (Format.asprintf "%a" Ast.pp prog));
              ("sketches", Int s.sketches);
              ("pruned_by_value", Int s.pruned_by_value);
              ("library", Int s.library_size);
              ("lift_ms", Float (s.lift_s *. 1000.));
              ("verify_ms", Float (s.verify_s *. 1000.));
            ]
      | None ->
          Tel.event tel "lift.failed"
            [
              ("kernel", Str kernel.kname);
              ("reason", Str "sketch space exhausted");
              ("sketches", Int s.sketches);
              ("pruned_by_value", Int s.pruned_by_value);
            ]);
      (match result with
      | Some prog -> Ok { kernel; env; prog; stats = s }
      | None -> Error (Not_lifted s))

let optimize ?(tel = Tel.null) ?(config = Config.default) ?store ?stub_cache
    ?samples ?seed kernel =
  match lift ~tel ~config ?stub_cache ?samples ?seed kernel with
  | Error e -> Error e
  | Ok lifted ->
      let outcome =
        Superopt.optimize ~tel ~config ?store ?stub_cache ~env:lifted.env
          lifted.prog
      in
      Ok (lifted, outcome)
