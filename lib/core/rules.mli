(** Generalizing discovered optimizations into rewrite rules
    (Section VII-D).

    A concrete (original, optimized) pair over named inputs becomes a
    rule by abstracting the inputs into pattern metavariables in order
    of first occurrence on the left-hand side, e.g.

    {v diag(dot(X, Y))  ==>  sum(multiply(X, transpose(Y)), axis=1) v}

    Such rules are exactly what the paper proposes feeding back into
    rule-based compilers and e-graph optimizers. *)

type t = {
  lhs : Dsl.Ast.t;
  rhs : Dsl.Ast.t;
  metavars : (string * string) list;  (** original input -> metavariable *)
}

val generalize : Dsl.Ast.t -> Dsl.Ast.t -> t
(** [generalize original optimized] abstracts shared inputs.  Inputs of
    the optimized side that do not occur in the original keep their
    names (they cannot, by construction of the synthesizer). *)

val closed : t -> bool
(** Every input (metavariable or concrete) of the right-hand side also
    occurs on the left — the soundness condition for applying the rule
    anywhere: an open rule would conjure inputs out of thin air.
    Reachable in mined rules through semantically dead inputs (the
    cheapest implementation of [multiply(B, 0)]'s value need not
    mention [B]). *)

val specialize : t -> (string * Dsl.Ast.t) list -> Dsl.Ast.t * Dsl.Ast.t
(** Instantiate the metavariables; unbound metavariables are left as
    inputs. *)

val matches : t -> Dsl.Ast.t -> (string * Dsl.Ast.t) list option
(** Syntactic pattern match of the rule's left-hand side against a
    program: metavariables bind arbitrary subterms (consistently). *)

val apply_once : t -> Dsl.Ast.t -> Dsl.Ast.t option
(** Rewrite the outermost matching position, if any. *)

val apply_fixpoint :
  ?max_steps:int ->
  ?cost:(Dsl.Ast.t -> float) ->
  ?applied:int ref ->
  t list ->
  Dsl.Ast.t ->
  Dsl.Ast.t
(** Apply a mined rule set repeatedly (first applicable rule, outermost
    position) until no rule fires, a program repeats (inverse rule
    pairs cycle — the walk stops on the first revisit), or [max_steps]
    (default 32) is reached — a miniature rule-based optimizer built
    from STENSO discoveries, the integration path Section VII-D
    proposes.  Returns the cheapest program seen under [cost] (default:
    AST size), which is the input itself when no rewrite improves on
    it.  [applied], when given, accumulates the number of rewrite steps
    taken.  Tiered serving does not use it: e-graph saturation over the
    same rules ({!Egraph.saturate}) subsumes greedy rewriting. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
