(** A compact e-graph with equality saturation — the TENSAT-style
    optimizer the paper positions itself against (Section VIII).

    The paper argues (a) e-graph optimizers are fundamentally limited by
    the completeness of their rewrite-rule set, and (b) STENSO is
    complementary: the rules it discovers can be fed to such systems.
    This module makes both claims executable: STENSO-mined {!Rules.t}
    values drive saturation, and extraction picks the cheapest
    representative under a {!Cost.Model.t}.

    The implementation is a standard egg-style e-graph: hash-consed
    e-nodes over e-class ids, union-find with congruence repair after
    each batch of rule applications, and bottom-up cost extraction.
    Comprehensions ([For_stack]) are not representable; [add] raises
    [Unsupported] for them. *)

type t
type eclass = int

exception Unsupported of string

val create : Dsl.Types.env -> t
(** An empty e-graph over programs typed by [env] (used to type
    rule-instantiated nodes and to cost extraction candidates). *)

val add : t -> Dsl.Ast.t -> eclass
(** Insert a program, sharing structure with everything already
    present; returns its e-class. *)

val equivalent : t -> eclass -> eclass -> bool
(** Are two e-classes known equal (after the saturation so far)? *)

val repr : t -> eclass -> eclass
(** The canonical id of an e-class's equivalence class. *)

type saturation_stats = {
  iterations : int;
  applications : int;  (** successful rule instantiations *)
  classes : int;
  nodes : int;
  saturated : bool;  (** reached a fixpoint before hitting limits *)
}

type rule_set
(** A rule list compiled for matching.  Each rule's left side is
    resolved once (its metavariables listed) and indexed by its
    root: the operator with its attributes and arity, or the input or
    constant leaf.  A bare-metavariable left side is tried against every
    class. *)

val compile : Rules.t list -> rule_set
(** Compile rules in order; the order is kept. *)

val unindexed : Rules.t list -> rule_set
(** The same rules with every rule tried against every class: the plain
    rule-major scan that the index must reproduce exactly. *)

val saturate_set :
  ?iters:int -> ?node_limit:int -> rule_set -> t -> saturation_stats
(** Apply a compiled rule set to a fixpoint or until the limits
    (defaults: 8 iterations, 10_000 e-nodes).  Rules are applied
    left-to-right only; include both directions explicitly for
    bidirectional identities.

    Each round snapshots the classes, then matches rule by rule in the
    set's order, each rule against the snapshot's classes in order, and
    applies every match found in that order.  A rule is tried only on
    the classes holding an e-node with its left side's root (found by
    one pass over the e-nodes per round), which gives the same matches,
    in the same order, as trying it on every class. *)

val saturate :
  ?iters:int -> ?node_limit:int -> rules:Rules.t list -> t -> saturation_stats
(** [saturate ~rules g] is [saturate_set (compile rules) g]. *)

val extract : t -> model:Cost.Model.t -> eclass -> Dsl.Ast.t
(** Cheapest program in the e-class under the cost model (summed per-op
    costs, computed bottom-up over the e-graph). *)

val stats : t -> saturation_stats
(** Current size counters (iterations/applications refer to the last
    {!saturate} call). *)
