(** The symbolic-algebra solver behind [SOLVE] (Section V-A).

    Given the current specification [Φ] and a sketch — a grammar
    operation whose operands are holes or concrete stubs — the solver
    determines the {e hole specification}: the symbolic value each hole
    must take for the sketch's output to equal [Φ].  Each operation has
    an inverse semantics:

    - elementwise [add]/[sub]/[div] invert by the opposite operation;
    - [mul] inverts by exact symbolic division ({!Symbolic.Expr.div_exact});
    - [power] inverts by exact root extraction or exponent matching;
    - [dot]/[tensordot] invert by linear-coefficient extraction over the
      concrete operand's symbols, with a term-assignment fallback for
      specifications that are nonlinear in those symbols (e.g. the
      quadratic form [xᵀAx]).  The four contraction sketches
      ([dot(??,c)], [dot(c,??)], [tensordot(c,??)], [tensordot(??,c)])
      share one solver and differ only in which operand element and
      hole element each specification element reads and fills; every
      solution is verified by symbolic reconstruction;
    - [sum] inverts by partitioning each element's terms (at most 64
      per element) in canonical order into a new axis;
    - two-hole [add]/[sub]/[mul] sketches split the specification by
      input-variable occurrence or by sign.

    Concrete operands are the depth-0 and depth-1 stubs of
    {!Stub.index}.

    A candidate ({!candidates}) that {!recombines} is exact: recombining
    the parts under the operation yields a tensor symbolically equal to
    [Φ].  The search calls {!candidates} with its pruning budget and
    checks {!recombines} only on the candidates it keeps. *)

type part = P_hole of Spec.t | P_conc of Stub.t

type decomposition = {
  op : Dsl.Ast.op;
  parts : part list;  (** in operation-argument order *)
}

val candidates :
  ?tel:Obs.Telemetry.t ->
  ?budget:float ->
  Stub.library ->
  Spec.t ->
  decomposition list
(** Every sketch candidate of the spec with its hole specs built, not yet
    checked by {!recombines}.

    [budget] is the spec's {!Spec.complexity}: what the search's
    simplification filter (PRUNE) demands of a single elementwise hole is
    a complexity strictly below it, since elementwise sketches never tie
    structurally.  With a budget, the six single-hole elementwise
    sketches [add(??,c)], [sub(??,c)], [sub(c,??)], [mul(??,c)],
    [div(??,c)] and [div(c,??)] are first bounded by variable sets alone
    (see {!hole_bound}), and a family of three (additive or
    multiplicative) is skipped unbuilt when its bound reaches the
    budget.  A skipped candidate is one the filter would reject, so the
    filter's verdicts on what is built are exactly its verdicts on the
    full list.  The identities [mul(??,1)] and [div(??,1)], whose hole is
    the spec itself, are skipped this way unless the spec has a nonzero
    element free of symbols or one that may cancel a symbol
    ({!Symbolic.Expr.may_cancel}).  Without a budget every
    candidate is built.  [power(??,1)] is never proposed.  Concrete
    operands come from {!Stub.index}.

    [tel] counts [invert.proposed] (candidates built) and
    [invert.skipped] (candidates the budget skipped, three per skipped
    family). *)

val recombines : Spec.t -> decomposition -> bool
(** Does applying the operation to the parts reproduce the spec
    {e structurally}?  Additive, summing and contraction sketches are
    exact by construction; the others are re-executed symbolically. *)

val hole_bound : multiplicative:bool -> Spec.t -> Stub.t -> float
(** [hole_bound ~multiplicative spec c]: the variable-set lower bound on
    the {!Spec.complexity} of the hole of an elementwise sketch of [spec]
    with concrete operand [c] (which must broadcast to the spec's shape),
    for the additive sketches ([add], [sub]) or the multiplicative ones
    ([mul], [div]).  Per element [i], [D_i = vars(spec_i) Δ vars(c_i)]
    must survive in the hole; a multiplicative sketch does not count an
    element where either operand is zero or may cancel a symbol it shows
    (a [0^q] atom or a sum under a negative power,
    {!Symbolic.Expr.may_cancel}).  The bound is
    [(Σ|D_i| / n) · (#{i : D_i ≠ ∅} / n)], computed with the float
    expression of {!Spec.complexity}, so it never exceeds the complexity
    of a hole the solver builds. *)

val hole_specs : decomposition -> Spec.t list
val conc_cost : decomposition -> float
(** Summed cost of the concrete operands. *)

val reconstruct : decomposition -> Dsl.Ast.t list -> Dsl.Ast.t
(** Rebuild a program from the decomposition with synthesized programs
    substituted for the holes (in {!hole_specs} order). *)

val pp : Format.formatter -> decomposition -> unit
