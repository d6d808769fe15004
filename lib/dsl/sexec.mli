(** Symbolic execution of DSL programs.

    Programs run on tensors of normalized {!Symbolic.Expr} values; an
    input named [A] of shape (2,3) is populated with the six positive
    symbols [A[i,j]].  The result — a symbolic tensor — is the program's
    specification [Φ]: it captures the computation's semantics
    independently of syntactic form, exactly as the paper obtains its
    target specification via SymPy (Section IV-A). *)

module Expr_elt : Tensor.Elt.S with type t = Symbolic.Expr.t
(** The symbolic element domain.  Its [of_float] is the one constant
    embedding: lifting's kernel specs go through it too, so kernel and
    candidate specs agree on literals that are not exact rationals. *)

module Stensor : Tensor.Nd.S with type elt = Symbolic.Expr.t
(** Tensors of symbolic expressions. *)

val input_tensor : string -> Tensor.Shape.t -> Stensor.t
(** Fresh symbolic input: element [idx] is the symbol [name[idx]]. *)

val sym_env : Types.env -> (string * Stensor.t) list
(** Symbolic inputs for a whole typing environment. *)

val exec : (string -> Stensor.t) -> Ast.t -> Stensor.t
(** {!Eval} over {!Stensor}; raises {!Eval.Eval_error} on unbound
    inputs. *)

val apply_op : Ast.op -> Stensor.t list -> Stensor.t
(** Apply a single operation to symbolic arguments (used by the
    synthesizer to execute stubs and reconstruct sketch outputs). *)

val exec_env : Types.env -> Ast.t -> Stensor.t
(** [exec_env env t] symbolically executes [t] on {!sym_env}[ env]. *)

val equivalent : Types.env -> Ast.t -> Ast.t -> bool
(** Symbolic equivalence of two programs over the same inputs: equal
    shapes and structurally equal normalized elements. Sound (never
    claims equivalence wrongly on positive inputs); complete for the
    algebraic fragment handled by {!Symbolic.Expr}. *)

val complexity : Stensor.t -> float
(** The paper's specification-complexity metric, Section V-A:
    [|var(Φ)| * density(Φ)] where [|var|] is the mean per-element count
    of distinct symbols and density the fraction of nonzero elements. *)

val density : Stensor.t -> float

val eval_concrete :
  (Symbolic.Sym.t -> float) -> Stensor.t -> Tensor.Ftensor.t
(** Numeric evaluation of a symbolic tensor under a symbol assignment —
    the bridge used by property tests to validate symbolic execution
    against the concrete interpreter. *)
