(** The evaluator of DSL programs, generic over the tensor domain.

    Concrete interpretation ({!Interp}, float tensors) and symbolic
    execution ({!Sexec}, tensors of normalized expressions) are one
    semantics run over two element domains, so both instantiate this
    walk: one pass per operation, mirroring NumPy eager semantics. *)

exception Eval_error of string
(** Unbound inputs and operations applied to the wrong number of
    arguments.  Shape errors, which type-checked programs never
    trigger, surface as the tensor substrate's [Invalid_argument]. *)

module Make
    (T : Tensor.Nd.S)
    (C : sig
      val const : float -> T.elt
      (** How a literal [Const f] enters the domain. *)
    end) : sig
  val eval : (string -> T.t) -> Ast.t -> T.t

  val apply_op : Ast.op -> T.t list -> T.t
  (** Apply a single operation to already-evaluated arguments. *)

  val eval_alist : (string * T.t) list -> Ast.t -> T.t
  (** [eval] over an association list; an unbound input raises
      {!Eval_error}. *)
end
