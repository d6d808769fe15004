(** Reference interpreter for the loop-nest kernel language, generic
    over the element domain.

    The same interpreter runs twice in the lifting pipeline: over
    floats to sample the kernel's behavioral signature (and as the
    slow-path baseline the lifted program is benchmarked against), and
    over {!Symbolic.Expr} scalars to extract the kernel's exact
    symbolic specification for certification.  Loop bounds are
    constants, so the symbolic instantiation simply executes every
    iteration. *)

exception Eval_error of string
(** Raised on semantic errors: unbound or shadowed variables, index
    out of bounds or non-affine, assignment to an [in] parameter,
    rank/arity mismatches. *)

module Make (D : Tensor.Elt.S) : sig
  val run : Loop_ast.kernel -> (string * D.t array) list -> D.t array
  (** [run k inputs] executes the kernel on flat row-major input
      buffers (a scalar is a one-element array) and returns the flat
      row-major contents of the [out] parameter, zero-initialized
      before the body runs.  Inputs are copied, never mutated. *)
end

val run_tensors :
  Loop_ast.kernel -> (string * Tensor.Ftensor.t) list -> Tensor.Ftensor.t
(** The kernel run over floats: inputs as float tensors
    matching {!Loop_ast.dsl_env}, result shaped like the [out]
    parameter. *)
