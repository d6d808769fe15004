(** Abstract syntax of the tensor DSL.

    This is the grammar of Fig. 3 in the paper (NumPy operations over
    float and boolean tensors with shape/axis attributes), extended with
    the operations the paper's own benchmark suite uses: [exp], [log],
    [maximum], [stack], [diag], [trace], [reshape], and the
    list-comprehension loop [For_stack] that models
    [np.stack([body for v in xs])]. *)

type reduce = { axis : int option; keepdims : bool }
(** Reduction attributes: [axis = None] reduces all axes; [keepdims]
    keeps every reduced axis as size 1 so the result broadcasts back
    over its source (NumPy's [keepdims=True]). *)

type op =
  | Add
  | Sub
  | Mul
  | Div
  | Pow_op
  | Maximum
  | Sqrt
  | Exp
  | Log
  | Dot
  | Tensordot of int list * int list
  | Transpose of int array option  (** [None] reverses all axes *)
  | Sum of reduce
  | Max of reduce
  | Stack of int  (** axis *)
  | Where
  | Less
  | Triu
  | Tril
  | Diag
  | Trace
  | Reshape of int array
  | Full of int array  (** target shape; the single argument is a scalar *)

type t =
  | Input of string
  | Const of float
  | App of op * t list
  | For_stack of { var : string; iter : string; body : t }
      (** [np.stack([body for var in iter], axis=0)] where [iter] names
          an input tensor iterated along axis 0. *)

val reduce : ?keepdims:bool -> int option -> reduce
(** [reduce axis] with [keepdims] defaulting to [false]. *)

val sum_op : ?keepdims:bool -> int option -> op
val max_op : ?keepdims:bool -> int option -> op

val op_name : op -> string
val op_arity : op -> int
val equal : t -> t -> bool
val compare : t -> t -> int

val size : t -> int
(** Number of AST nodes. *)

val inputs : t -> string list
(** Sorted distinct free input names (comprehension variables are
    bound and excluded). *)

val subst_inputs : (string * t) list -> t -> t
(** Simultaneous substitution: every [Input name] bound in the list is
    replaced in one traversal, so replacements are never re-substituted
    — [subst_inputs [("X", Input "Y"); ("Y", Input "Q")]] maps [X] to
    [Y] and [Y] to [Q], where the sequential folds would corrupt [X]'s
    replacement into [Q].  A comprehension variable shadows a binding of
    the same name inside its body. *)

val children : t -> t list
val map_children : (t -> t) -> t -> t

val pp : Format.formatter -> t -> unit
(** NumPy-flavoured rendering, e.g. [np.dot(np.multiply(A, C), B)].
    Constants print exactly: the shortest of the integer form, [%g],
    [%.15g], [%.16g] and [%.17g] that reads back to the same float. *)

val to_string : t -> string
