(** Scalar symbols: a tensor-input name plus the element's index vector.

    Symbolic execution populates each input tensor with one symbol per
    element, e.g. the (0,1) element of input [A] is the symbol [A_{0,1}].
    All symbols are assumed positive (mirroring the paper's use of SymPy
    with positive assumptions), which licenses the power/sqrt/log
    simplification rules in {!Expr}. *)

type t = { base : string; indices : int array }

val make : string -> int array -> t
val scalar : string -> t
(** A rank-0 input's single symbol. *)

val base : t -> string
val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val render : Buffer.t -> t -> unit
(** Append {!to_string}'s text to the buffer. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
