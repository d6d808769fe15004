(** Arbitrary rationals over native [int] numerator/denominator.

    The symbolic engine only ever manipulates small coefficients and
    exponents (benchmark expressions have at most six operations and
    constants like 2, 3, 1/2), so 63-bit components are ample.  All
    values are kept normalized: positive denominator, gcd 1. *)

type t = private { num : int; den : int }

exception Overflow
(** Raised when an operation's exact result does not fit native ints
    (the symbolic engine treats it as "cannot normalize"). *)

val make : int -> int -> t
(** [make n d] is the normalized rational n/d. Raises [Division_by_zero]
    if [d = 0]. *)

val of_int : int -> t
val zero : t
val one : t
val minus_one : t
val half : t

val num : t -> int
val den : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
val inv : t -> t
val abs : t -> t

val pow_int : t -> int -> t
(** [pow_int q n] is [q] raised to the (possibly negative) integer [n]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool
val is_one : t -> bool
val is_integer : t -> bool

val to_int : t -> int option
(** [to_int q] is [Some n] when [q] is the integer [n]. *)

val to_float : t -> float

val of_float : float -> t option
(** Exact conversion for floats that are small dyadic rationals or
    integers; [None] for anything that does not round-trip. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val render : Buffer.t -> t -> unit
(** Append {!to_string}'s text to the buffer. *)
