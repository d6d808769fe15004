(** Normalized symbolic expressions — the SymPy substitute.

    Every constructor function returns a canonically normalized value, so
    that algebraic equality of the fragment we care about coincides with
    structural equality ({!equal}).  The normal form is a polynomial over
    {e atoms} (symbols, transcendental applications, and non-expandable
    powers) with rational coefficients:

    - sums are flattened, like terms combined, terms sorted;
    - products are flattened, equal bases merged by adding exponents,
      integer powers of sums expanded (up to a size cap), factors sorted;
    - [pow] applies [(x*y)^e = x^e y^e] and [(x^a)^b = x^(ab)], which is
      sound because {e all symbols are assumed positive} (the paper runs
      SymPy with positive symbols for the same reason);
    - [exp]/[log] are mutual inverses and distribute over sums/products.

    Equality is therefore complete for polynomial/rational expressions
    with syntactically identical denominator atoms, and sound on the
    engine's assumption domain: [equal a b = true] implies the two
    expressions agree whenever every subexpression evaluates to a
    positive real (in particular, on positive inputs combined with
    positivity-preserving operations).  [log] of a value below one
    leaves that domain; rules that are sign-agnostic (such as
    [exp (log x) = x] on positive [x]) remain valid regardless. *)

type t = private
  | Rat of Q.t
  | Var of Sym.t
  | Add of t list  (** >= 2 sorted combined terms *)
  | Mul of t list  (** optional leading rational, >= 2 entries, sorted distinct bases *)
  | Pow of t * t
  | App of fn * t list

and fn = Exp | Log | Max | Less | Where

(** {1 Constructors} *)

val rat : Q.t -> t
val int : int -> t
val zero : t
val one : t
val var : Sym.t -> t
val sym : string -> t
(** [sym name] is a scalar symbol variable. *)

val add : t list -> t
val sub : t -> t -> t
val mul : t list -> t
val neg : t -> t
val div : t -> t -> t
val pow : t -> t -> t
val sqrt : t -> t
val exp : t -> t
val log : t -> t
val max2 : t -> t -> t
val less : t -> t -> t
val where : t -> t -> t -> t

(** {1 Classification and access} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
(** Structural hash over the whole tree, consistent with {!equal}. *)

val hash_combine : int -> int -> int
(** The mixing step of {!hash}: folds one more value into a hash state,
    for hashing structures built from expressions. *)

val is_zero : t -> bool
val is_one : t -> bool
val to_const : t -> Q.t option
(** [to_const e] is [Some q] when [e] is the literal rational [q]. *)

val terms : t -> t list
(** Summands of a sum, or the singleton list. *)

val split_coeff : t -> Q.t * t
(** [split_coeff t] writes a term as [coeff * rest] with [rest] carrying
    no leading rational ([rest] is [one] when [t] is a constant). *)

val factors : t -> t list
(** Factors of a product (including any rational coefficient), or the
    singleton list. *)

val vars : t -> Sym.Set.t
(** All symbols occurring in the expression. *)

val base_names : t -> string list
(** Sorted distinct input-tensor names occurring in the expression. *)

val may_cancel : t -> bool
(** Can a product with this expression or its reciprocal lose symbols
    the expression shows?  True when it contains an opaque [0^q] atom
    ([q <= 0], which evaluates to an infinity: the product may collapse
    to zero) or has a sum under a negative power among its factors (an
    unreduced quotient: [I1*I2*(I2 - I1*I2)^-1] shows [I2], but [I1]
    divided by it expands to [1 - I1]). *)

val size : t -> int
(** Number of nodes — a syntactic complexity measure. *)

(** {1 Algebraic queries used by the synthesis solver} *)

val div_exact : t -> t -> t option
(** [div_exact a b] is [Some (a/b)] when the quotient introduces no new
    denominator atom (i.e. the division is exact as far as the normal
    form can tell), and [None] otherwise. *)

val linear_coeff : t -> Sym.t -> (t * t) option
(** [linear_coeff e x] decomposes [e = c*x + r] where neither [c] nor [r]
    mentions [x]; [None] when [e] is not linear in [x]. *)

val root_exact : t -> Q.t -> t option
(** [root_exact e q] is [Some r] with [r^q = e] when the [1/q]-th power
    of [e] normalizes without leaving fractional powers that were not
    already present in [e]. Used to invert [power] sketches. *)

(** {1 Evaluation and substitution} *)

val eval : (Sym.t -> float) -> t -> float
(** Numeric evaluation; [Less] yields 1.0/0.0, [Where] selects on
    nonzero. Used by property tests to validate normalization. *)

val subst : (Sym.t -> t option) -> t -> t
(** Capture-free substitution followed by re-normalization. *)

(** {1 Printing} *)

val to_string : t -> string
(** The canonical rendering; spec keys ([Spec.key]) are built
    from it, so its output is part of every persistent key. *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string}. *)

(** {1 Fast paths}

    The hottest calls of the synthesis loops skip the general
    normaliser.  Each fast path returns exactly the value the general
    path returns, so the canonical term order, {!to_string} and every
    persistent key are unchanged:

    - {!compare} and {!equal} answer [0]/[true] at once on physically
      equal arguments;
    - [add] of zero or one value, and [add [a; b]]: two terms that are
      not sums are combined or ordered directly, and a sum with a term
      or a sum merges two term lists already ordered by their
      coefficient-free rests;
    - [mul] of zero or one value, of two rationals, of a rational and
      an atom (a symbol, power or application), a product or a sum
      (which only rescales), and of two atoms or products with no base
      in common (which only merges two ordered factor lists);
    - [div_exact t (var s)] for a term [t] that is not a sum lowers
      [s]'s exponent among [t]'s factors, and settles a [t] that does
      not mention [s] as inexact; everything else (sums, [s] under a
      non-rational exponent, below the top level, or left with a
      negative exponent) takes the general path.

    Values also share nodes where they are equal: [add] and [mul] keep
    the operand terms and factors they leave unchanged instead of
    rebuilding equal ones, and each rational [n] or [n/2] with
    [|n| <= 8] is one shared node.  Sharing is invisible to every
    function here except in speed and memory.

    {!Reference} exposes the general paths so property tests can check
    each fast path against them. *)

module Reference : sig
  val add : t list -> t
  (** {!add} without its fast paths at the top level. *)

  val mul : t list -> t
  (** {!mul} without its fast paths at the top level. *)

  val div_exact : t -> t -> t option
  (** The quotient-and-check division {!div_exact} uses for a
      non-sum divisor, without the one-symbol path. *)
end

(** Sharing equal products and powers between values kept together:
    a stub library holds tens of thousands of values built separately
    from the same products (every value built on a contraction repeats
    its products). *)
module Intern : sig
  type table

  val create : unit -> table

  val intern : table -> t -> t
  (** An expression equal to the argument in which a product or power
      — the expression itself or a term of it — is replaced by the
      equal one interned into the same table before, if any. *)
end
