(** AST of the scalar loop-nest kernel language.

    A kernel is a C-like function over float scalars and dense float
    arrays: constant-bound [for] loops, assignments with integer index
    expressions, the arithmetic operators [+ - * /], and the intrinsics
    [sqrtf]/[expf]/[logf]/[fmaxf].  Exactly one parameter is marked
    [out]; the lifting engine treats the kernel as a pure function from
    its [in] parameters to that output and synthesizes an equivalent
    tensor-DSL program (see [Stenso.Lift]). *)

type binop = Add | Sub | Mul | Div
type intrinsic = Sqrt | Exp | Log | Fmax

type expr =
  | Num of float
  | Var of string  (** scalar parameter, local, or loop index *)
  | Load of string * expr list  (** [A[i][j]]; indices are int-valued *)
  | Neg of expr
  | Binop of binop * expr * expr
  | Intrinsic of intrinsic * expr list

type lhs = { base : string; indices : expr list }

type stmt =
  | Decl of { name : string; init : expr }  (** [float x = e;] *)
  | Assign of lhs * expr
  | For of { var : string; lo : int; hi : int; body : stmt list }

type io = In | Out

type param = { pname : string; dims : int list; io : io }
(** [dims = []] is a scalar parameter. *)

type kernel = { kname : string; params : param list; body : stmt list }

val intrinsic_name : intrinsic -> string
val intrinsic_arity : intrinsic -> int

val out_param : kernel -> param
(** The unique [out] parameter (the parser guarantees exactly one). *)

val dsl_env : kernel -> Dsl.Types.env
(** The DSL typing environment of the [in] parameters, in declaration
    order: arrays become float tensors, scalars rank-0 tensors. *)

val literals : kernel -> float list
(** Distinct float literals of the body, in first-occurrence order —
    the constant terminals for stub enumeration. *)

val pp : Format.formatter -> kernel -> unit
val to_string : kernel -> string
(** Renders back to the surface syntax ([Loop_parser.kernel] inverts
    it). *)
