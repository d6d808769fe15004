(** Parser for the NumPy-flavoured surface syntax of the DSL.

    A program file declares its inputs and returns one expression:
    {v
    # gaussian variance reduction
    input A : f32[3, 3]
    input B : f32[3, 3]
    return np.diag(np.dot(A, B))
    v}

    Expressions support the operators [+ - * / @ **], unary minus,
    postfix [.T], numeric literals, [np.<fn>(...)] calls with [axis=]
    keywords, shape/axes tuples, and the comprehension form
    [np.stack([e for v in X])].  This mirrors the Python subset the
    paper's artifact accepts as benchmark sources. *)

exception Parse_error of string

val program : string -> Types.env * Ast.t
(** Parse a whole program (input declarations + return). *)

val expression : string -> Ast.t
(** Parse a bare expression (no declarations). *)

val unparse : Types.env -> Ast.t -> string
(** Render a program back to the surface syntax accepted by {!program}
    ([input] declarations in environment order, then [return]); the
    round trip [program (unparse env e)] reproduces [(env, e)], constants
    to the bit: each prints as the shortest of its integer form, [%g],
    [%.15g], [%.16g] and [%.17g] that reads back exactly ({!Ast.pp}).
    This is the canonical program rendering: the CLI's output files, the
    persistent store's cached entries and the serve daemon's front keys
    all use it, so "byte-identical program" is well defined across them
    and two programs with the same text are the same program. *)
