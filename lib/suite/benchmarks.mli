(** The paper's benchmark suite (Tables I and II): 21 programs sourced
    from public GitHub repositories and 12 synthetic expressions.

    Every benchmark carries two typing environments: [env] uses small
    shapes for synthesis (symbolic execution stays compact, as in the
    paper where the spec is built at the input's ranks), and [perf_env]
    uses representative large shapes for performance measurement.  The
    [klass] labels reproduce the paper's manual classification into five
    transformation classes (Fig. 6), and [expected_opt] records the
    published (or directly implied) optimized form, used as a test
    oracle and as the reference implementation in speedup benches. *)

type klass = Stenso.Classify.klass =
  | Algebraic_simplification
  | Identity_replacement
  | Redundancy_elimination
  | Strength_reduction
  | Vectorization

val all_klasses : klass list

type t = {
  name : string;
  source : [ `Github | `Synthetic ];
  domain : string;  (** application domain (Table I); "-" for synthetic *)
  pattern : string;  (** computational-pattern description *)
  klass : klass;
  env : Dsl.Types.env;  (** small shapes for synthesis *)
  perf_env : Dsl.Types.env;  (** large shapes for performance runs *)
  program : Dsl.Ast.t;  (** the original implementation *)
  expected_opt : Dsl.Ast.t;  (** reference optimized implementation *)
  perf_program : Dsl.Ast.t;
      (** the original at performance shapes (differs from [program]
          only when shape attributes are embedded, e.g. [reshape]) *)
  perf_expected_opt : Dsl.Ast.t;  (** reference optimized, perf shapes *)
}

val github : t list
val synthetic : t list

val masking : t list
(** Extension suite beyond the paper's tables: benchmarks exercising the
    grammar's masking operations ([where]/[less]/[triu]/[tril]), whose
    optimization relies on the density component of the simplification
    metric.  Not included in {!all} (the paper's 33). *)

val ml : t list
(** Extension suite of ML-kernel workloads: softmax (vector and
    row-wise stable forms), log-sum-exp, layer/RMS normalization,
    attention score and mixing pieces, tanh-approximated GELU, and
    sliding-window max pooling.  These exercise the exp/log/max
    identities (max-shift invariance, [log(exp x) = x], positive
    common-factor extraction) and keepdims-style broadcasting of
    reduced tensors.  Not included in {!all} (the paper's 33). *)

val lifted : t list
(** DSL-side ground truth for the {!Lifted} scalar loop kernels: each
    entry's [program] is the form the lifting front-end is expected to
    synthesize (round-trip test oracle) and [perf_expected_opt] the
    large-shape program whose VM time BENCH_lift compares against the
    scalar loop interpreter.  Not included in {!all}. *)

val all : t list
(** The paper's 33 benchmarks (Tables I and II). *)

val find : string -> t
(** Raises [Not_found]. *)

val find_opt : string -> t option
