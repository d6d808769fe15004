type klass = Stenso.Classify.klass =
  | Algebraic_simplification
  | Identity_replacement
  | Redundancy_elimination
  | Strength_reduction
  | Vectorization

let all_klasses =
  [
    Algebraic_simplification;
    Identity_replacement;
    Redundancy_elimination;
    Strength_reduction;
    Vectorization;
  ]

type t = {
  name : string;
  source : [ `Github | `Synthetic ];
  domain : string;
  pattern : string;
  klass : klass;
  env : Dsl.Types.env;
  perf_env : Dsl.Types.env;
  program : Dsl.Ast.t;
  expected_opt : Dsl.Ast.t;
  perf_program : Dsl.Ast.t;
  perf_expected_opt : Dsl.Ast.t;
}

(* [mk name klass ~domain ~pattern ~small ~big ~orig ~opt] builds a
   benchmark from surface syntax.  [small] and [big] are input
   declaration blocks (same names, different shapes). *)
let mk ?orig_big ?opt_big name source klass ~domain ~pattern ~small ~big ~orig ~opt =
  let parse_env decls =
    let env, _ = Dsl.Parser.program (decls ^ "\nreturn 0") in
    env
  in
  let env = parse_env small in
  let perf_env = parse_env big in
  let program = Dsl.Parser.expression orig in
  let expected_opt = Dsl.Parser.expression opt in
  let perf_program =
    match orig_big with
    | None -> program
    | Some src -> Dsl.Parser.expression src
  in
  let perf_expected_opt =
    match opt_big with
    | None -> expected_opt
    | Some src -> Dsl.Parser.expression src
  in
  (* Validate all programs against their environments at build time so a
     malformed table entry fails fast. *)
  ignore (Dsl.Types.infer env program);
  ignore (Dsl.Types.infer env expected_opt);
  ignore (Dsl.Types.infer perf_env perf_program);
  ignore (Dsl.Types.infer perf_env perf_expected_opt);
  {
    name;
    source;
    domain;
    pattern;
    klass;
    env;
    perf_env;
    program;
    expected_opt;
    perf_program;
    perf_expected_opt;
  }

let gh = `Github
let sy = `Synthetic

let github =
  [
    mk "diag_dot" gh Identity_replacement ~domain:"Astrophysics"
      ~pattern:"Calculates Gaussian variance reduction."
      ~small:"input A : f32[3,4]\ninput B : f32[4,3]"
      ~big:"input A : f32[160,192]\ninput B : f32[192,160]"
      ~orig:"np.diag(np.dot(A, B))"
      ~opt:"np.sum(np.multiply(A, B.T), axis=1)";
    mk "elem_square" gh Strength_reduction ~domain:"AI/ML"
      ~pattern:"Calculates differences for L2 norm."
      ~small:"input A : f32[3,3]" ~big:"input A : f32[768,768]"
      ~orig:"np.power(A, 2)" ~opt:"np.multiply(A, A)";
    mk "log_exp_1" gh Algebraic_simplification ~domain:"AI/ML"
      ~pattern:"Adds two Gaussian probability densities."
      ~small:"input A : f32[3,3]\ninput B : f32[3,3]"
      ~big:"input A : f32[768,768]\ninput B : f32[768,768]"
      ~orig:"np.exp(np.log(A + B))" ~opt:"np.add(A, B)";
    mk "log_exp_2" gh Identity_replacement ~domain:"Statistical Computing"
      ~pattern:"Builds up a constraint Gaussian."
      ~small:"input A : f32[3,3]\ninput B : f32[3,3]"
      ~big:"input A : f32[768,768]\ninput B : f32[768,768]"
      ~orig:"np.exp(np.log(A) - np.log(B))" ~opt:"np.divide(A, B)";
    mk "mat_vec_prod" gh Strength_reduction ~domain:"Optimization Algorithms"
      ~pattern:"Computes total profit for items."
      ~small:"input A : f32[3,4]\ninput x : f32[4]"
      ~big:"input A : f32[640,512]\ninput x : f32[512]"
      ~orig:"np.sum(A * x, axis=1)" ~opt:"np.dot(A, x)";
    mk "dot_trans" gh Redundancy_elimination ~domain:"Biomechanics"
      ~pattern:"Calculates rotation matrix for alignment."
      ~small:"input A : f32[3,4]\ninput x : f32[5,3]"
      ~big:"input A : f32[256,384]\ninput x : f32[320,256]"
      ~orig:"np.dot(A.T, x.T)" ~opt:"np.transpose(np.dot(x, A))";
    mk "scalar_sum" gh Identity_replacement ~domain:"Environmental Science"
      ~pattern:"Calculates a weighted statistical moment."
      ~small:"input A : f32[4,3]\ninput x : f32[3]"
      ~big:"input A : f32[640,512]\ninput x : f32[512]"
      ~orig:"np.sum(A * x, axis=0)" ~opt:"np.multiply(np.sum(A, axis=0), x)";
    mk "vec_lerp" gh Vectorization ~domain:"Computer Graphics"
      ~pattern:"Creates a color gradient from distance."
      ~small:"input x : f32[3]\ninput y : f32[3]\ninput A : f32[4,1]"
      ~big:"input x : f32[2048]\ninput y : f32[2048]\ninput A : f32[144,1]"
      ~orig:"np.stack([x*a + (1 - a)*y for a in A])"
      ~opt:"A*x + (1 - A)*y";
    mk "euclidian_dist" gh Strength_reduction ~domain:"Scientific Computing"
      ~pattern:"Calculates Euclidean distance of matrix."
      ~small:"input A : f32[3,4]" ~big:"input A : f32[768,512]"
      ~orig:"np.sum(np.power(A, 2), axis=-1)"
      ~opt:"np.sum(np.multiply(A, A), axis=-1)";
    mk "common_factor" gh Algebraic_simplification ~domain:"Augmented Reality"
      ~pattern:"Combines vectors for smoothing."
      ~small:"input A : f32[3,3]\ninput B : f32[3,3]\ninput C : f32[3,3]"
      ~big:
        "input A : f32[640,640]\ninput B : f32[640,640]\ninput C : f32[640,640]"
      ~orig:"A * B + C * B" ~opt:"np.multiply(np.add(A, C), B)";
    mk "inner_prod" gh Strength_reduction ~domain:"Physics"
      ~pattern:"Calculates weighted average ion charge."
      ~small:"input a : f32[4]\ninput b : f32[4]"
      ~big:"input a : f32[262144]\ninput b : f32[262144]"
      ~orig:"np.sum(np.multiply(a, b))" ~opt:"np.dot(a, b)";
    mk "scale_dot" gh Identity_replacement ~domain:"Benchmarking"
      ~pattern:"Computes matrix product with scaling."
      ~small:"input a : f32[]\ninput A : f32[3,4]\ninput B : f32[4,3]"
      ~big:"input a : f32[]\ninput A : f32[256,320]\ninput B : f32[320,256]"
      ~orig:"np.dot(a * A, B)" ~opt:"np.multiply(a, np.dot(A, B))";
    mk "reshape_dot" gh Redundancy_elimination ~domain:"Benchmarking"
      ~orig_big:
        "np.reshape(np.dot(np.reshape(A, (48, 48, 1, 64)), B), (48, 48, 64))"
      ~pattern:"Kernel of a scientific simulation."
      ~small:"input A : f32[2,2,3]\ninput B : f32[3,3]"
      ~big:"input A : f32[48,48,64]\ninput B : f32[64,64]"
      ~orig:"np.reshape(np.dot(np.reshape(A, (2, 2, 1, 3)), B), (2, 2, 3))"
      ~opt:"np.dot(A, B)";
    mk "dot_trans_2" gh Redundancy_elimination ~domain:"Physics Simulation"
      ~pattern:"Double transpose of a matrix."
      ~small:"input A : f32[3,4]" ~big:"input A : f32[768,768]"
      ~orig:"np.transpose(np.transpose(A))" ~opt:"A";
    mk "power_neg" gh Strength_reduction ~domain:"AI/ML"
      ~pattern:"Element-wise inverse of a matrix."
      ~small:"input A : f32[3,3]" ~big:"input A : f32[768,768]"
      ~orig:"np.power(A, -1)" ~opt:"np.divide(1, A)";
    mk "sum_sum" gh Redundancy_elimination ~domain:"AI/ML"
      ~pattern:"Sums a matrix over two axes."
      ~small:"input A : f32[3,4]" ~big:"input A : f32[768,768]"
      ~orig:"np.sum(np.sum(A, axis=0), axis=0)" ~opt:"np.sum(A)";
    mk "sum_stack" gh Identity_replacement ~domain:"Computational Biology"
      ~pattern:"Stacks and sums multiple matrices."
      ~small:"input A : f32[3,3]\ninput B : f32[3,3]\ninput C : f32[3,3]"
      ~big:
        "input A : f32[512,512]\ninput B : f32[512,512]\ninput C : f32[512,512]"
      ~orig:"np.sum(np.stack([A, B, C]), axis=0)"
      ~opt:"np.add(np.add(A, B), C)";
    mk "sum_diag_dot" gh Identity_replacement ~domain:"Audio Processing"
      ~pattern:"Calculates trace of a dot product."
      ~small:"input A : f32[3,4]\ninput B : f32[4,3]"
      ~big:"input A : f32[160,192]\ninput B : f32[192,160]"
      ~orig:"np.sum(np.diag(np.dot(A, B)))"
      ~opt:"np.sum(np.multiply(A, B.T))";
    mk "max_stack" gh Identity_replacement ~domain:"Computational Biology"
      ~pattern:"Stacks and finds element-wise max."
      ~small:"input A : f32[3,3]\ninput B : f32[3,3]"
      ~big:"input A : f32[640,640]\ninput B : f32[640,640]"
      ~orig:"np.max(np.stack([A, B]), axis=0)" ~opt:"np.maximum(A, B)";
    mk "trace_dot" gh Identity_replacement ~domain:"Computer Graphics"
      ~pattern:"Calculates trace of a matrix product."
      ~small:"input A : f32[3,4]\ninput B : f32[3,4]"
      ~big:"input A : f32[160,192]\ninput B : f32[160,192]"
      ~orig:"np.trace(A @ B.T)" ~opt:"np.sum(np.multiply(A, B))";
    mk "reorder_dot" gh Redundancy_elimination ~domain:"Network Simulation"
      ~pattern:"Computes the quadratic form x^T A x."
      ~small:"input x : f32[4,1]\ninput A : f32[4,4]"
      ~big:"input x : f32[640,1]\ninput A : f32[640,640]"
      ~orig:"x.T @ A @ x"
      ~opt:"np.tensordot(x, np.dot(A, x), ([0], [0]))";
  ]

let synth ?orig_big name klass ~small ~big ~orig ~opt =
  mk ?orig_big name sy klass ~domain:"-" ~pattern:"Synthetic expression."
    ~small ~big ~orig ~opt

let mat2 = "input A : f32[3,3]\ninput B : f32[3,3]"
let mat2_big = "input A : f32[640,640]\ninput B : f32[640,640]"
let mat1 = "input A : f32[3,3]"
let mat1_big = "input A : f32[768,768]"

let synthetic =
  [
    synth "synth_1" Algebraic_simplification ~small:mat2 ~big:mat2_big
      ~orig:"(A * B) + 3 * (A * B)" ~opt:"np.multiply(4, np.multiply(A, B))";
    synth "synth_2" Algebraic_simplification ~small:mat2 ~big:mat2_big
      ~orig:"A + B - A - A + B * B - B"
      ~opt:"np.subtract(np.multiply(B, B), A)";
    synth "synth_3" Algebraic_simplification ~small:mat2 ~big:mat2_big
      ~orig:"(A + B) / np.sqrt(A + B)" ~opt:"np.sqrt(np.add(A, B))";
    synth "synth_4" Algebraic_simplification ~small:mat2 ~big:mat2_big
      ~orig:"A + A + B - A - A - B * B"
      ~opt:"np.subtract(B, np.multiply(B, B))";
    synth "synth_5" Algebraic_simplification
      ~small:"input a : f32[]\ninput B : f32[3,3]"
      ~big:"input a : f32[]\ninput B : f32[768,768]"
      ~orig:"np.power(np.sqrt(a), 4) + 2 * B"
      ~opt:"np.add(np.multiply(a, a), np.multiply(2, B))";
    synth "synth_6" Algebraic_simplification ~small:mat1 ~big:mat1_big
      ~orig:"np.power(np.sqrt(A) + np.sqrt(A), 2)" ~opt:"np.multiply(4, A)";
    synth "synth_7" Strength_reduction ~small:mat1 ~big:mat1_big
      ~orig:"np.power(A, 6) / np.power(A, 4)" ~opt:"np.multiply(A, A)";
    synth "synth_8" Algebraic_simplification ~small:mat2 ~big:mat2_big
      ~orig:"A * B + A * B" ~opt:"np.multiply(2, np.multiply(A, B))";
    synth "synth_9" Identity_replacement
      ~small:"input A : f32[3,4]\ninput x : f32[4]"
      ~big:"input A : f32[640,512]\ninput x : f32[512]"
      ~orig:"np.sum(np.sum(A * x, axis=0))"
      ~opt:"np.dot(np.sum(A, axis=0), x)";
    synth "synth_10" Vectorization ~small:"input A : f32[4,3]"
      ~big:"input A : f32[96,2048]"
      ~orig:"np.stack([x * 2 for x in A], axis=0)" ~opt:"np.multiply(2, A)";
    synth "synth_11" Strength_reduction ~small:mat1 ~big:mat1_big
      ~orig:"A * A * A * A * A" ~opt:"np.power(A, 5)";
    synth "synth_12" Strength_reduction ~small:mat1 ~big:mat1_big
      ~orig:"A + A + A + A + A" ~opt:"np.multiply(5, A)";
  ]

let masking =
  [
    mk "where_max" gh Identity_replacement ~domain:"Signal Processing"
      ~pattern:"Selects the larger of two envelopes."
      ~small:"input A : f32[3,3]\ninput B : f32[3,3]"
      ~big:"input A : f32[640,640]\ninput B : f32[640,640]"
      ~orig:"np.where(np.less(A, B), B, A)" ~opt:"np.maximum(A, B)";
    mk "triu_add" gh Redundancy_elimination ~domain:"Numerical Linear Algebra"
      ~pattern:"Accumulates two upper-triangular factors."
      ~small:"input A : f32[3,3]\ninput B : f32[3,3]"
      ~big:"input A : f32[640,640]\ninput B : f32[640,640]"
      ~orig:"np.triu(A) + np.triu(B)" ~opt:"np.triu(np.add(A, B))";
    mk "triu_idem" gh Redundancy_elimination ~domain:"Numerical Linear Algebra"
      ~pattern:"Re-masks an already triangular matrix."
      ~small:"input A : f32[3,3]" ~big:"input A : f32[768,768]"
      ~orig:"np.triu(np.triu(A))" ~opt:"np.triu(A)";
    mk "masked_square" gh Strength_reduction ~domain:"Statistics"
      ~pattern:"Squares the upper triangle of a covariance."
      ~small:"input A : f32[3,3]" ~big:"input A : f32[768,768]"
      ~orig:"np.triu(np.power(A, 2))" ~opt:"np.triu(np.multiply(A, A))";
    mk "where_same" gh Redundancy_elimination ~domain:"Data Cleaning"
      ~pattern:"Branches to identical values."
      ~small:"input A : f32[3,3]\ninput B : f32[3,3]\ninput C : f32[3,3]"
      ~big:
        "input A : f32[640,640]\ninput B : f32[640,640]\ninput C : f32[640,640]"
      ~orig:"np.where(np.less(A, B), C, C)" ~opt:"C";
    mk "log_mask" gh Algebraic_simplification ~domain:"Statistics"
      ~pattern:"Round-trips a masked density."
      ~small:"input A : f32[3,3]" ~big:"input A : f32[768,768]"
      ~orig:"np.tril(np.exp(np.log(A)))" ~opt:"np.tril(A)";
  ]

let ml =
  [
    mk "softmax_vec" gh Redundancy_elimination ~domain:"AI/ML"
      ~pattern:"Numerically-stable softmax over a logit vector."
      ~small:"input x : f32[4]" ~big:"input x : f32[262144]"
      ~orig:"np.exp(x - np.max(x)) / np.sum(np.exp(x - np.max(x)))"
      ~opt:"np.exp(x) / np.sum(np.exp(x))";
    mk "softmax_stable" gh Redundancy_elimination ~domain:"AI/ML"
      ~pattern:"Row-wise stable softmax of a logit matrix."
      ~small:"input A : f32[2,3]" ~big:"input A : f32[512,512]"
      ~orig:
        "np.exp(A - np.max(A, axis=1, keepdims=True)) / np.sum(np.exp(A - \
         np.max(A, axis=1, keepdims=True)), axis=1, keepdims=True)"
      ~opt:"np.exp(A) / np.sum(np.exp(A), axis=1, keepdims=True)";
    mk "logsumexp" gh Algebraic_simplification ~domain:"AI/ML"
      ~pattern:"Max-shifted log-sum-exp of a score vector."
      ~small:"input x : f32[4]" ~big:"input x : f32[262144]"
      ~orig:"np.max(x) + np.log(np.sum(np.exp(x - np.max(x))))"
      ~opt:"np.log(np.sum(np.exp(x)))";
    mk "layernorm" gh Algebraic_simplification ~domain:"AI/ML"
      ~pattern:"Two-pass layer normalization over the feature axis."
      ~small:"input X : f32[32]" ~big:"input X : f32[65536]"
      ~orig:
        "(np.reshape(X, (4, 8)) - np.sum(np.reshape(X, (4, 8)), axis=1, \
         keepdims=True) / 8.0) / np.sqrt(np.sum((np.reshape(X, (4, 8)) - \
         np.sum(np.reshape(X, (4, 8)), axis=1, keepdims=True) / 8.0) * \
         (np.reshape(X, (4, 8)) - np.sum(np.reshape(X, (4, 8)), axis=1, \
         keepdims=True) / 8.0), axis=1, keepdims=True) / 8.0 + 0.00001)"
      ~opt:
        "(np.reshape(X, (4, 8)) - np.sum(np.reshape(X, (4, 8)), axis=1, \
         keepdims=True) / 8.0) / np.sqrt(np.sum(np.reshape(X, (4, 8)) * \
         np.reshape(X, (4, 8)), axis=1, keepdims=True) / 8.0 - \
         (np.sum(np.reshape(X, (4, 8)), axis=1, keepdims=True) / 8.0) * \
         (np.sum(np.reshape(X, (4, 8)), axis=1, keepdims=True) / 8.0) + \
         0.00001)"
      ~orig_big:
        "(np.reshape(X, (512, 128)) - np.sum(np.reshape(X, (512, 128)), \
         axis=1, keepdims=True) / 128.0) / np.sqrt(np.sum((np.reshape(X, \
         (512, 128)) - np.sum(np.reshape(X, (512, 128)), axis=1, \
         keepdims=True) / 128.0) * (np.reshape(X, (512, 128)) - \
         np.sum(np.reshape(X, (512, 128)), axis=1, keepdims=True) / 128.0), \
         axis=1, keepdims=True) / 128.0 + 0.00001)"
      ~opt_big:
        "(np.reshape(X, (512, 128)) - np.sum(np.reshape(X, (512, 128)), \
         axis=1, keepdims=True) / 128.0) / np.sqrt(np.sum(np.reshape(X, \
         (512, 128)) * np.reshape(X, (512, 128)), axis=1, keepdims=True) / \
         128.0 - (np.sum(np.reshape(X, (512, 128)), axis=1, keepdims=True) / \
         128.0) * (np.sum(np.reshape(X, (512, 128)), axis=1, keepdims=True) \
         / 128.0) + 0.00001)";
    mk "rmsnorm" gh Strength_reduction ~domain:"AI/ML"
      ~pattern:"Root-mean-square normalization of a hidden state."
      ~small:"input x : f32[8]" ~big:"input x : f32[262144]"
      ~orig:"x / np.power(np.sum(np.power(x, 2)) / 8.0 + 0.00001, 0.5)"
      ~opt:"x / np.sqrt(np.sum(x * x) / 8.0 + 0.00001)"
      ~orig_big:
        "x / np.power(np.sum(np.power(x, 2)) / 262144.0 + 0.00001, 0.5)"
      ~opt_big:"x / np.sqrt(np.sum(x * x) / 262144.0 + 0.00001)";
    mk "attn_scores" gh Redundancy_elimination ~domain:"AI/ML"
      ~pattern:"Stable softmax of scaled attention scores."
      ~small:"input Q : f32[2,4]\ninput K : f32[3,4]"
      ~big:"input Q : f32[128,64]\ninput K : f32[128,64]"
      ~orig:
        "np.exp(Q @ K.T / 8.0 - np.max(Q @ K.T / 8.0, axis=1, \
         keepdims=True)) / np.sum(np.exp(Q @ K.T / 8.0 - np.max(Q @ K.T / \
         8.0, axis=1, keepdims=True)), axis=1, keepdims=True)"
      ~opt:
        "np.exp(Q @ K.T / 8.0) / np.sum(np.exp(Q @ K.T / 8.0), axis=1, \
         keepdims=True)";
    mk "attn_mix" gh Algebraic_simplification ~domain:"AI/ML"
      ~pattern:"Normalizes attention weights before mixing values."
      ~small:"input W : f32[2,3]\ninput V : f32[3,2]"
      ~big:"input W : f32[512,512]\ninput V : f32[512,64]"
      ~orig:"np.dot(W / np.sum(W, axis=1, keepdims=True), V)"
      ~opt:"np.dot(W, V) / np.sum(W, axis=1, keepdims=True)";
    mk "gelu_tanh" gh Strength_reduction ~domain:"AI/ML"
      ~pattern:"Tanh-approximated GELU activation."
      ~small:"input x : f32[4]" ~big:"input x : f32[262144]"
      ~orig:
        "x * np.exp(2.0 * (0.7979 * (x + 0.0447 * np.power(x, 3)))) \
         / (1.0 + np.exp(2.0 * (0.7979 * (x + 0.0447 * np.power(x, \
         3)))))"
      ~opt:
        "x / (1.0 + np.exp(-2.0 * (0.7979 * (x + 0.0447 * \
         np.power(x, 3)))))";
    mk "maxpool1d" gh Algebraic_simplification ~domain:"AI/ML"
      ~pattern:"Shift-invariant sliding-window max pooling."
      ~small:"input x : f32[8]" ~big:"input x : f32[524288]"
      ~orig:"np.max(np.reshape(x, (4, 2)) - 1.0, axis=1) + 1.0"
      ~opt:"np.max(np.reshape(x, (4, 2)), axis=1)"
      ~orig_big:"np.max(np.reshape(x, (262144, 2)) - 1.0, axis=1) + 1.0"
      ~opt_big:"np.max(np.reshape(x, (262144, 2)), axis=1)";
  ]

(* The lifting tier: DSL-side ground truth for the bundled scalar
   loop kernels in [Lifted].  [program] is the form the lifting
   front-end is expected to synthesize (the test oracle for
   round-trips), [expected_opt] the superoptimized form; [perf_env] /
   [perf_expected_opt] give the large-shape program whose VM time is
   compared against the scalar loop interpreter in BENCH_lift. *)
let lifted =
  [
    mk "lift_dot" gh Vectorization ~domain:"Lifted"
      ~pattern:"Inner product accumulated over one loop."
      ~small:"input A : f32[8]\ninput B : f32[8]"
      ~big:"input A : f32[65536]\ninput B : f32[65536]"
      ~orig:"np.sum(A * B)" ~opt:"np.dot(A, B)";
    mk "lift_saxpy" gh Vectorization ~domain:"Lifted"
      ~pattern:"Scaled vector addition a*x + y."
      ~small:"input a : f32[]\ninput x : f32[8]\ninput y : f32[8]"
      ~big:"input a : f32[]\ninput x : f32[65536]\ninput y : f32[65536]"
      ~orig:"a * x + y" ~opt:"a * x + y";
    mk "lift_rowsum" gh Vectorization ~domain:"Lifted"
      ~pattern:"Row-wise sum of a matrix."
      ~small:"input A : f32[4,8]" ~big:"input A : f32[512,512]"
      ~orig:"np.sum(A, axis=1)" ~opt:"np.sum(A, axis=1)";
    mk "lift_matmul" gh Vectorization ~domain:"Lifted"
      ~pattern:"Textbook triple-loop matrix multiply."
      ~small:"input A : f32[3,4]\ninput B : f32[4,5]"
      ~big:"input A : f32[48,64]\ninput B : f32[64,56]"
      ~orig:"np.dot(A, B)" ~opt:"np.dot(A, B)";
    mk "lift_normalize" gh Vectorization ~domain:"Lifted"
      ~pattern:"Divide a vector by its own sum."
      ~small:"input x : f32[8]" ~big:"input x : f32[65536]"
      ~orig:"x / np.sum(x)" ~opt:"x / np.sum(x)";
    mk "lift_maxpool" gh Vectorization ~domain:"Lifted"
      ~pattern:"Window-2 sliding max pooling."
      ~small:"input x : f32[8]" ~big:"input x : f32[524288]"
      ~orig:"np.max(np.reshape(x, (4, 2)), axis=1)"
      ~opt:"np.max(np.reshape(x, (4, 2)), axis=1)"
      ~orig_big:"np.max(np.reshape(x, (262144, 2)), axis=1)"
      ~opt_big:"np.max(np.reshape(x, (262144, 2)), axis=1)";
    mk "lift_softmax" gh Vectorization ~domain:"Lifted"
      ~pattern:"Two-pass softmax over a vector."
      ~small:"input x : f32[8]" ~big:"input x : f32[65536]"
      ~orig:"np.exp(x) / np.sum(np.exp(x))"
      ~opt:"np.exp(x) / np.sum(np.exp(x))";
    mk "lift_mse" gh Vectorization ~domain:"Lifted"
      ~pattern:"Mean squared error between two vectors."
      ~small:"input A : f32[8]\ninput B : f32[8]"
      ~big:"input A : f32[65536]\ninput B : f32[65536]"
      ~orig:"np.sum((A - B) * (A - B)) / 8.0"
      ~opt:"np.dot(A - B, A - B) / 8.0"
      ~orig_big:"np.sum((A - B) * (A - B)) / 65536.0"
      ~opt_big:"np.dot(A - B, A - B) / 65536.0";
  ]

let all = github @ synthetic

let find name =
  List.find (fun b -> b.name = name) (all @ masking @ ml @ lifted)

let find_opt name =
  List.find_opt (fun b -> b.name = name) (all @ masking @ ml @ lifted)
