(** Concrete (eager) evaluation of DSL programs on float tensors: the
    reference interpreter, {!Eval} over {!Tensor.Ftensor}.

    Booleans are represented as 0/1 tensors, the convention of the
    {!Tensor} substrate. *)

val eval : (string -> Tensor.Ftensor.t) -> Ast.t -> Tensor.Ftensor.t
(** [eval env t] raises {!Eval.Eval_error} on unbound inputs and lets
    the tensor substrate raise [Invalid_argument] on shape errors (which
    type-checked programs never trigger). *)

val eval_alist : (string * Tensor.Ftensor.t) list -> Ast.t -> Tensor.Ftensor.t

val apply_op : Ast.op -> Tensor.Ftensor.t list -> Tensor.Ftensor.t
(** Apply a single operation to already-evaluated arguments (the
    execution IR's constant folding and lifting's value pruning run
    operations in isolation). *)

val random_inputs :
  ?lo:float -> ?hi:float -> Random.State.t -> Types.env ->
  (string * Tensor.Ftensor.t) list
(** Fresh random concrete inputs matching a typing environment (booleans
    are sampled as 0/1). *)
