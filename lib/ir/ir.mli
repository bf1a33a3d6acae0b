(** Model intermediate representation.

    Every network in this repository — Transformer encoders for sentiment
    classification, the Vision Transformer, plain feed-forward ReLU nets —
    is compiled to this small sequential SSA-style IR. All analyses are
    interpreters over it: concrete inference ([Nn.Forward]), interval
    bound propagation ([Interval.Ibp]), Multi-norm Zonotope propagation
    ([Deept.Propagate]) and linear relaxation ([Linrelax]).

    Values are matrices. Value [0] is the program input (the embedded
    token sequence, [n x d] with [n] variable at run time); the op at
    index [i] defines value [i + 1]. Ops refer to earlier values by id,
    which encodes residual connections directly. *)

type value_id = int
(** Index into the value environment: 0 is the input, [i + 1] is the
    output of op [i]. *)

type attention = {
  heads : int;  (** number of attention heads [A] *)
  wq : Tensor.Mat.t;  (** query projection, [d x (A * dk)] *)
  bq : float array;  (** query bias, length [A * dk] *)
  wk : Tensor.Mat.t;  (** key projection, [d x (A * dk)] *)
  bk : float array;  (** key bias *)
  wv : Tensor.Mat.t;  (** value projection, [d x (A * dv)] *)
  bv : float array;  (** value bias *)
  wo : Tensor.Mat.t;  (** output projection, [(A * dv) x d] *)
  bo : float array;  (** output bias, length [d] *)
}
(** Multi-head self-attention parameters (Section 3.1 of the paper). *)

type op =
  | Linear of { src : value_id; w : Tensor.Mat.t; b : float array }
      (** Row-wise affine map: [y = x * w + b], [w : d_in x d_out]. *)
  | Relu of value_id
  | Tanh of value_id
  | Add of value_id * value_id
      (** Entrywise sum of two earlier values (residual connections). *)
  | Center_norm of {
      src : value_id;
      gamma : float array;
      beta : float array;
      divide_std : bool;
    }
      (** Row-wise normalization: subtract the row mean, optionally divide
          by the row standard deviation, then scale by [gamma] and shift
          by [beta]. The paper's default ([divide_std = false]) follows
          Shi et al.: no division by the standard deviation. *)
  | Self_attention of { src : value_id; att : attention }
  | Pool_first of value_id
      (** Keep only the first row (the paper's pooling layer). *)
  | Positional of { src : value_id; pos : Tensor.Mat.t }
      (** Adds the constant positional-encoding row [pos.(i)] to row [i].
          Requires the run-time row count to not exceed [rows pos]. *)

type program = {
  input_dim : int;  (** number of columns of the input value *)
  ops : op array;
}

val output_id : program -> value_id
(** Id of the last value, the program output. *)

val num_values : program -> int
(** Total number of values including the input. *)

val op_src_ids : op -> value_id list
(** The value ids an op reads. *)

val out_dim : program -> value_id -> int
(** Statically known column count of a value. Row counts depend on the
    input sequence length (until [Pool_first], which forces 1 row). *)

val validate : program -> (unit, string) result
(** Checks SSA well-formedness: every source id precedes its use, all
    weight shapes agree with the inferred value shapes, attention head
    counts divide projection widths. Also rejects NaN/Inf weight
    entries with a precise op-path message ("op 3 (self_attention):
    weight wq has nan at (0, 2)") so a corrupt model file fails at load
    time instead of surfacing as a mid-propagation [Numerical_fault]. *)

val validate_exn : program -> unit
(** Like {!validate} but raises [Invalid_argument] with the message. *)

val num_params : program -> int
(** Total number of scalar parameters. *)

val kind_name : op -> string
(** Constructor name of an op ("linear", "self_attention", ...), the
    key used by {!depth_of_kind} and by {!Interp} trace events. *)

val depth_of_kind : program -> string -> int
(** [depth_of_kind p kind] counts ops whose constructor name matches
    [kind] (e.g. ["self_attention"] counts Transformer layers). *)

val pp : Format.formatter -> program -> unit
(** Structural summary: one line per op with shapes. *)
