(** Dense row-major matrices of floats.

    This is the numeric workhorse of the whole library: concrete network
    inference, autodiff, interval matrices and zonotope coefficient blocks
    are all stored as [Mat.t]. The representation is a flat [float array]
    indexed as [data.(r * cols + c)]; all loops are written in the
    cache-friendly i-k-j order where it matters. *)

type t = private { rows : int; cols : int; data : float array }
(** A [rows] x [cols] matrix. The [data] array has length [rows * cols]
    and is exposed (read-only via the private row) for hot loops. *)

(** {1 Construction} *)

val create : int -> int -> t
(** [create r c] is the r x c zero matrix. *)

val make : int -> int -> float -> t
(** [make r c v] fills every entry with [v]. *)

val init : int -> int -> (int -> int -> float) -> t
(** [init r c f] sets entry (i, j) to [f i j]. *)

val of_array : rows:int -> cols:int -> float array -> t
(** Wraps a flat row-major array (takes ownership; no copy). *)

val of_rows : float array array -> t
(** Builds a matrix from an array of equal-length rows (copies). *)

val row_vector : float array -> t
(** 1 x n matrix sharing no storage with the argument. *)

val col_vector : float array -> t
(** n x 1 matrix. *)

val identity : int -> t
(** Identity matrix. *)

val random_uniform : Rng.t -> int -> int -> float -> t
(** [random_uniform rng r c s] has entries uniform in [-s, s]. *)

val random_gaussian : Rng.t -> int -> int -> float -> t
(** [random_gaussian rng r c std] has N(0, std^2) entries. *)

val copy : t -> t
(** Deep copy. *)

(** {1 Access} *)

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> float
(** Bounds-checked element access. *)

val set : t -> int -> int -> float -> unit
(** Bounds-checked element update. *)

val row : t -> int -> float array
(** [row m i] copies row [i] out. *)

val col : t -> int -> float array
(** [col m j] copies column [j] out. *)

val to_rows : t -> float array array
(** All rows, copied. *)

val dims : t -> int * int
(** [(rows, cols)]. *)

(** {1 Shape surgery} *)

val transpose : t -> t
val hcat : t -> t -> t
(** Horizontal concatenation; requires equal row counts. *)

val vcat : t -> t -> t
(** Vertical concatenation; requires equal column counts. *)

val sub_rows : t -> int -> int -> t
(** [sub_rows m start n] extracts rows [start .. start+n-1]. *)

val sub_cols : t -> int -> int -> t
(** [sub_cols m start n] extracts columns [start .. start+n-1]. *)

val reshape : t -> rows:int -> cols:int -> t
(** Reinterprets the same data with a new shape (copies; sizes must agree). *)

val select_cols : t -> int array -> t
(** [select_cols m idx] keeps the listed columns, in order. *)

(** {1 Pointwise and scalar operations} *)

val map : (float -> float) -> t -> t
val mapi : (int -> int -> float -> float) -> t -> t
val zip : (float -> float -> float) -> t -> t -> t
(** Pointwise binary operation; shapes must match. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
(** Hadamard (entrywise) product. *)

val scale : float -> t -> t
val add_scalar : float -> t -> t
val abs : t -> t
val neg : t -> t

val add_in_place : t -> t -> unit
(** [add_in_place dst src] accumulates [src] into [dst]. *)

val axpy : float -> t -> t -> unit
(** [axpy a x y] performs y := y + a*x in place. *)

val scale_in_place : float -> t -> unit
val fill : t -> float -> unit

(** {1 Linear algebra} *)

val matmul : ?cols:(int * int) list -> t -> t -> t
(** [matmul a b] with a: m x k, b: k x n gives m x n. Runs the
    register-blocked kernel on the calling domain; results are
    bit-identical to {!matmul_naive} on finite data. [MAT_NAIVE=1] in
    the environment forces the naive kernel (read once at startup).

    [cols] (sorted half-open intervals, typically
    [Bands.col_intervals]) restricts the computed output columns: tiles
    outside the intervals are skipped and those outputs keep the +0.0
    of the fresh result buffer. The caller asserts the skipped columns
    are dead — all-zero in [b] with [a] free of infinities — which
    makes the skipped +0.0 exactly what the dense kernel would have
    computed, so the restriction cannot change a bit. [MAT_NAIVE=1]
    ignores [cols] and computes the dense product (same bits, same
    argument). *)

val matmul_naive : t -> t -> t
(** The original i-k-j reference kernel, serial and unblocked. The seed
    baseline of [bench/kernels.ml] and the oracle of the kernel
    equivalence property tests. *)

val matmul_ta : ?cols:(int * int) list -> t -> t -> t
(** [matmul_ta a b] = [matmul (transpose a) b] without materializing the
    transpose: a: k x m, b: k x n gives m x n. [cols] as in {!matmul}. *)

val matmul_ta_acc :
  ?cols:(int * int) list ->
  ?b_cols:int * int ->
  ?out_col:int ->
  t ->
  t ->
  b_row:int ->
  t ->
  out_row:int ->
  unit
(** [matmul_ta_acc a b ~b_row out ~out_row] adds [aᵀ · b'] into rows
    [out_row .. out_row + m - 1] of [out] in place, where [b'] is rows
    [b_row .. b_row + k - 1] of [b] (a: k x m). No block is copied in or
    out. [b] may be narrower than [out]: only [out]'s first [cols b]
    columns are touched. It is the kernel behind {!matmul_ta}, which
    runs it on a fresh output at offset 0.

    Each output continues its running sum from the value [out] holds,
    adding the same ascending-k terms {!matmul_ta} adds to +0.0. So on a
    +0.0 output the result is bit-identical to [matmul_ta], and k-blocks
    accumulated one call after another equal one call over the stacked
    operands. [cols] as in {!matmul}: skipped outputs keep their value,
    which is the dense result when the skipped columns of [b'] are
    ±0.0, [a] is finite and the stored value is not -0.0 (a sum started
    at +0.0 never is). [MAT_NAIVE=1] runs the naive kernel with the
    same offsets and ignores [cols].

    [b_cols = (c0, c1)] restricts [b'] to its columns [c0 .. c1 - 1]
    (default: all) and [out_col] is the column of [out] that column
    [c0] adds into (default [c0]); only those [c1 - c0] output columns
    are touched, and [cols] still names columns of [b]. This is how a
    range of symbol columns maps straight to the place it takes in a
    wider output ([Zonotope.linear_join]). *)

val matmul_tb : ?cols:(int * int) list -> t -> t -> t
(** [matmul_tb a b] = [matmul a (transpose b)] without materializing the
    transpose: a: m x k, b: n x k gives m x n. [cols] as in {!matmul}
    (dead columns here are all-zero rows of [b]). *)

val gemm : ?ta:bool -> ?tb:bool -> t -> t -> t
(** General matrix product with optional operand transposes, fused into
    the blocked kernels (no transpose copies except for [ta && tb]). *)

val mat_vec : t -> float array -> float array
(** Matrix-vector product. *)

val vec_mat : float array -> t -> float array
(** Row-vector times matrix. *)

val add_row_broadcast : t -> float array -> t
(** Adds a length-[cols] vector to every row. *)

val mul_row_broadcast : t -> float array -> t
(** Multiplies every row entrywise by a length-[cols] vector. *)

(** {1 Reductions} *)

val sum : t -> float
val fold : ('a -> float -> 'a) -> 'a -> t -> 'a
val frobenius : t -> float
val max_abs : t -> float

val finite_class : t -> [ `Finite | `Inf | `Nan ]
(** Poison scan: [`Nan] if any entry is NaN, else [`Inf] if any entry is
    infinite, else [`Finite]. NaN dominates Inf. A branch-free pass
    settles the all-finite case; only a matrix with a non-finite entry
    is scanned a second time to tell NaN from Inf. Used by the
    verifier's per-op checkpoints to detect numerical faults early. *)

val row_sums : t -> float array
val row_means : t -> float array
val col_sums : t -> float array

val row_lp_norms : t -> float -> float array
(** [row_lp_norms m p] is the ℓp norm of each row; [p] may be [infinity]. *)

val equal : ?tol:float -> t -> t -> bool
(** Entrywise comparison with absolute tolerance (default 0). *)

val pp : Format.formatter -> t -> unit
(** Human-readable printer (truncates large matrices). *)
