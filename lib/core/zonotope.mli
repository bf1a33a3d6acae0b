(** The Multi-norm Zonotope abstract domain (Section 4, Equation 4).

    A Multi-norm Zonotope abstracts a matrix-shaped set of values
    [x = c + A·φ + B·ε] with [‖φ‖ₚ ≤ 1] and [ε ∈ [-1, 1]^E∞]. The [φ]
    symbols express an ℓp-ball input perturbation exactly; the [ε]
    symbols are the classical zonotope generators, and new ones are
    introduced by the non-linear abstract transformers.

    {b Representation.} The abstracted value is an [vrows x vcols]
    matrix; variable [(i, j)] is row [i * vcols + j] of the coefficient
    matrices. [phi] has one column per φ symbol and never grows after
    construction; [eps] has one column per ε symbol and grows as
    transformers allocate fresh symbols from a shared {!ctx}.

    {b Symbol identity.} ε column [k] always denotes the global symbol
    [k] of the owning context. Zonotopes created earlier simply have
    fewer columns; {!align} zero-pads so that values produced at
    different times can be combined exactly. *)

exception Unbounded
(** Raised when the abstraction has numerically collapsed: a bound became
    NaN (typically inf - inf after the exponential or a dot-product
    remainder overflowed at an absurdly large probe radius). Certification
    front-ends catch it and report "not certified" — always sound. *)

type ctx
(** Shared ε-symbol allocator for one verification run. *)

val ctx : unit -> ctx
(** Fresh context with no allocated symbols. *)

val ctx_symbols : ctx -> int
(** Number of ε symbols allocated so far. *)

val alloc_eps : ctx -> int -> int
(** [alloc_eps ctx n] reserves [n] fresh symbol ids, returning the first. *)

val reset_symbols : ctx -> int -> unit
(** [reset_symbols ctx n] declares that only [n] symbols remain live —
    used by noise-symbol reduction, which renumbers the symbol space.
    Only sound when a single zonotope is alive, or when the values alive
    beside it never meet it while the ids overlap: {!Attention_t} rewinds
    the counter for each head, and the heads' values meet only in
    {!linear_join} [~own], which moves each head's symbols past the
    earlier heads' ones. *)

val set_deadline : ctx -> float option -> unit
(** [set_deadline ctx (Some t)] arms an absolute wall-clock deadline
    (epoch seconds, as returned by [Unix.gettimeofday]) that long-running
    transformers poll {e inside} their hot loops via {!check_deadline}.
    {!Propagate.run} arms it from {!Config.budget.time_limit_s} so a
    single giant dot product cannot overrun the budget between the
    per-op checkpoints. [None] disarms. *)

val check_deadline : ctx -> unit
(** @raise Verdict.Abort [Timeout] if the armed deadline has passed.
    No-op (one branch) when disarmed. Safe to call from pool worker
    domains: the deadline is read-only while transformers run. *)

val set_pool : ctx -> Tensor.Dpool.t option -> unit
(** [set_pool ctx (Some p)] shards the row blocks of {!Dot.matmul_zz},
    the dot product that dominates DeepT-Precise, over the domain pool
    [p]. Each block writes its own output rows with the serial
    arithmetic, so results are bit-identical to the serial run (see
    {!Tensor.Dpool}). Every other transformer runs on the calling
    domain. [None] (the default) keeps the dot product there too. *)

val ctx_pool : ctx -> Tensor.Dpool.t option
(** The pool armed by {!set_pool}, if any. *)

type t = {
  vrows : int;
  vcols : int;
  p : Lp.t;  (** the norm bounding the φ symbols *)
  center : Tensor.Mat.t;  (** [vrows x vcols] *)
  phi : Tensor.Mat.t;  (** [(vrows * vcols) x Ep] *)
  eps : Tensor.Mat.t;  (** [(vrows * vcols) x E∞ (prefix)] *)
  eps_occ : Tensor.Bands.t;
      (** column-band occupancy of [eps]: outside the band union every
          entry of [eps] is ±0.0 (see {!Tensor.Bands}). Maintained by
          every transformer; [Tensor.Bands.full] is always sound. *)
}

(** {1 Construction} *)

val of_const : Lp.t -> Tensor.Mat.t -> t
(** Point zonotope (no noise symbols). *)

val make : p:Lp.t -> center:Tensor.Mat.t -> phi:Tensor.Mat.t -> eps:Tensor.Mat.t -> t
(** Checks coefficient row counts against the value shape. The occupancy
    defaults to [Bands.empty] for a zero-column ε matrix and
    [Bands.full] otherwise; sharpen it afterwards with {!with_eps_occ}. *)

val with_eps_occ : Tensor.Bands.t -> t -> t
(** [with_eps_occ occ z] replaces the ε occupancy. The caller asserts
    [occ] covers every nonzero of [z.eps] ({!Tensor.Bands}); with
    [DEEPT_NO_SPARSE] set the occupancy is pinned to [Bands.full]
    regardless. *)

val fresh_bands :
  fresh:int array -> base:int -> rows:int -> per_row:int -> Tensor.Bands.t
(** Occupancy of freshly minted symbols: [fresh.(v)] is the id offset
    (from global id [base]) minted for flat variable [v], or [-1].
    Offsets must ascend with [v] (how all transformers allocate), so the
    ids of one value row of [per_row] variables form a contiguous column
    range — the result has one band per value row that minted any. *)

val num_vars : t -> int
val num_phi : t -> int
val num_eps : t -> int

(** {1 Concrete bounds (Theorem 1)} *)

val bounds : t -> Interval.Imat.t
(** Tight per-variable interval bounds: [c ± (‖α‖_q + ‖β‖₁)]. *)

val bounds_var : t -> int -> Interval.Itv.t
(** Bounds of one flat variable index. *)

val dual_row_norm : Lp.t -> Tensor.Mat.t -> int -> float
(** [dual_row_norm p m v] is the ℓ_q norm of row [v] of [m], [q] the dual
    of [p] — the φ term of that row's radius. The ℓ2 norm is rescaled by
    the row's largest magnitude so that huge entries do not overflow. *)

val radius_terms : t -> int -> float * float
(** [(‖α_v‖_q, ‖β_v‖₁)] for variable [v] — the φ and ε contributions to
    its radius. *)

(** {1 Sampling (for soundness tests)} *)

val sample : Tensor.Rng.t -> t -> Tensor.Mat.t
(** A concrete matrix obtained by instantiating all noise symbols inside
    their domains. Every sample must satisfy the bounds. *)

val instantiate : t -> phi:float array -> eps:float array -> Tensor.Mat.t
(** Concrete value for given symbol instantiations ([eps] may be shorter
    than the global symbol count; missing symbols are 0). *)

(** {1 Exact affine transformers (Theorem 2)} *)

val linear_map : ?scan:bool -> t -> Tensor.Mat.t -> float array -> t
(** [linear_map x w b] abstracts the row-wise affine map [x·w + b]. When
    [x] has an infinite coefficient, the NaN an infinity times a zero
    weight leaves in the result is widened to +∞ (sound: the radius
    term is then infinite anyway). Deciding that scans [x]'s φ and ε.
    [~scan:false] skips the scan and the widening, for a caller that
    poison-scans the result and aborts on NaN and ∞ alike, and whose
    inputs have passed that scan ({!Propagate}'s [Linear] transfer): the
    widening could only change which of the two it finds. *)

val linear_split : t -> (Tensor.Mat.t * float array) list -> parts:int -> t array list
(** [linear_split z [(w1, b1); ...] ~parts] maps [z] by every
    [(w_i, b_i)] and cuts each result into [parts] equal runs of value
    columns (the attention heads of Q, K and V): part [j] of map [i] is
    [select_value_cols (linear_map z w_i b_i) (j * d_i) d_i] with
    [d_i = cols w_i / parts], bit for bit, occupancy included. Each part
    is mapped straight into its own matrices by its own weight columns,
    with no map of the whole width cut afterwards, and [z]'s
    finiteness is scanned once for all maps. *)

val linear_join : ?own:int -> t list -> Tensor.Mat.t -> float array -> t
(** [linear_join zs w b] is [linear_map] of the values [zs] side by side
    (equal value row counts; the attention heads before the output
    projection), bit for bit, occupancy included, without building the
    concatenation: each operand's coefficients are mapped by its rows of
    [w] and accumulated into the output in order.

    [~own:w0] declares that each operand ran in its own symbol space
    from the [w0] symbols all share ({!Attention_t}'s heads): operand
    [h]'s ε columns from [w0] on are its own symbols, and they take the
    ids behind the own symbols of the operands before it. The result is
    [linear_join] of the operands with that many zero columns inserted
    at [w0] ({!Tensor.Bands.insert_gap} for the occupancy), bit for bit,
    and with a finite [w] no operand is copied: its own columns map
    straight to their place in the output. *)

val add : t -> t -> t
(** Sum of two zonotopes over the same symbols (ε widths may differ;
    the shorter is zero-padded). Value shapes must match. *)

val add_const : t -> Tensor.Mat.t -> t
val scale : float -> t -> t

val scale_fresh : float -> t -> t
(** [scale_fresh s z] is [scale s z], bit for bit, computed in [z]'s own
    matrices, which it overwrites. Only for a [z] nothing else holds: a
    transformer's result that has not been handed on (the attention
    scores, scaled as soon as their product returns). *)

val neg : t -> t

(** {1 Symbol splitting (branch-and-bound refinement)} *)

type half = Lower | Upper

type symbol =
  | Phi of int  (** an ℓp-constrained input noise symbol (column of φ) *)
  | Eps of int  (** an ℓ∞ noise symbol (column of ε) *)

val restrict_symbol : t -> symbol -> half -> t
(** [restrict_symbol z sym half] restricts one noise symbol to the lower
    ([[-1, 0]]) or upper ([[0, 1]]) half of its range, re-centering the
    affected variables and halving the symbol's coefficients — the
    splitting primitive of {!Brefine}'s branch-and-bound.

    For an [Eps] symbol the split is an exact partition: the [Lower] and
    [Upper] branches together concretize to exactly the parent. For a
    [Phi] symbol (jointly constrained by [‖φ‖_p ≤ 1]) halving in place
    would be unsound, so the split coordinate is {e decoupled}: its φ
    column is zeroed and re-issued as a fresh trailing ε column of half
    magnitude around the half's midpoint. Each branch is then a sound
    relaxation of "parent ∩ half" and the two branches still cover the
    parent, which is all branch-and-bound needs ("every branch certifies"
    remains a sound proof); the branch is strictly tighter than the
    parent in the split coordinate.

    Pure float multiply-adds in a fixed order: bit-deterministic across
    runs, processes and domain counts.
    @raise Invalid_argument if the symbol index is out of range. *)

val center_rows : t -> gamma:float array -> beta:float array -> t
(** The paper's normalization layer (no std): subtract the row mean of
    the value, then scale each column by [gamma] and shift by [beta] —
    all affine, hence exact. *)

val add_center_rows :
  t -> t -> gamma:float array -> beta:float array -> t
(** [add_center_rows a b ~gamma ~beta] is [center_rows (add a b) ~gamma
    ~beta] bit for bit, occupancy included: the residual sum and the
    post-LN normalization of a Transformer layer in one pass, with the
    sum formed row by row inside the centering loop and never stored
    whole. *)

val positional : t -> Tensor.Mat.t -> t
(** Adds constant positional rows to the value. *)

(** {1 Structural operations} *)

val padded_occ : Tensor.Bands.t -> n:int -> cur:int -> w:int -> Tensor.Bands.t
(** The occupancy of an [n]-row ε matrix of [cur] columns after padding
    it with zero columns to width [w]: a full occupancy becomes one band
    over the first [cur] columns (when [cur < w]). *)

val pad_eps : t -> int -> t
(** Zero-pads the ε matrix to the given width (no-op if already wider). *)

val pool_first : t -> t
(** Restricts to the first value row. *)

val select_value_rows : t -> int -> int -> t
(** [select_value_rows z start n] keeps value rows [start..start+n-1]. *)

val select_value_cols : t -> int -> int -> t
(** Keeps a contiguous range of value columns. *)

val transpose_value : t -> t
(** Transposes the abstracted value (pure reindexing of variables). *)

val reshape_value : t -> rows:int -> cols:int -> t
(** Reinterprets the value shape keeping the flat (row-major) variable
    order; [rows * cols] must equal {!num_vars}. *)

val of_rows : t list -> t
(** Stacks zonotopes of equal value width top to bottom (single-row
    ones, value shape [1 x d], in the softmax). Built in one pass; the
    columns, coefficients and occupancy are those of a left fold of
    pairwise stackings. *)

val stack_rows :
  ?refine:(t -> v0:int -> nv:int -> ee:int -> Tensor.Bands.t -> Tensor.Bands.t) ->
  t list list ->
  t
(** [stack_rows groups] stacks groups of [n] scalar values (value shape
    [1 x 1]) into a [rows x n] value, row [r] holding group [r]: bit for
    bit, occupancy included, it is [of_rows] of the [1 x n] rows
    [reshape_value (of_rows g) ~rows:1 ~cols:n], or of [refine]d ones,
    with every scalar copied once. [refine z ~v0 ~nv ~ee occ] refines
    row [v0 / nv] in [z]'s matrices in place, as the row of width [ee]
    and occupancy [occ] would be refined, and returns the refined row's
    occupancy ({!Refinement.softmax_sum_in_place}). This is how the
    stable softmax builds its output. *)

val map_rows_affine : t -> Tensor.Mat.t -> t
(** [map_rows_affine z m] abstracts [m · x] for the constant matrix [m]
    applied from the left to the [vrows x vcols] value [x]. *)

(** {1 Dead-symbol compaction} *)

val eps_density : t -> float
(** Live fraction of the ε coefficient matrix per its occupancy bands
    ([Tensor.Bands.density]); 1.0 when nothing is known (full). *)

val compact : t -> t
(** Physically drops ε columns covered by no occupancy band and remaps
    the surviving columns (order-preserving) in both the matrix and the
    bands. Dropped columns are provably ±0.0 in every row, so radii,
    bounds and verdicts are bit-identical before and after.

    {b Symbol identity caveat:} after compaction ε column ids no longer
    match the owning {!ctx}'s global numbering — callers that index
    symbols ({!restrict_symbol} [Eps k]) must remap, and the ctx must be
    re-synced via {!reset_symbols} when the compacted value is the only
    one alive (noise-symbol reduction and branch evaluation do both). *)

(** {1 Variable-level access (used by the transformers)} *)

val var_affine : t -> int -> float * float array * float array
(** [(c, α_row, β_row)] of a flat variable (copies). *)

val phi_block : t -> int -> int -> Tensor.Mat.t
(** [phi_block z start n] copies coefficient rows [start..start+n-1]. *)

val eps_block : t -> int -> int -> Tensor.Mat.t

val contains_sample : ?tol:float -> t -> Tensor.Mat.t -> bool
(** Quick necessary check used in tests: the matrix lies inside the
    interval concretization {!bounds}. *)
