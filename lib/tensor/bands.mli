(** Column-band occupancy for sparse coefficient matrices.

    A zonotope's ε coefficient matrix is structurally sparse: input
    symbols fill a dense left block, every symbol minted by a nonlinear
    transfer touches only the rows of the op that introduced it, and
    [Zonotope.restrict_symbol] appends near-one-hot columns. This module
    tracks that structure as a small sorted list of rectangular bands
    [(col_lo, col_hi, row_lo, row_hi)] — half-open ranges over the
    matrix's columns (noise symbols) and rows (flattened variables).

    The invariant is one-directional: {e outside} the band union every
    entry has absolute value 0.0 (the sign of a dead zero is not
    tracked — e.g. scaling by a negative turns a dead [+0.0] into
    [-0.0]). Inside a band nothing is promised. An occupancy therefore
    over-approximates the nonzero support, and [full] — every entry
    possibly live — is always a sound fallback, which is what every
    transfer falls back to when it cannot maintain bands precisely.

    Bands are what the tile-skipping kernels consume ({!col_intervals} /
    {!row_intervals} feed [Mat.matmul ~cols]) and what dead-symbol
    compaction inspects (a column outside every band is provably zero
    and can be dropped). *)

type band = { col_lo : int; col_hi : int; row_lo : int; row_hi : int }
(** A rectangle of possibly-nonzero entries: columns [col_lo .. col_hi)
    of rows [row_lo .. row_hi). *)

type t
(** An occupancy: either [full] (no information — every entry possibly
    nonzero) or a normalized list of bands whose union covers every
    nonzero entry. A band list also caches its row-slab table, built on
    the first {!row_intervals}, {!col_intervals} or {!area} query (see
    {!row_intervals}). Structural equality sees that cache too; two
    occupancies hold the same bands when their {!to_bands} agree. *)

val enabled : bool
(** False when [DEEPT_NO_SPARSE] is set (to anything but [""] or ["0"])
    in the environment, read once at startup. When false, consumers
    must treat every occupancy as {!full}: {!col_intervals} and
    {!row_intervals} return the dense interval and {!is_empty} is
    always false, so the tile-skipping and compaction paths degrade to
    the dense kernels without call sites having to test the flag. *)

val full : t
(** No structure known; every entry possibly nonzero. Always sound. *)

val empty : t
(** Every entry provably zero (e.g. a zero-width or all-zero matrix). *)

val of_bands : band list -> t
(** Normalizes (drops degenerate rectangles, sorts by [col_lo], merges
    mergeable neighbours, caps the band count by coalescing into
    bounding boxes). Over-approximation is preserved by construction. *)

val to_bands : rows:int -> cols:int -> t -> band list
(** The band list, concretizing [full] to the single dense band of the
    given shape. Clips bands to the shape. *)

val is_full : t -> bool

val is_empty : t -> bool
(** True only when the occupancy proves the whole matrix zero. Always
    false when sparsity is disabled ({!enabled} = false). *)

val add : t -> band -> t
(** Union with one more rectangle. [add full _ = full]. *)

val union : t -> t -> t

val shift_rows : int -> t -> t
(** Translate every band down by [d] rows ([full] stays [full]); used
    when matrices are stacked ([vcat]). *)

val restrict_rows : lo:int -> hi:int -> t -> t
(** Occupancy of the row slice [lo .. hi), rebased to row 0 ([full]
    stays [full]); exact for contiguous row selections. *)

val widen_rows : rows:int -> t -> t
(** Forget row structure: every band stretched to [0 .. rows). Sound
    over-approximation for transfers that mix rows arbitrarily. *)

val block_rows : bin:int -> bout:int -> t -> t
(** Convert row granularity: round each band's row range outward to
    whole [bin]-row blocks, then rescale block indices to [bout] rows
    each. This is the occupancy transform of every per-value-row affine
    map (a value row of [bin] scalars becomes one of [bout] scalars):
    output rows of block [i] depend only on input rows of block [i]. *)

val col_intervals : cols:int -> t -> (int * int) list
(** Merged, sorted, disjoint live column intervals over all rows,
    clipped to [0 .. cols); [[(0, cols)]] for [full] (and whenever
    sparsity is disabled). This is the [~cols] argument of the
    tile-skipping kernels. *)

val repeat_intervals : times:int -> cols:int -> t -> (int * int) list
(** {!col_intervals} repeated for [times] side-by-side copies of the
    [cols]-column matrix: copy [j] is shifted by [j * cols]. These are
    the live columns of a coefficient matrix of [times] value columns
    viewed as one row of [times * cols] entries per value row. *)

val row_intervals : lo:int -> hi:int -> cols:int -> t -> (int * int) list
(** Like {!col_intervals} but restricted to bands meeting rows
    [lo .. hi) — the per-row-block refinement used when a kernel works
    on one value row at a time; [[]] when [lo >= hi].

    Answered from the occupancy's row-slab table: the bands' distinct
    row boundaries cut the rows into slabs that each band covers whole
    or misses, and each slab holds the merged column intervals of the
    bands covering it. The table is built once per occupancy, on the
    first query, and cached in the value; a single row reads its slab's
    list (no allocation when the bands fit in [cols]), a block of rows
    merges the lists of the slabs it meets. Domains that race on a cold
    cache each build the same table and publish it atomically, so
    concurrent queries (the pooled row blocks of a dot product) are
    safe. *)

val dead_cols : cols:int -> t -> bool array
(** [dead_cols ~cols t] marks columns covered by no band — provably
    zero in every row, hence droppable by compaction. All-false for
    [full] or when sparsity is disabled. *)

val remap_cols : (int -> int option) -> t -> t
(** Rewrite column ids through a compaction table: [f c] is the new id
    of old column [c], or [None] if the column was dropped. [f] must be
    monotone on the kept columns (compaction is order-preserving), so a
    contiguous kept range maps to a contiguous range. *)

val insert_gap : rows:int -> cols:int -> at:int -> by:int -> t -> t
(** The occupancy of a [rows x cols] matrix after [by] zero columns are
    inserted before column [at]: columns left of [at] keep their ids,
    the others move right by [by], and the [by] inserted columns are
    dead. A band that straddles [at] is split there. [full] is first
    concretized to the one dense band of the shape, so its gap is dead
    too. [by <= 0] returns [t] unchanged. *)

val mem : t -> row:int -> col:int -> bool
(** Whether [(row, col)] lies inside some band (i.e. possibly nonzero). *)

val area : rows:int -> cols:int -> t -> int
(** Exact area of the band union clipped to the shape (overlaps counted
    once). *)

val density : rows:int -> cols:int -> t -> float
(** [area / (rows * cols)]; 1.0 for [full] or a zero-size shape. *)

val pp : Format.formatter -> t -> unit
