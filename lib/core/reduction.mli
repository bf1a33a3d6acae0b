(** Noise symbol reduction — DecorrelateMin_k (Section 5.1).

    Non-affine transformers keep allocating fresh ε symbols; without
    intervention the coefficient matrices grow with network depth. The
    paper bounds memory by keeping, at every Transformer layer input, only
    the [k] ε symbols with the largest total coefficient mass
    [m_j = Σᵢ |B_{ij}|] and folding all eliminated symbols into one fresh
    independent symbol per variable (the row-wise absolute sum of the
    dropped coefficients).

    This renumbers the ε symbol space, so it is only sound when a single
    zonotope is alive — exactly the situation at a layer input, before
    the residual split (which is where the paper applies it). *)

val decorrelate_min_k : Zonotope.ctx -> Zonotope.t -> int -> Zonotope.t
(** [decorrelate_min_k ctx z k] reduces [z] to at most
    [k + num_vars z] ε symbols and resets the context's symbol counter
    to the new width. [k = 0] folds every symbol (pure interval
    decorrelation); a negative [k] is an error. The O(nv·w) score and
    fold scans run on the calling domain. *)

val scores : Zonotope.t -> float array
(** The heuristic importance score [m_j] of each ε symbol: its column's
    absolute sum, accumulated in ascending variable order. *)

val top_k_indices : float array -> int -> int array
(** [top_k_indices s k] returns the indices of the [k] largest entries of
    [s] (ties broken towards the smaller index), sorted ascending. Runs in
    O(|s| log k) via partial heap selection; exposed so tests can check it
    against the full-sort reference. [k <= 0] returns the empty array,
    [k >= length s] every index. *)
