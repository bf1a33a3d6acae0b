(** Softmax abstract transformer (Section 5.2).

    Applied row-wise to an attention-score zonotope. The default form is
    the mathematically equivalent but abstractly favourable
    [σᵢ = 1 / Σⱼ exp(νⱼ − νᵢ)]: the differences cancel shared noise
    symbols exactly (shrinking the exponential's input range), no
    multiplication transformer is needed, and the output is guaranteed to
    lie in (0, 1]. The [Direct] form
    [σᵢ = exp(νᵢ) · recip(Σⱼ exp(νⱼ))] — the composition CROWN uses — is
    provided for the ablation.

    The stable form builds the difference matrix [D] of a score row and
    its bounds once. For each output [σᵢ] it takes exp's coefficients
    from row [i] of those bounds and accumulates [Σⱼ exp(Dᵢⱼ)] straight
    into the sum's coefficient row, then applies the reciprocal: no
    per-output copy of the row and no [n x W] exp zonotope. Symbols,
    coefficients and occupancy are those of the exp / sum / reciprocal
    chain, bit for bit (DESIGN.md §16). Saturated outputs and outputs
    whose exp or reciprocal is unbounded fall back to a fresh interval
    symbol.

    With [refine], each output row is intersected with the hyperplane
    [Σᵢ σᵢ = 1] (Section 5.3). *)

val apply_row :
  form:Config.softmax_form ->
  refine:bool ->
  Zonotope.ctx -> Zonotope.t -> Zonotope.t
(** Softmax of a single-row zonotope (value shape [1 x N]). *)

val apply :
  form:Config.softmax_form ->
  refine:bool ->
  Zonotope.ctx -> Zonotope.t -> Zonotope.t
(** Row-wise softmax of an [N x M] score zonotope. *)
