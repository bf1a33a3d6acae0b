(** Softmax abstract transformer (Section 5.2).

    Applied row-wise to an attention-score zonotope. The default form is
    the mathematically equivalent but abstractly favourable
    [σᵢ = 1 / Σⱼ exp(νⱼ − νᵢ)]: the differences cancel shared noise
    symbols exactly (shrinking the exponential's input range), no
    multiplication transformer is needed, and the output is guaranteed to
    lie in (0, 1]. The [Direct] form
    [σᵢ = exp(νᵢ) · recip(Σⱼ exp(νⱼ))] — the composition CROWN uses — is
    provided for the ablation.

    The stable form never builds the difference matrix [D] of a score
    row. It reads the row in place from the score zonotope and computes
    each entry of [Dᵢⱼ = νⱼ − νᵢ] from rows [i] and [j] where it is
    needed, with the arithmetic of the ±1 product that used to build
    [D]. The bounds of [Dᵢⱼ] and [Dⱼᵢ] share their norms, which are
    computed once per pair. For each output [σᵢ] exp's coefficients come
    from those bounds, [Σⱼ exp(Dᵢⱼ)] is accumulated straight into the
    sum's coefficient row, and the reciprocal is applied: no row copy,
    no [n² x W] matrix, no [n x W] exp zonotope. Symbols, coefficients
    and occupancy are those of the exp / sum / reciprocal chain on the
    explicit [D], bit for bit (DESIGN.md §16, §17). Saturated outputs
    and outputs whose exp or reciprocal is unbounded fall back to a
    fresh interval symbol.

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
