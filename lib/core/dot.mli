(** Dot-product and multiplication abstract transformers (Sections 4.8–4.9).

    These are the key transformers of the paper: self-attention multiplies
    two quantities that are {e both} under perturbation — the query/key
    product [Q·Kᵀ] and the attention/value product [softmax(S)·V]. The
    output of a product of two affine forms has a quadratic remainder in
    the noise symbols; each output variable receives the exact affine part
    plus one fresh ε symbol covering an interval bound of the remainder.

    Two remainder bounds are provided:
    - {b Fast} (Equation 5): dual-norm cascade. {!matmul_zz} evaluates it
      for all [n·m] outputs of an [n x k] by [k x m] product as one
      [N·|X|] product per row block, [O(n·m·k·(Ep + E∞))] in all, with
      each operand block's [k] row norms computed once rather than once
      per output;
    - {b Precise} (Equation 6): exact treatment of the ε²/ε·ε structure of
      the ℓ∞-ℓ∞ term, [O(k·E + k·L²)] per output for [k x E] coefficient
      blocks with [L] live columns (nonzero in either block). *)

type quad_bound = {
  phi_phi : Interval.Itv.t;
  phi_eps : Interval.Itv.t;
  eps_phi : Interval.Itv.t;
  eps_eps : Interval.Itv.t;
}
(** Interval bounds of the four noise-interaction terms of one output. *)

val fast_abs_bound :
  order:Config.dual_order ->
  p1:Lp.t -> p2:Lp.t -> Tensor.Mat.t -> Tensor.Mat.t -> float
(** [fast_abs_bound ~order ~p1 ~p2 v w] bounds [|(V ξ₁)·(W ξ₂)|] for
    [‖ξ₁‖_{p1} ≤ 1, ‖ξ₂‖_{p2} ≤ 1] by the dual-norm cascade of
    Equation 5. [order] selects which operand is normed first when the
    two norms differ (the Section 6.5 ablation). [v] and [w] are the
    coefficient blocks ([dim x E]). *)

val precise_eps_bound : Tensor.Mat.t -> Tensor.Mat.t -> Interval.Itv.t
(** Equation 6: bound of [(B₁ε)·(B₂ε)] that accounts for [ε² ∈ [0,1]]
    on the diagonal and symmetrizes off-diagonal pairs. Visits only the
    pairs of live columns, [O(k·E + k·L²)]; the result is bit-identical
    to summing over the full [E x E] Gram matrix [B₁ᵀB₂] (DESIGN.md
    §15). A NaN bound (an infinite coefficient against a zero one) is
    returned as {!Interval.Itv.top}. *)

val quad_bounds :
  precise:bool ->
  order:Config.dual_order ->
  p:Lp.t ->
  a1:Tensor.Mat.t -> b1:Tensor.Mat.t ->
  a2:Tensor.Mat.t -> b2:Tensor.Mat.t ->
  quad_bound
(** Bounds for all four interaction terms of one dot product; the ε-ε
    term uses {!precise_eps_bound} when [precise]. *)

val matmul_zz :
  ?precise:bool ->
  ?order:Config.dual_order ->
  Zonotope.ctx -> Zonotope.t -> Zonotope.t -> Zonotope.t
(** [matmul_zz ctx a b] abstracts the value-level matrix product
    [A·B] of two zonotopes sharing noise symbols ([a : n x k],
    [b : k x m]). Each output variable gets the exact affine part
    [c₁·c₂ + (c₁ᵀA₂ + c₂ᵀA₁)φ + (c₁ᵀB₂ + c₂ᵀB₁)ε] plus one fresh ε
    symbol covering the quadratic remainder.

    The affine part runs as two blocked products ([A_c·B_coef] with
    [B]'s coefficients viewed as [k x (m·E)], and [B_cᵀ·A_coef,i] per row
    block [i]); dead ε tiles are skipped through the occupancy when the
    product's left operand is finite. The result equals the per-output
    formulation in every bit except the sign and payload of a NaN entry
    (DESIGN.md §16).

    Polls {!Zonotope.check_deadline} once per row block of the output in
    each of its two passes, so a deadline armed on [ctx] preempts even a
    single huge dot product mid-op.
    @raise Verdict.Abort [Timeout] when the armed deadline has passed. *)

val mul_zz :
  ?precise:bool ->
  ?order:Config.dual_order ->
  Zonotope.ctx -> Zonotope.t -> Zonotope.t -> Zonotope.t
(** Element-wise product of two zonotopes with identical value shapes
    (Section 4.9: multiplication is the 1-element dot product). *)
