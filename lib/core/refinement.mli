(** Softmax-sum zonotope refinement (Section 5.3 and Appendix A.1).

    The true softmax outputs of a row always sum to exactly 1, but the
    zonotope produced by the softmax abstract transformer admits symbol
    instantiations violating this. The refinement intersects the zonotope
    with the hyperplane [Σᵢ yᵢ = 1] following the logical-product method
    of Ghorbal et al.:

    + the residual [S = 1 − Σᵢ yᵢ] is formed (an affine form that is 0 on
      every true execution);
    + variable [y₁] is replaced by [y₁ + t*·S] with [t*] chosen to
      minimize the total coefficient mass [‖α‖₁ + ‖β‖₁] (the O(E log E)
      breakpoint search of Appendix A.1, skipping candidates that would
      eliminate a φ symbol);
    + every other variable is rewritten to eliminate the pivot symbol
      [ε_k] using the constraint;
    + the constraint further tightens the range of each ε symbol
      appearing in [S]; tightened symbols are renormalized back to
      [[-1,1]] in this zonotope.

    Adding any multiple of [S] and restricting symbol ranges implied by
    [S = 0] both preserve every true execution, so the refinement is
    sound by construction. Multipliers are capped (and fall back to 0,
    i.e. no refinement) when the residual's coefficients nearly vanish —
    which happens once the softmax saturates in deep layers — since an
    extreme multiplier amplifies the residual's remaining coefficients
    instead of cancelling anything. *)

val minimize_abs_sum :
  r:float array -> s:float array -> allowed:bool array -> float
(** [minimize_abs_sum ~r ~s ~allowed] returns [t*] minimizing
    [Σᵢ |rᵢ + sᵢ·t|] over the breakpoints [-rᵢ/sᵢ] with [allowedᵢ]
    (weighted-median search; Appendix A.1). Returns 0 if no breakpoint
    is allowed. *)

val sort_by_key : float array -> int array -> unit
(** [sort_by_key k a] sorts the indices [a] in place by their keys
    [k.(a.(i))] (indices into [k]): the permutation
    [Array.sort (fun i j -> Float.compare k.(i) k.(j)) a] gives, from the
    same comparisons made in the same order, without a comparison
    closure. [minimize_abs_sum] sorts its breakpoints with it. *)

val sum_residual : Zonotope.t -> target:float -> float * float array * float array
(** [(c_S, α_S, β_S)] of the affine form [target − Σ variables]. *)

val softmax_sum : Zonotope.t -> Zonotope.t
(** Refines a zonotope whose variables are one softmax row (value shape
    [1 x N] or [N x 1]) under the constraint that they sum to 1. Returns
    the input unchanged when no ε symbol can serve as pivot. *)

val softmax_sum_in_place :
  Zonotope.t -> v0:int -> nv:int -> ee:int -> Tensor.Bands.t -> Tensor.Bands.t
(** [softmax_sum_in_place z ~v0 ~nv ~ee occ] refines variables
    [v0 .. v0 + nv - 1] of [z] in [z]'s own matrices, as {!softmax_sum}
    refines the zonotope of just those variables over ε columns
    [0 .. ee - 1] whose occupancy is [occ], and returns that zonotope's
    result occupancy. Those rows' columns from [ee] on must be +0.0;
    they stay untouched, as in the narrower zonotope they do not exist.
    For a [z] nothing else holds: {!Zonotope.stack_rows} refines the
    softmax rows in the matrix it stacked them into. *)
