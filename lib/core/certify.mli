(** Robustness certification (Sections 2, 3.2 and 6).

    A classification is certified on a region when the lower bound of
    [y_true − y_other] is positive for every competing class; the bound
    is read off the output zonotope's affine forms (difference of two
    variables is again affine, so correlations cancel exactly — this is
    strictly tighter than comparing interval bounds). *)

val margin : Zonotope.t -> true_class:int -> float
(** Lower bound of [min_{j ≠ t} (y_t − y_j)] on an output zonotope of
    value shape [1 x C] ({!Brefine.losing_margin}'s bound). *)

val certify :
  Config.t -> Ir.program -> Zonotope.t -> true_class:int -> bool
(** Propagates the region and checks the margin. *)

val certify_margin :
  Config.t -> Ir.program -> Zonotope.t -> true_class:int -> float
(** Like {!certify} but returns the margin itself ([neg_infinity] when
    the propagation aborted or collapsed). *)

val certify_v :
  Config.t -> Ir.program -> Zonotope.t -> true_class:int -> Verdict.t
(** Typed variant of {!certify}: a clean propagation yields [Certified]
    or [Unknown Imprecise]; an aborted one ({!Verdict.Abort} from the
    budget checkpoints, fault injection, or a collapsed abstraction)
    yields [Unknown] with the reason preserved. Never returns
    [Certified] from a propagation that raised. [Falsified] is only
    produced by {!Engine.certify}, which searches for concrete
    counterexamples. *)

val certify_out :
  ?from:Propagate.checkpoint ->
  ?on_budget:(Propagate.checkpoint -> unit) ->
  Config.t -> Ir.program -> Zonotope.t -> true_class:int ->
  Verdict.t * Zonotope.t option
(** {!certify_v} with the output zonotope of a propagation that
    completed. [from] and [on_budget] go to {!Propagate.run}: this is
    how {!Engine}'s rungs resume from checkpoints and hand them on. *)

val max_radius :
  ?lo:float -> ?hi:float -> ?iters:int -> (float -> bool) -> float
(** [max_radius certifies] searches the largest radius accepted by the
    monotone predicate [certifies] via {!Psearch}, on the grid of
    [iters] (default 10) bisection steps over [[0, hi]] (default
    [hi = 0.5]), or over [[good, bad]] once [hi] certified and the
    bracket grew (doubled up to 3 times while certified). A boolean
    predicate reports no margins, so the search bisects; it probes
    [hi] only after [hi/2] certified. Returns the largest radius known
    to certify (0 if even tiny radii fail), bit-identical to
    bisection's whenever [certifies] is monotone.

    Robustness guarantees: the bracket must be finite
    ([Invalid_argument] otherwise); a probe that raises
    {!Verdict.Abort} or {!Zonotope.Unbounded} — a faulted propagation —
    counts as "bad", so the search terminates and the returned radius
    always comes from a probe that genuinely certified. *)

val certified_radius :
  Config.t -> Ir.program -> p:Lp.t -> Tensor.Mat.t -> word:int ->
  true_class:int -> ?hi:float -> ?iters:int -> unit -> float
(** The paper's main measurement: the largest ℓp radius around one
    word's embedding that certifies. It is the [radius] of the search
    {!certified_radius_v} runs, without the refinement. Each probe is
    one propagation, and its margin places the next probe
    ({!Psearch.search}). *)

type radius_report = {
  radius : float;  (** largest radius that certified (0 if none) *)
  bracket : float * float;
      (** final [(good, bad)] bracket; [bad = infinity] when even the
          growth cap certified *)
  bracket_probes : int;
      (** propagations at [hi] and the growth points past it: up to 4,
          spent only after the grid midpoint [hi/2] certified *)
  bisect_probes : int;
      (** propagations at grid points inside the bracket, the first
          midpoint included *)
  faulted_probes : (float * Verdict.unknown_reason) list;
      (** probes that ended in a typed fault rather than a clean
          not-certified, in launch order — nonempty means the radius may
          be pessimistic (faulted probes count as "bad") *)
  refined_radius : float option;
      (** largest radius certified with branch-and-bound refinement
          ({!Brefine}) at the plain search's failing edge; always
          [>= radius]. [None] when [cfg.refine] is off or the plain
          bracket never closed. The first refined probe is the plain
          [bad] edge itself and the search only continues past it on
          success, so a strictly larger value is attributable to
          refinement, never to extra bisection of the plain bracket. *)
}

val certified_radius_v :
  Config.t -> Ir.program -> p:Lp.t -> Tensor.Mat.t -> word:int ->
  true_class:int -> ?hi:float -> ?iters:int -> unit -> radius_report
(** Like {!certified_radius} but with each probe's typed verdict
    ({!certify_v}'s), reporting the final
    bracket, the probe budget split by phase, and which probes faulted
    instead of silently treating them as "not robust". When
    [cfg.refine] is set, a few branch-and-bound probes run at the
    bracket's failing edge afterwards and fill [refined_radius]; the
    plain search (and hence [radius]) is untouched by refinement. The
    first of them ranks on the output of the plain search's last
    failed probe, which is at that edge, rather than propagating the
    region again. *)

val certify_synonyms :
  Config.t -> Ir.program -> Tensor.Mat.t -> (int * float array list) list ->
  true_class:int -> bool
(** Threat model T2: certify the synonym box {!Region.synonym_box}. *)

val enumerate_synonyms :
  ?limit:int -> Ir.program -> Tensor.Mat.t -> (int * float array list) list ->
  true_class:int -> bool * int
(** Enumeration baseline: classifies every combination of substitutions
    concretely. Returns [(all_correct, combinations_checked)]; stops
    early at [limit] combinations (default 1_000_000) or on the first
    misclassification. *)

val count_combinations : (int * float array list) list -> int
(** Number of sentences the enumeration baseline must classify
    (product over positions of [1 + #alternatives]). *)
