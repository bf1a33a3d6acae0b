(** Bracket search over a monotone radius predicate — the engine
    behind {!Certify.max_radius} (DESIGN.md §9).

    The radius search is a bracket refinement: maintain [good] (largest
    radius known to certify) and [bad] (smallest known to fail) and
    shrink [bad - good] on bisection's dyadic grid, one probe at a
    time, placing each probe by the margins the probes report.

    Determinism contract: for a fixed (deterministic) probe, the
    sequence of probed radii and the returned bracket are identical
    across runs. On a monotone predicate the result is float
    bisection's, bit for bit: the same [radius], [good] and [bad]. *)

type outcome =
  | Good of float
      (** the radius certified; the payload is the probe's margin lower
          bound ([> 0]), or [nan] when the probe does not know it *)
  | Bad of float
      (** clean not-certified, with the margin ([<= 0]) or [nan] *)
  | Faulted of Verdict.unknown_reason
      (** the probe aborted (budget, collapse, dead worker); treated as
          [Bad nan] for the bracket — a fault can never certify and its
          margin is ignored — but reported so callers can flag the
          radius as pessimistic *)

type probe = float -> outcome

type stats = {
  bracket_probes : int;  (** probes at [hi] and the growth points past it *)
  bisect_probes : int;
      (** probes at grid points inside the bracket, the first midpoint
          included *)
  faulted : (float * Verdict.unknown_reason) list;
      (** faulted probes in launch order; nonempty means [radius] may be
          pessimistic *)
}

type result = {
  radius : float;  (** largest radius that certified ([lo] if none) *)
  good : float;
  bad : float;  (** [infinity] when even the growth cap certified *)
  stats : stats;
}

val probe_of : (float -> bool) -> probe
(** Wraps a boolean predicate, mapping {!Verdict.Abort} and
    {!Zonotope.Unbounded} to [Faulted]. Its margins are [nan], so the
    search bisects (with the lazy [hi]). *)

val search : ?lo:float -> ?hi:float -> ?iters:int -> probe -> result
(** [search probe] brackets and refines the largest radius accepted by
    the monotone predicate. Defaults: [lo = 0], [hi = 0.5],
    [iters = 10].

    It probes only the points of the [2^iters]-step grid over the
    bracket ([[lo, hi]], or [[good, bad]] after growth), each computed
    by bisection's own midpoint recursion, so every probed radius is a
    float bisection could have probed.
    - {b Lazy hi.} The first probe is the grid midpoint
      [0.5 *. (lo +. hi)]. [hi] is probed only if it certifies; then
      growth probes [2hi], [4hi], [8hi] until one fails, as bisection's
      bracket does. With [iters = 0] there is no midpoint and growth
      starts at [hi].
    - {b Next point.} Regula falsi between the two bracket margins,
      rounded to the nearest grid index inside the open bracket; an end
      kept twice in a row has its margin halved (Illinois). It bisects
      instead when a bracket margin is not finite ([lo] unprobed, [nan]
      from {!probe_of}, faults) or when the last two probes did not
      halve the bracket.
    - {b Stop} when a certified grid point (or [lo]) and a failed one
      are adjacent.

    On a monotone predicate the result is the largest certified grid
    point, as bisection's is. Otherwise it may differ, but [radius] is
    still a probed, certified point (or [lo]). Worst case, with
    [iters >= 1]: at most 4 [bracket_probes] and [3 * iters - 1]
    [bisect_probes] (bisection spends up to 4 and [iters]); the bracket
    halves at least once in every three refinement probes.

    @raise Invalid_argument on an empty or non-finite initial bracket,
    or [iters] outside [[0, 60]]. *)
