(** Bracket search over a monotone radius predicate — the engine
    behind {!Certify.max_radius} (DESIGN.md §9).

    The radius search is a bracket refinement: maintain [good] (largest
    radius known to certify) and [bad] (smallest known to fail) and
    shrink [bad - good] on bisection's dyadic grid. The {!Sequential}
    executor probes one radius at a time and places each probe by the
    margins the probes report; the {!Grid} executor probes [n]
    deterministic radii per round {e concurrently} and folds the
    outcomes {b in radius order} — the new bracket is the last point of
    the leading all-Good prefix and the first non-Good point — so the
    result depends only on the probed radii and the predicate, never on
    which probe finished first. Convergence per round goes from [1/2]
    to [1/(n+1)].

    Determinism contract: for a fixed (deterministic) probe, the
    sequence of probed radii and the returned bracket are identical
    across runners and across runs. [Grid 1] is bit-for-bit float
    bisection, the reference the sequential search is tested against:
    on a monotone predicate both return the same [radius], [good] and
    [bad]. *)

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

type runner = probe -> float array -> outcome array
(** Evaluates one wave of radii, returning outcomes in {e input} order
    (index [i] answers [radii.(i)]); how the wave is scheduled is the
    runner's business. A runner must return the same arity it was
    given. *)

type executor =
  | Sequential
      (** Margin-guided search on bisection's grid; never calls the
          runner. It probes only the points of the [2^iters]-step grid
          over the bracket ([[lo, hi]], or [[good, bad]] after growth),
          each computed by bisection's own midpoint recursion, so every
          probed radius is a float bisection could have probed.
          - {b Lazy hi.} The first probe is the grid midpoint
            [0.5 *. (lo +. hi)]. [hi] is probed only if it certifies;
            then growth probes [2hi], [4hi], [8hi] until one fails, as
            bisection's bracket does. With [iters = 0] there is no
            midpoint and growth starts at [hi].
          - {b Next point.} Regula falsi between the two bracket
            margins, rounded to the nearest grid index inside the open
            bracket; an end kept twice in a row has its margin halved
            (Illinois). It bisects instead when a bracket margin is not
            finite ([lo] unprobed, [nan] from {!probe_of}, faults) or
            when the last two probes did not halve the bracket.
          - {b Stop} when a certified grid point (or [lo]) and a failed
            one are adjacent.

          On a monotone predicate the result is bit-identical to
          [Grid 1]'s: the largest certified grid point. Otherwise it
          may differ, but [radius] is still a probed, certified point
          (or [lo]). Worst case, with [iters >= 1]: at most 4
          [bracket_probes] and [3 * iters - 1] [bisect_probes]
          (bisection spends up to 4 and [iters]); the bracket halves at
          least once in every three refinement probes. *)
  | Grid of int
      (** [Grid n]: each round splits the bracket into [n + 1]
          subintervals and evaluates the [n] interior radii as one
          runner wave. Margins are not used. [Grid 1] degenerates to
          bisection: [hi], growth, then [iters] midpoints
          [0.5 *. (good +. bad)]. *)

type stats = {
  bracket_probes : int;
      (** probes at [hi] and the growth points past it ([Grid]: wave 0
          and growth waves) *)
  bisect_probes : int;
      (** probes at grid points inside the bracket ([Sequential]: with
          the first midpoint) *)
  rounds : int;  (** refinement rounds (0 for [Sequential]) *)
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
    sequential search bisects (with the lazy [hi]). *)

(** {1 Generic wave runners}

    The scheduling substrate under the probe runners, reused by
    {!Brefine} for branch-and-bound waves: evaluate [f 0 .. f (n-1)]
    and return the results in index order. [f] must be deterministic
    and its result plain data (it may cross the Marshal boundary). *)

type 'r wave = (int -> 'r) -> int -> 'r array

val serial_wave : 'r wave
(** Ascending in-process evaluation — the deterministic reference. *)

val fork_wave : crash:(Verdict.unknown_reason -> 'r) -> 'r wave
(** One forked process per index over the {!Supervisor} plumbing
    ([max_retries = 0]); a crashed worker's slot is filled with
    [crash reason]. The closure is inherited by [fork], not marshalled.
    Degrades to {!serial_wave} while any {!Tensor.Dpool} has live
    worker domains (the runtime forbids forking then). *)

val serial_runner : runner
(** Left-to-right in-process evaluation — the deterministic reference
    backend and the [Sequential] executor's implicit behavior. *)

val fork_runner : runner
(** One forked probe process per radius over the {!Supervisor}
    marshalling plumbing ([max_retries = 0]: probes are deterministic,
    so a crashed worker is reported as [Faulted], not re-run). The probe
    closure is inherited by [fork], not marshalled. Degrades to
    {!serial_runner} while any {!Tensor.Dpool} has live worker domains
    (the runtime forbids forking then). *)

val search :
  ?lo:float ->
  ?hi:float ->
  ?iters:int ->
  ?rounds:int ->
  ?exec:executor ->
  ?runner:runner ->
  probe ->
  result
(** [search probe] brackets and refines the largest radius accepted by
    the monotone predicate. Defaults: [lo = 0], [hi = 0.5],
    [iters = 10], [exec = Sequential], [runner = serial_runner].

    [iters] is bisection's step count: the final bracket is one step of
    the [2^iters]-step grid. Grid executors derive their round count
    from it (smallest count whose final width is at most bisection's)
    unless [rounds] overrides it.

    @raise Invalid_argument on an empty or non-finite initial bracket,
    [iters] outside [[0, 60]], or [Grid n] with [n < 1]. *)
