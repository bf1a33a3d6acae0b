(** Branch-and-bound symbol-splitting refinement — the precision
    ladder's {e upward} direction (DESIGN.md §13).

    {!Engine}'s degradation ladder only trades precision {e down}; when
    the requested rung returns [Unknown Imprecise] the query used to be
    lost even though the final zonotope records exactly which noise
    symbols lost the margin. This module recovers such queries: it ranks
    the input noise symbols by their |coefficient| contribution to the
    {e losing} logit margin (read straight off the output zonotope),
    splits the strongest [top_k] symbol ranges in half
    ({!Zonotope.restrict_symbol}) and re-certifies the [2^top_k]
    half-combinations branch-and-bound style.

    {b Union semantics (sound).} The branches of one split jointly cover
    the parent region, so the parent is [Certified] iff {e every} branch
    certifies. Any faulted branch — typed abort, collapsed abstraction —
    aborts the refinement to [Unknown] with that branch's reason (the
    first faulted branch in deterministic branch order). A branch
    verdict is margin-only, so refinement can never produce — and
    therefore never flip — a [Falsified].

    {b Determinism.} Every split wave runs in the calling process, its
    branches in branch order, each with a budget share fixed before the
    wave runs, so the refinement's outcome is a pure function of
    (config, program, region).

    Branch budget ([Config.refine.max_branches]) counts branch
    propagations across the whole tree, all of them run by the caller
    after its plain propagation; the per-propagation deadline and
    symbol budget are inherited from [Config.budget] like every other
    propagation. *)

type branch_eval = {
  bverdict : Verdict.t;
  props : int;  (** propagations consumed by the branch, recursion included *)
  bdepth : int;  (** split levels below the branch *)
}
(** Result of one branch evaluation. *)

type wave = (int -> branch_eval) -> int -> branch_eval array
(** A wave runner: evaluates branches [f 0 .. f (n-1)] and returns the
    results in branch order. [f] must be deterministic. *)

val serial_wave : wave
(** Ascending in-process evaluation: the runner every wave uses. *)

type report = {
  verdict : Verdict.t;
      (** [Certified], or [Unknown] — never [Falsified] (margin-only) *)
  split : Zonotope.symbol list;
      (** the top-level split symbols, strongest-ranked first; empty
          when no split happened (clean verdict, fault, or nothing
          splittable) *)
  branches : int;  (** branch propagations spent (ranking run excluded) *)
  depth : int;  (** deepest split level reached; 0 = no split *)
}

val certify_v :
  ?wave:wave ->
  ?out:Zonotope.t ->
  Config.t ->
  Ir.program ->
  Zonotope.t ->
  true_class:int ->
  report
(** [certify_v cfg program region ~true_class] propagates the region
    once; if the margin is imprecise, refines branch-and-bound style
    under [cfg.refine]. [?out] is that propagation's output when the
    caller already has it — the region propagated under [cfg]'s
    precision policy and budget, with no fault armed — and the
    propagation is skipped; everything from the ranking on is
    unchanged. {!Engine}'s up walk passes its first rung's output,
    {!Certify.certified_radius_v} its failing probe's. [?wave]
    (default {!serial_wave}) runs the first split wave; the union tests
    pass their own to fake branch results. Every branch propagation
    runs under [cfg], so a [cfg.trace] sink sees each one's events.
    @raise Invalid_argument when [cfg.refine] is [None]. *)

val certify :
  ?wave:wave ->
  ?out:Zonotope.t ->
  Config.t -> Ir.program -> Zonotope.t -> true_class:int -> bool
(** [certify_v] collapsed to "did it certify" — the refined radius-probe
    predicate used by {!Certify.certified_radius}. *)

val losing_margin : Zonotope.t -> true_class:int -> float * int
(** [(margin lower bound, argmin adversary class)] of an output
    zonotope; ties keep the smaller class index. {!Certify.margin} is
    its bound. *)

val verdict_of_margin : float -> Verdict.t
(** The verdict a clean propagation's margin gives: [Certified] when
    positive, [Unknown Imprecise] when not, [Unknown Unbounded] at
    [neg_infinity] and [Unknown Numerical_fault] at [nan]. Shared with
    {!Certify.certify_v}. *)

(**/**)

val rank_symbols :
  Zonotope.t -> Zonotope.t -> true_class:int -> (float * Zonotope.symbol) list
(** [rank_symbols out region ~true_class]: the input symbols of
    [region] ranked by |coefficient| in [out]'s losing margin,
    strongest first. Exposed for tests. *)
