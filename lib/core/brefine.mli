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
    certifies. Any faulted branch — typed abort, collapsed abstraction,
    dead fork worker — aborts the refinement to [Unknown] with that
    branch's reason (the first faulted branch in deterministic branch
    order). A branch verdict is margin-only, so refinement can never
    produce — and therefore never flip — a [Falsified].

    {b Determinism.} The first split wave may run on any of
    {!Psearch}'s wave runners (serial / fork); every
    deeper re-split runs serially inside its branch with a budget share
    fixed before the wave launches, so the refinement's outcome is a
    pure function of (config, program, region) — bit-identical across
    runners.

    Branch budget ([Config.refine.max_branches]) counts branch
    propagations across the whole tree; the per-propagation deadline and
    symbol budget are inherited from [Config.budget] like every other
    propagation. *)

type branch_eval = {
  bverdict : Verdict.t;
  props : int;  (** propagations consumed by the branch, recursion included *)
  bdepth : int;  (** split levels below the branch *)
}
(** Result of one branch evaluation — plain data, safe across the
    Marshal boundary of a fork wave. *)

type wave = branch_eval Psearch.wave

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
  Config.t ->
  Ir.program ->
  Zonotope.t ->
  true_class:int ->
  report
(** [certify_v cfg program region ~true_class] propagates the region
    once; if the margin is imprecise, refines branch-and-bound style
    under [cfg.refine]. [?wave] overrides the first-wave runner (tests:
    fault injection, cross-runner bit-identity); the default is chosen
    from [cfg.search.probe_backend] like the radius-probe runners.
    @raise Invalid_argument when [cfg.refine] is [None]. *)

val certify :
  ?wave:wave -> Config.t -> Ir.program -> Zonotope.t -> true_class:int -> bool
(** [certify_v] collapsed to "did it certify" — the refined radius-probe
    predicate used by {!Certify.certified_radius}. *)

(**/**)

val losing_margin : Zonotope.t -> true_class:int -> float * int
(** [(margin lower bound, argmin adversary class)] of an output
    zonotope; agrees with [Certify.margin] on the bound. Exposed for
    tests. *)

val rank_symbols :
  Zonotope.t -> Zonotope.t -> true_class:int -> (float * Zonotope.symbol) list
(** [rank_symbols out region ~true_class]: the input symbols of
    [region] ranked by |coefficient| in [out]'s losing margin,
    strongest first. Exposed for tests. *)
