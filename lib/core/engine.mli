(** Resilient certification engine: fault containment and the
    bidirectional precision ladder.

    The paper's headline trade-off (DeepT-Precise vs DeepT-Fast vs
    Combined) is a precision/performance dial; this module manages that
    dial at runtime. One query = one walk over a {e ladder} with two
    directions.

    {b Down} (graceful degradation, the original walk): increasingly
    cheap configurations —

    + the requested config (Precise / Combined / Fast);
    + DeepT-Fast (if the requested config was more expensive);
    + DeepT-Fast with a quartered noise-symbol budget [reduction_k];
    + the interval (IBP) concretization of the region — the cheapest
      sound verifier in the repository.

    A rung that ends in a {e fault} — [Timeout], [Symbol_budget],
    [Numerical_fault], [Unbounded] — hands the query to the next rung
    down; a rung that answers ([Certified], [Falsified]) ends the walk.

    {b Up} (refine-and-retry, {!Brefine}): when the {e requested} rung
    fails cleanly on precision ([Unknown Imprecise]) and the config opts
    in ([Config.refine]), the walk turns upward instead of stopping: the
    refine rung splits the strongest noise symbols and re-certifies the
    halves branch-and-bound style. Cheaper rungs never refine — they are
    coarser than the rung that already failed, so their refinement could
    not prove anything the requested rung's refinement would not. With
    [Config.refine = None] the up walk is empty and the engine behaves
    exactly as before refinement existed, bit-for-bit.

    The outcome records every attempt with its direction, so a batch
    driver can report which rung rescued each query.

    Before any propagation the engine spends a few concrete forward
    passes looking for a counterexample inside the region; finding one
    short-circuits to [Falsified] (rung ["concrete"]). Refinement can
    never flip that — the up walk only fires on [Unknown Imprecise], and
    a branch verdict is margin-only ([Certified] or [Unknown], never
    [Falsified]).

    Soundness invariant: the verdict always comes from the rung named in
    the outcome, and a rung that raised a numerical fault can only
    contribute an [Unknown] — never [Certified]. *)

type rung =
  | Abstract of { rname : string; cfg : Config.t }
      (** one zonotope propagation under [cfg] *)
  | Box  (** interval concretization + IBP (rung name ["interval"]) *)
  | Refine of { rname : string; cfg : Config.t }
      (** branch-and-bound refinement under [cfg] (which must carry
          [refine = Some _]); rung name ["refine"] in the default
          ladder *)

type direction =
  | Down  (** degradation: this attempt ran a cheaper configuration *)
  | Up  (** refinement: this attempt split symbols and retried *)

type attempt = { rung_name : string; verdict : Verdict.t; direction : direction }

type outcome = {
  verdict : Verdict.t;  (** final answer *)
  rung_name : string;  (** rung that produced it *)
  attempts : attempt list;  (** every rung tried, in order *)
}

type ladder = { down : rung list; up : rung list }
(** The walk: [down] is tried first (head = the requested rung); [up]
    is entered only when the first down rung returns
    [Unknown Imprecise]. *)

val rung_name : rung -> string

val ladder : ?up:rung list -> rung list -> ladder
(** [ladder ?up down] — [up] defaults to empty (no refinement).
    @raise Invalid_argument on an empty [down] walk. *)

val default_ladder : Config.t -> rung list
(** The downward walk described above, derived from a starting config.
    The budget and fault spec of the starting config are inherited by
    every rung; {!Config.fault_spec.persist} bounds how many ladder
    attempts the fault stays active for. *)

val refine_rungs : Config.t -> rung list
(** The upward walk: [[Refine _]] when the config carries a refine
    policy, [[]] otherwise. *)

val ladder_of : Config.t -> ladder
(** [{ down = default_ladder cfg; up = refine_rungs cfg }] — what
    {!certify} walks by default. *)

val certify :
  ?ladder:ladder ->
  ?falsify_samples:int ->
  Config.t -> Ir.program -> Zonotope.t -> true_class:int -> outcome
(** Walks the ladder (default {!ladder_of}). [falsify_samples]
    (default 8, 0 disables) bounds the concrete counterexample search;
    sampling is deterministic.

    Rungs resume from what earlier rungs computed, through
    {!Propagate.checkpoint}s:
    - The program's leading affine ops (the ViT patch embedding) are
      propagated once, and every zonotope rung starts after them
      ({!Propagate.run_prefix}), bit-identically.
    - After a [Symbol_budget] abort, the next zonotope rung starts at
      the input of the last layer the aborted rung entered, re-reduced
      with its own [reduction_k]. Its verdict is therefore its config
      applied from that layer on: the margin may differ from a direct
      run of that config (the earlier layers ran under the aborted
      rung's), and it is sound, because DecorrelateMin_k is sound on
      any zonotope. The layer depends only on the config and the input,
      so the walk stays deterministic; a timeout leaves no checkpoint.
    - A refine rung whose config propagates exactly as the first rung's
      (equal {!Config.policy_key} apart from the refine part, equal
      budget) ranks and splits on the first rung's output instead of
      propagating the region again, bit-identically. Its branches
      propagate in full (their regions differ from the input region).

    Under fault injection — [cfg.fault] set, or a fault armed for the
    rung — a rung neither resumes nor is reused: fault sites address op
    indices within each rung, so such a rung runs from op 0 (and rescue
    verdicts agree with a direct run of the rescuing config).
    @raise Invalid_argument on an empty explicit down walk. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** ["certified@fast (ladder: precise=unknown(timeout) fast=certified)"] *)
