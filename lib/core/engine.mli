(** Resilient certification engine: fault containment and the
    precision ladder.

    The paper's headline trade-off (DeepT-Precise vs DeepT-Fast vs
    Combined) is a precision/performance dial; this module manages that
    dial at runtime. One query = one walk down a {e ladder}, with at
    most one step up.

    {b Down} (graceful degradation): increasingly cheap configurations —

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
    in ([Config.refine]), the walk takes one step up instead of
    stopping: the ["refine"] attempt splits the strongest noise symbols
    and re-certifies the halves branch-and-bound style, under the
    requested config. Cheaper rungs never refine — they are coarser than
    the rung that already failed, so their refinement could not prove
    anything the requested rung's refinement would not. With
    [Config.refine = None] there is no up step and the engine behaves
    exactly as before refinement existed, bit-for-bit.

    The outcome records every attempt with its direction, so a batch
    driver can report which rung rescued each query.

    Before any propagation the engine spends a few concrete forward
    passes looking for a counterexample inside the region; finding one
    short-circuits to [Falsified] (rung ["concrete"]). Refinement can
    never flip that — the up step only fires on [Unknown Imprecise], and
    a branch verdict is margin-only ([Certified] or [Unknown], never
    [Falsified]).

    Soundness invariant: the verdict always comes from the rung named in
    the outcome, and a rung that raised a numerical fault can only
    contribute an [Unknown] — never [Certified]. *)

type rung =
  | Abstract of { rname : string; cfg : Config.t }
      (** one zonotope propagation under [cfg] *)
  | Box  (** interval concretization + IBP (rung name ["interval"]) *)

type direction =
  | Down  (** degradation: this attempt ran a cheaper configuration *)
  | Up  (** refinement: this attempt split symbols and retried *)

type attempt = { rung_name : string; verdict : Verdict.t; direction : direction }

type outcome = {
  verdict : Verdict.t;  (** final answer *)
  rung_name : string;  (** rung that produced it *)
  attempts : attempt list;  (** every rung tried, in order *)
}

val rung_name : rung -> string

val default_ladder : Config.t -> rung list
(** The downward walk described above, derived from a starting config.
    The budget and fault spec of the starting config are inherited by
    every rung; {!Config.fault_spec.persist} bounds how many attempts
    the fault stays active for. *)

val certify :
  ?falsify_samples:int ->
  Config.t -> Ir.program -> Zonotope.t -> true_class:int -> outcome
(** Walks [default_ladder cfg] down; when its first rung returns
    [Unknown Imprecise] and [cfg.refine] is set, the walk ends with one
    ["refine"] attempt ({!Brefine.certify_v} under [cfg]) instead.
    [falsify_samples] (default 8, 0 disables) bounds the concrete
    counterexample search; sampling is deterministic.

    Attempts reuse what earlier attempts computed:
    - After a [Symbol_budget] abort, the next zonotope rung starts at
      the input of the last layer the aborted rung entered
      ({!Propagate.checkpoint}), re-reduced with its own [reduction_k].
      Its verdict is therefore its config applied from that layer on:
      the margin may differ from a direct run of that config (the
      earlier layers ran under the aborted rung's), and it is sound,
      because DecorrelateMin_k is sound on any zonotope. The layer
      depends only on the config and the input, so the walk stays
      deterministic; a timeout leaves no checkpoint.
    - The refine step ranks and splits on the first rung's output
      instead of propagating the region again, bit-identically: both
      run under the requested config. Its branches propagate in full
      (their regions differ from the input region).

    Under fault injection ([cfg.fault] set) an attempt neither resumes
    nor is reused: fault sites address op indices within each attempt,
    so every attempt runs from op 0 (and rescue verdicts agree with a
    direct run of the rescuing config). *)

val pp_outcome : Format.formatter -> outcome -> unit
(** ["certified@fast (ladder: precise=unknown(timeout) fast=certified)"] *)
