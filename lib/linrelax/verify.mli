(** The CROWN baseline verifiers (Shi et al.), as compared against in the
    paper's evaluation: [Backward] (precise, slow, superlinear in depth)
    and [Baf] (backward-and-forward: early-stopped backsubstitution —
    fast, loses precision with depth). The API mirrors {!Deept.Certify}
    so benchmarks can drive both verifiers uniformly. *)

type verifier = Backward | Baf
(** [Baf] stops backsubstitution after roughly one Transformer layer's
    worth of relaxations (configurable via [baf_steps]). *)

type compiled = {
  program : Ir.program;
  seq_len : int;
  lg : Lgraph.compiled;
}
(** A program expanded for one sequence length, with the per-Ir-op node
    ranges that let the relaxation pass run on the shared {!Interp}
    loop. Building it is the expensive setup step — reuse one value
    across a radius search. *)

val compile : Ir.program -> seq_len:int -> compiled

val graph_of : Ir.program -> seq_len:int -> compiled
(** Alias of {!compile} (historical name). *)

val approx_bytes : compiled -> int
(** {!Lgraph.approx_bytes} of the underlying graph. *)

val pp_stats : Format.formatter -> compiled -> unit

val region_word_ball :
  p:Deept.Lp.t -> Tensor.Mat.t -> word:int -> radius:float -> Engine.region
(** Threat model T1 (one word perturbed), as an engine region. *)

val region_all_ball : p:Deept.Lp.t -> Tensor.Mat.t -> radius:float -> Engine.region

val region_box : Tensor.Mat.t -> Tensor.Mat.t -> Engine.region
(** Axis-aligned box [lo, hi]. *)

val region_synonym_box :
  Tensor.Mat.t -> (int * float array list) list -> Engine.region
(** Threat model T2, mirroring {!Deept.Region.synonym_box}. *)

val margin :
  verifier:verifier -> ?baf_steps:int -> ?budget:Deept.Config.budget ->
  ?trace:Interp.sink -> compiled -> Engine.region ->
  true_class:int -> float
(** Lower bound of [min_{j≠t} (y_t − y_j)] (the functional is
    backsubstituted as a whole, so common terms cancel).

    The relaxation pass runs per Ir op on the shared {!Interp} loop;
    [budget] arms its checkpoints with the same typed aborts as the
    zonotope engine — [Verdict.Abort Timeout] past the wall-clock
    deadline, [Verdict.Abort Symbol_budget] once the cumulative count of
    relaxation scalars exceeds [max_eps] (the linrelax equivalent of the
    live ε-symbol count). The deadline covers the relaxation pass (the
    dominant cost including the lazily-forced node bounds), not the
    final margin backsubstitution. [trace] streams per-op events
    ({!Profile} works unchanged). *)

val certify :
  verifier:verifier -> ?baf_steps:int -> ?budget:Deept.Config.budget ->
  ?trace:Interp.sink -> compiled -> Engine.region ->
  true_class:int -> bool

val certified_radius :
  verifier:verifier -> ?baf_steps:int -> ?budget:Deept.Config.budget ->
  ?trace:Interp.sink -> ?hi:float -> ?iters:int ->
  Ir.program -> p:Deept.Lp.t -> Tensor.Mat.t -> word:int -> true_class:int ->
  unit -> float
(** Bracket search for the largest certified ℓp radius around one word,
    mirroring {!Deept.Certify.certified_radius}. A probe aborted by
    [budget] counts as not-certified ({!Deept.Certify.max_radius}'s
    fault handling), so the search still terminates. [trace] is
    installed on every probe, so one {!Profile} collector absorbs the
    whole search. The probe reports no margin, so the search bisects.

    Caveat: the relaxation's certified-at-radius predicate is only
    {e approximately} monotone — branch choices (crossing-neuron
    detection) can flip within an ulp near the boundary, so a search
    that probed other radii (a margin-guided one) could settle on a
    slightly different radius than bisection. Either answer comes from
    a probe that genuinely certified; the monotonicity assumption in
    {!Deept.Psearch} is an assumption about the predicate, not a
    guarantee this relaxation provides at fine scales. *)

val default_baf_steps : int
