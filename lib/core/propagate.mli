(** Multi-norm Zonotope interpreter over {!Ir.program}s — the verifier's
    engine (Section 5).

    Since PR 4 this is a {!Interp.DOMAIN} instance over the shared
    interpreter loop: the module supplies only the zonotope transformer
    per op; the per-op checkpoints (deadline / ε budget / poison scan),
    fault injection and the trace stream live in {!Interp} and are
    identical across all domains. Following the paper,
    {!Reduction.decorrelate_min_k} runs on the input of every
    Transformer layer, just before the residual split around the
    self-attention (the only point where a single zonotope is alive, so
    symbol renumbering is safe). With [Config.variant = Combined], the
    precise dot product is used in the last Transformer layer only
    (Appendix A.6). *)

type checkpoint
(** A point to resume a propagation at: the index of the op to run next
    and the values that ops at or after it read — only those, so
    holding one costs a layer input, not a run's value array. Two kinds
    exist, and {!Engine} resumes its rungs from both:
    - the end of the program's affine prefix ({!run_prefix});
    - the input of the last Transformer layer a run entered before a
      [Symbol_budget] abort ([?on_budget]), as that run reduced it with
      DecorrelateMin_k. *)

val checkpoint_op : checkpoint -> int
(** The op a resumed run starts at. *)

val run :
  ?from:checkpoint ->
  ?on_budget:(checkpoint -> unit) ->
  Config.t ->
  Ir.program ->
  Zonotope.t ->
  Zonotope.t
(** Output zonotope of the program on the given input region.

    After every op the interpreter runs a checkpoint and aborts with a
    typed {!Verdict.Abort} instead of propagating poison:
    - [Timeout] when [cfg.budget.time_limit_s] wall-clock seconds have
      elapsed since entry;
    - [Symbol_budget] when the live ε-symbol count exceeds
      [cfg.budget.max_eps];
    - [Numerical_fault] when the output zonotope contains a NaN or an
      infinity (e.g. an overflowed dot-product remainder);
    - [Unbounded] when a transformer collapses mid-op
      ({!Zonotope.Unbounded}).

    [cfg.fault] injects a deterministic fault after the named op (see
    {!Config.fault_spec}) — the test hook behind the degradation-ladder
    suite. With the default config (no budget, no fault) only the
    poison/collapse checkpoints are active.

    [from] resumes at {!checkpoint_op} on the checkpoint's values. The
    layer counter (Combined's Precise last layer) is derived from that
    op index, and the symbol context is seeded with the widest live
    value's ε width. At a layer input the resumed run reduces the input
    again with [cfg.reduction_k]. That is sound because DecorrelateMin_k
    is sound on any zonotope: the result is [cfg] applied from that
    layer on. Where the first reduction only dropped dead columns (at
    most [reduction_k] live symbols), resuming under the config that
    took the checkpoint is bit-identical to the full run. A checkpoint
    is never changed by a run, so one can serve many.

    [on_budget] receives the input of the last layer this run entered
    when it aborts with [Symbol_budget] (nothing when it entered none);
    the abort is then re-raised. Which layer that is depends only on the
    config and the input. Nothing is held for it while the run is
    healthy, and no other abort hands one on: a timeout's layer would
    depend on the wall clock.

    A post-LN layer's residual [Add] and the mean-only [Center_norm]
    that reads it run as one pass ({!Zonotope.add_center_rows}) unless a
    fault is armed at either op or a trace sink is installed; the
    output is the same to the bit (DESIGN.md §18).

    Per-op tracing goes through [cfg.trace] (see {!Config.t} and
    {!Profile}). Setting the environment variable [DEEPT_TRACE] is a
    compatibility shim that installs a stderr sink (one line per op:
    kind, bound width, live ε symbols) when no explicit sink is set —
    still the first tool to reach for when certification of a deep
    network fails unexpectedly. *)

val run_prefix :
  Config.t -> Ir.program -> Zonotope.t -> len:int -> checkpoint
(** Propagates only ops [0 .. len - 1] and returns the checkpoint at op
    [len]. [len] must not exceed {!affine_prefix_len}: affine ops are
    config-independent and symbol-free, so the checkpoint can be shared
    across ladder rungs via [?from], bit-identically.
    @raise Invalid_argument if [len] exceeds the affine prefix. *)

val affine_prefix_len : Ir.program -> int
(** Length of the leading run of ops whose zonotope transformers are
    exact affine maps independent of {!Config.t}: [Linear], [Add],
    [Positional], [Pool_first] and mean-only [Center_norm]. For the ViT
    models this covers the patch embedding; for text models it is 0
    (they start with self-attention). *)

(** {1 Internals shared with {!Engine}} *)

val use_precise : Config.t -> layer:int -> total:int -> bool
val apply_fault : Config.fault_spec -> Zonotope.t -> unit
val poison_scan : Zonotope.t -> [ `Finite | `Nan | `Inf ]

val abort_of : Interp.abort -> exn
(** Maps interpreter checkpoint aborts to {!Verdict.Abort} — [Timeout],
    [Symbol_budget] and [Numerical_fault] respectively. Shared by every
    certification front-end that arms {!Interp.checks} (interval rung,
    linear-relaxation baseline). *)
