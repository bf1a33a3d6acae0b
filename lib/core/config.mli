(** Verifier configuration: the DeepT variants evaluated in the paper.

    - [DeepT-Fast] (Section 4.8, "Fast Bounds") — dual-norm cascade for
      all quadratic terms of the dot product;
    - [DeepT-Precise] — O(E∞²) interval analysis for the ε·ε term;
    - [Combined] (Appendix A.6) — Precise in the last Transformer layer,
      Fast elsewhere. *)

type dot_variant = Fast | Precise | Combined

type dual_order = Linf_first | Lp_first
(** Which operand of the fast dot-product bound has the dual-norm trick
    applied first (Section 6.5). The paper finds [Linf_first] slightly
    better on average. *)

type softmax_form = Stable | Direct
(** [Stable]: 1 / Σ exp(νj − νi) (the paper's choice, Section 5.2).
    [Direct]: exp(νi) · recip(Σ exp(νj)) — what CROWN uses; exposed for
    the ablation. *)

(** {1 Resilience: budgets and fault injection} *)

type fault_action =
  | Inject_nan  (** overwrite one entry of the op's output with NaN *)
  | Inject_inf  (** overwrite one entry of the op's output with +∞ *)
  | Stall of float  (** sleep this many (wall-clock) seconds after the op *)
  | Raise_unbounded
      (** raise {!Zonotope.Unbounded} at the op — simulates a collapsed
          transformer (saturated exponential) *)

type fault_spec = {
  fault_op : int;  (** op index the fault fires after *)
  action : fault_action;
  persist : int;
      (** how many ladder rungs the fault stays active for; {!Engine}
          strips the fault from rung configs once this many attempts have
          been made. [max_int] = the op is permanently broken. *)
}
(** Deterministic fault injection, threaded through {!Propagate.run} so
    every rung of the degradation ladder and every [Unknown] reason can
    be exercised in tests without relying on flaky timing or on finding a
    model that organically overflows. *)

type budget = {
  time_limit_s : float option;
      (** wall-clock deadline for one propagation, checked after every
          op; exceeded → {!Verdict.Abort}[ Timeout] *)
  max_eps : int option;
      (** cap on live ε noise symbols; exceeded →
          {!Verdict.Abort}[ Symbol_budget] *)
}

val no_budget : budget

val fault : ?persist:int -> int -> fault_action -> fault_spec
(** [fault ~persist op action] — [persist] defaults to [max_int]. *)

(** {1 Process isolation: worker-pool policy}

    Policy knobs of the {!Supervisor} worker pool. Unlike {!budget},
    which is enforced {e cooperatively} inside one propagation, these
    limits are enforced from the outside on forked worker processes —
    they hold even when a worker is wedged in a tight loop or dies. *)

type pool = {
  workers : int;  (** forked worker processes (≥ 1) *)
  hard_deadline_s : float option;
      (** per-job wall-clock deadline enforced by the supervisor: on
          overrun the worker gets SIGTERM, then SIGKILL after [grace_s].
          The job is reported as {!Verdict.Worker_killed}. *)
  grace_s : float;  (** SIGTERM → SIGKILL escalation delay *)
  mem_limit_mb : int option;
      (** per-worker major-heap cap. The stdlib [Unix] module exposes no
          [setrlimit], so the cap is enforced by a GC alarm in the worker
          that exits with a dedicated code when the major heap exceeds
          the limit; the supervisor reports the job as
          {!Verdict.Worker_crashed} (reason "oom"). *)
  max_retries : int;
      (** how many times a job whose worker {e crashed} is re-queued
          (deadline kills are deterministic overruns and are not
          retried) *)
  backoff_s : float;
      (** base of the exponential retry backoff: retry [k] of a job is
          nominally delayed by [backoff_s * 2^k], jittered (see
          {!Supervisor.backoff_delay}) so simultaneous worker deaths do
          not restart in lockstep *)
  max_backoff_s : float;
      (** hard ceiling on any single backoff delay, jitter included —
          keeps the exponential from growing past usefulness in
          long-lived pools (the daemon's worker-respawn loop) *)
}

val default_pool : pool
(** One worker, no hard deadline, 1 s grace, no memory cap, one retry,
    50 ms backoff base capped at 5 s. *)

val pool :
  ?workers:int ->
  ?hard_deadline_s:float ->
  ?grace_s:float ->
  ?mem_limit_mb:int ->
  ?max_retries:int ->
  ?backoff_s:float ->
  ?max_backoff_s:float ->
  unit ->
  pool
(** Validating constructor over {!default_pool}.
    @raise Invalid_argument on non-positive workers/deadline/memory,
    negative grace/retries/backoff, or [max_backoff_s < backoff_s]. *)

(** {1 Upward refinement: branch-and-bound symbol splitting}

    Policy for {!Brefine}'s branch-and-bound refinement — the ladder's
    {e upward} direction. When a rung fails on precision ([Unknown
    Imprecise]), the refiner ranks input noise symbols by their absolute
    coefficient contribution to the losing logit margin, splits the
    [top_k] strongest symbol ranges in half and re-certifies every
    half-combination. Every branch runs in the calling process, in
    branch order, so a refinement costs its caller up to
    [max_branches] propagations beyond the plain one. [None] (the
    default) disables refinement and preserves the engine's
    pre-refinement behavior bit-for-bit. *)

type refine = {
  top_k : int;
      (** symbols split per branch-and-bound node (≥ 1); a node spawns
          [2^top_k] sub-branches (capped by [max_branches]) *)
  max_branches : int;
      (** total branch-propagation budget for one refinement; shared
          between the first split wave and recursive re-splits *)
  depth : int;
      (** maximum nesting of splits: 1 = split once, no recursion on
          still-imprecise branches *)
}

val default_refine : refine
(** [top_k = 2], [max_branches = 8], [depth = 2]. *)

val refine : ?top_k:int -> ?max_branches:int -> ?depth:int -> unit -> refine
(** Validating constructor over {!default_refine}.
    @raise Invalid_argument unless [1 <= top_k <= 6],
    [2 <= max_branches <= 256] and [1 <= depth <= 8]. *)

type t = {
  variant : dot_variant;
  order : dual_order;
  softmax : softmax_form;
  refine_softmax_sum : bool;
      (** apply the softmax-sum zonotope refinement (Section 5.3) *)
  reduction_k : int;
      (** ℓ∞ noise symbols kept by DecorrelateMin_k at each layer input;
          0 disables reduction *)
  budget : budget;  (** resource limits enforced per-op (default: none) *)
  fault : fault_spec option;  (** deterministic fault injection hook *)
  domains : int;
      (** OCaml domains sharding the dot product's row blocks
          ({!Dot.matmul_zz}) {e inside} one propagation (default 1 =
          serial). That product is where DeepT-Precise spends its time;
          every other transformer runs on one domain. Results are
          bit-identical for every value; see {!Tensor.Dpool}.
          Independent of {!pool}.workers, which forks whole processes
          across inputs. *)
  trace : Interp.sink option;
      (** per-op trace sink fed by the interpreter's event stream
          (default [None] = silent). {!Profile} collectors and the
          [DEEPT_TRACE] stderr dump are both sinks; the env var is now
          only a compatibility shim that installs a stderr sink when no
          explicit one is set. A sink is a closure: leave it [None] in
          configs that cross the {!Supervisor} Marshal boundary. *)
  refine : refine option;
      (** branch-and-bound refinement policy for the ladder's upward
          direction (default [None] = refinement off, pre-refinement
          behavior preserved bit-for-bit). Plain data, Marshal-safe. *)
}

val default : t
(** DeepT-Fast with ℓ∞-first dual order, stable softmax, sum refinement
    on, reduction to 128 symbols. *)

val fast : t
val precise : t
(** Like {!default} with the Precise dot product (and a smaller symbol
    budget, mirroring the paper's setup). *)

val combined : t
(** Appendix A.6 variant. *)

val with_budget : ?deadline:float -> ?max_eps:int -> t -> t
(** Replaces the budget (omitted limits are cleared). *)

val with_domains : int -> t -> t
(** Sets {!t.domains}.
    @raise Invalid_argument unless [1 <= n <= 128]. *)

val with_trace : Interp.sink option -> t -> t
(** Sets {!t.trace}. *)

val with_refine : refine option -> t -> t
(** Sets {!t.refine}. *)

val policy_key : t -> string
(** Canonical serialization of every {e precision-relevant} field of the
    config — variant, dual order, softmax form, sum refinement,
    reduction budget, and the refine policy. Two configs with equal
    [policy_key] produce bit-identical verdicts on the same query, so
    this is the one sanctioned cache-key component for config identity
    (see {!Service.Cache}): new precision-relevant fields must be added
    here, never ad-hoc in a cache. Budgets, fault injection, tracing and
    scheduling knobs are deliberately excluded — they affect {e whether}
    an answer is produced, not which answer. *)

val variant_name : dot_variant -> string
val fault_action_name : fault_action -> string
val pp : Format.formatter -> t -> unit
