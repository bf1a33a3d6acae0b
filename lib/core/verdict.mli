(** Structured certification verdicts.

    The boolean answer of {!Certify.certify} conflates "the abstraction
    is too coarse" with "the verifier died trying" — a propagation that
    overflows, saturates into NaN or blows its resource budget must not
    silently read as "not robust", and must never poison a batch. Every
    resilient entry point ({!Certify.certify_v}, {!Engine.certify})
    returns this type instead:

    - [Certified]: the margin lower bound is positive — robust on the
      region (sound).
    - [Falsified]: a concrete counterexample was found (the region
      contains an input the network misclassifies). Also sound.
    - [Unknown r]: no answer, with the reason [r] preserved. *)

type unknown_reason =
  | Timeout  (** wall-clock deadline exceeded mid-propagation *)
  | Symbol_budget  (** live ε-noise-symbol cap exceeded *)
  | Numerical_fault
      (** NaN or ±∞ detected in the abstraction after an op — e.g. the
          dot-product remainder overflow of {!Dot.matmul_zz}, or an
          injected fault (see {!Config.fault_spec}) *)
  | Unbounded
      (** the abstraction collapsed inside a transformer
          ({!Zonotope.Unbounded}: saturated exponential, degenerate
          reciprocal) *)
  | Imprecise
      (** clean propagation, but the margin lower bound is not positive:
          the abstraction is too coarse at this radius. Descending the
          degradation ladder cannot help — cheaper configs are coarser —
          so {!Engine.certify} stops here. *)
  | Worker_killed
      (** a {!Supervisor} worker overran its hard deadline and was
          terminated by the supervisor (SIGTERM, escalating to SIGKILL
          after the grace period) *)
  | Worker_crashed
      (** a {!Supervisor} worker died without answering: nonzero exit,
          unexpected signal (e.g. SIGSEGV), out-of-memory guard, or a
          garbled result on the pipe *)
  | Overloaded
      (** the certification daemon shed the job at admission: its bounded
          queue was past the high-water mark. The response carries a
          retry-after hint; the query was never attempted. *)
  | Quarantined
      (** the daemon's circuit breaker has the target model quarantined
          after consecutive worker deaths on it; the query was rejected
          at admission until the breaker half-opens. *)

type t = Certified | Falsified | Unknown of unknown_reason

exception Abort of unknown_reason
(** Raised by {!Propagate.run}'s per-op checkpoints when a budget is
    exhausted or poison is detected. Typed front-ends map it to
    [Unknown]; the legacy boolean front-ends map it to "not certified"
    (always sound). *)

val all_reasons : unknown_reason list
(** Every constructor, in declaration order — lets tests and the journal
    round-trip stay exhaustive without a fragile hand-written list. *)

val reason_name : unknown_reason -> string
val to_string : t -> string

val reason_of_string : string -> unknown_reason option
(** Inverse of {!reason_name}. *)

val of_string_res : string -> (t, string) result
(** Inverse of {!to_string} — ["certified"], ["falsified"],
    ["unknown(REASON)"]. A rejection explains itself: an unknown reason
    lists every valid reason name, a malformed verdict shows the
    expected shapes. The journal and the service protocol use this so a
    corrupt or version-skewed line fails with an actionable message. *)

val is_fault : t -> bool
(** True for every [Unknown] except [Imprecise] — the verdicts the
    degradation ladder is allowed to retry. *)

val equal : t -> t -> bool
