(** certifyd's server loop: admission control, dispatch, fault
    containment and journal-backed durability in one select loop.

    Architecture (see DESIGN.md §10):

    {v
              clients (Unix socket, JSON lines)
                 │ admission: validate → cache → shed → breaker
                 ▼
       bounded job queue ── intake file (fsync before dispatch)
                 │
                 ▼
       pre-forked warm workers (Supervisor's pool core, stepped here)
                 │
                 ▼
       journal (fsync per completion) → response to client
    v}

    Robustness properties:

    - {e backpressure}: past [queue_cap] waiting jobs, new work is shed
      with an [Overloaded] response and an EWMA-derived retry hint —
      the queue cannot grow without bound;
    - {e fault containment}: the workers are {!Deept.Supervisor}'s pool
      core, which this loop steps; a worker death (crash, OOM guard,
      deadline kill) is confined to its in-flight job — crash retries
      with jittered backoff, a per-model circuit breaker quarantines a
      model after repeated crashes, and the pool is topped up again on a
      consecutive-death backoff schedule;
    - {e durability}: accepted jobs hit the fsynced intake file before
      they can run; completions hit the fsynced journal before the
      client sees them. Both are {!Deept.Journal.Log}s: a fresh start
      empties both before the socket is bound, and a record counts
      once its newline is on disk. A daemon killed at any instant and
      restarted with [resume = true] re-runs exactly the
      intaken-but-unjournaled jobs, and the journal rebuilds the result
      cache. Forked workers close both logs' descriptors.

    Drain (SIGTERM, SIGINT or a [Shutdown] request): new certify
    requests are shed, queued and in-flight jobs finish and are
    journaled, buffered responses are flushed, workers get EOF and are
    reaped, the socket is unlinked. Workers keep the default SIGTERM
    action, so a SIGTERM sent to the whole process group also ends the
    busy ones; their jobs are retried as crashes. *)

type opts = {
  socket : string;  (** Unix-domain socket path (replaced if present) *)
  models : string list;  (** zoo models to warm-load before binding *)
  pool : Deept.Config.pool;
      (** worker count, hard deadline, memory cap, retry/backoff policy *)
  deadline_s : float option;
      (** default cooperative per-job deadline (jobs may override) *)
  queue_cap : int;  (** waiting jobs before admission sheds *)
  breaker_threshold : int;  (** consecutive crashes that open a breaker *)
  breaker_cooloff_s : float;
  write_timeout_s : float;
      (** a client whose socket accepts no bytes for this long while
          responses are pending is dropped (its jobs finish journal-only) *)
  retry_hint_s : float;
      (** [Overloaded] retry hint per job before the service-time EWMA
          has its first sample *)
  journal : string option;
      (** completion journal path; the intake file lives beside it at
          [<journal>.intake]. Without [resume], both files are emptied
          at start. [None] = no durability (tests only). *)
  resume : bool;  (** recover journal + intake instead of starting fresh *)
  log : string -> unit;
}

val opts :
  ?pool:Deept.Config.pool ->
  ?deadline_s:float ->
  ?queue_cap:int ->
  ?breaker_threshold:int ->
  ?breaker_cooloff_s:float ->
  ?write_timeout_s:float ->
  ?retry_hint_s:float ->
  ?journal:string ->
  ?resume:bool ->
  ?log:(string -> unit) ->
  socket:string ->
  string list ->
  opts
(** Defaults: {!Deept.Config.default_pool}, no deadline, [queue_cap 64],
    breaker 3 crashes / 5 s cooloff, 10 s write timeout, 0.1 s unprimed
    retry hint, no journal. @raise Invalid_argument on a non-positive
    cap, timeout or hint, or [resume] without a journal. *)

val run : opts -> unit
(** Load the models, bind the socket and serve until drained. Blocks for
    the daemon's whole life; returns after an orderly drain. *)
