(** Supervised worker pool: process isolation for certification.

    PR 1's cooperative budgets cannot contain every failure: a checkpoint
    between ops never fires inside a wedged C-speed loop, and nothing
    cooperative survives a segfault, an OOM kill or a runaway allocation.
    This module supplies the missing {e hard} containment layer. It
    treats per-input queries as independent, restartable units (the way
    Faith batches GPU queries and Shi et al. loop over per-sentence
    certifications) and runs them on forked workers. One pool core does
    that for two drivers: {!run} (the [certify batch] CLI) and
    certifyd's server loop:

    {v
            supervisor (parent)
            ├── worker 1   (fork; jobs in / results out over pipes)
            ├── worker 2
            ┆
            └── worker N
    v}

    - jobs [(id, payload)] are shipped to workers with [Marshal] over a
      pipe; results come back the same way, one in flight per worker;
    - a per-job {e hard deadline} ({!Config.pool.hard_deadline_s}) is
      enforced from outside: SIGTERM on overrun, SIGKILL after
      {!Config.pool.grace_s} — a worker wedged in a non-allocating loop
      still dies;
    - worker memory is capped ({!Config.pool.mem_limit_mb}) by an
      in-worker GC guard (the portable stand-in for [setrlimit], which
      the stdlib [Unix] does not expose) that exits with a dedicated
      code when the major heap exceeds the limit;
    - any worker death — signal, nonzero exit, OOM, garbage on the
      result pipe — is confined to the job it was running: the job is
      reported as {!failure} (mapping to {!Verdict.Worker_killed} /
      {!Verdict.Worker_crashed}) or retried, a fresh worker is forked,
      and the other jobs proceed;
    - {e crashed} jobs are retried on a fresh worker with exponential
      backoff up to {!Config.pool.max_retries}; deadline kills are
      deterministic overruns and are not retried.

    Payloads and results must be marshallable (no closures, no custom
    blocks). Workers inherit the [worker] closure and all loaded state
    (model weights, config) through [fork], so only small job descriptors
    cross the pipe. *)

type failure =
  | Killed of { signal : int }
      (** the supervisor terminated the worker for overrunning its hard
          deadline ([signal] is the OCaml signal number that ended it:
          [Sys.sigterm], or [Sys.sigkill] after escalation) *)
  | Crashed of { reason : string }
      (** the worker died without being asked to: [{"exit 70"}] (uncaught
          exception), ["oom"] (memory guard), ["signal SIGSEGV"], or
          ["decode: ..."] (garbled result pipe) *)

type 'b job_result = {
  job : int;
  outcome : ('b, failure) result;
  wall_s : float;
      (** wall-clock from the job's first dispatch to its final verdict,
          retries included *)
  retries : int;  (** how many times the job was re-dispatched *)
}

val failure_reason : failure -> Verdict.unknown_reason
(** [Killed _] → {!Verdict.Worker_killed}; [Crashed _] →
    {!Verdict.Worker_crashed}. *)

val failure_detail : failure -> string
(** Human-readable detail, e.g. ["SIGKILL"], ["oom"], ["exit 70"] —
    journaled in {!Journal.entry.detail}. *)

val exit_uncaught : int
(** Exit code of a worker whose job raised an uncaught exception. *)

val exit_oom : int
(** Exit code of a worker stopped by the memory guard. *)

val backoff_delay : Config.pool -> retries:int -> float
(** Delay before re-dispatching after the [retries]-th crash: uniformly
    jittered over [cap/2, cap] with
    [cap = min (backoff_s * 2^retries) max_backoff_s]. Jitter prevents
    workers felled by one event (an OOM sweep, a poisonous model) from
    restarting — and crashing — in lockstep; the cap keeps long-lived
    pools (the certification daemon) from backing off into uselessness.
    Shared by this pool's retry gate and the daemon's respawn loop. *)

(** {1 The pool core}

    One non-blocking core serves both drivers: {!run} below drives it to
    completion for a batch, and certifyd's server steps it inside its own
    select loop. The core owns the workers: their fork and child setup,
    Marshal dispatch, result decoding, reaping and death classification,
    the crash-retry decision, SIGTERM → grace → SIGKILL escalation and
    shutdown. The driver owns the queue of waiting jobs, tells the core
    when to fork ({!top_up}), which descriptors came back readable and
    what time it is, and gets back finished and re-queued jobs. *)

type 'j job = private {
  id : int;
  data : 'j;  (** the driver's job; {!start}'s [payload] picks what ships *)
  mutable retried : int;  (** crash retries charged so far *)
  mutable not_before : float;
      (** backoff gate: the driver must not dispatch the job before this
          time *)
  mutable first_dispatch : float option;
}

val job : int -> 'j -> 'j job
(** A fresh job: no retries, dispatchable now. Only the core updates a
    job. *)

type ('j, 'b) event =
  | Finished of 'j job * 'b job_result
      (** the job's final result: its worker's answer, a deadline kill,
          or a crash with no retry left *)
  | Retry of 'j job
      (** its worker crashed; [retried] is bumped and [not_before] set
          by {!backoff_delay} — queue it again *)
  | Returned of 'j job
      (** its worker was found dead at dispatch, so it never ran: queue
          it again, uncharged *)
  | Died  (** a worker died (a job's own event, if any, follows) *)

type ('j, 'b) t
(** A pool of up to [workers] forked workers of one worker function. *)

val start :
  ?parent_fds:(unit -> Unix.file_descr list) ->
  site:string ->
  Config.pool ->
  payload:('j -> 'a) ->
  worker:(int -> 'a -> 'b) ->
  ('j, 'b) t
(** No worker is forked until {!top_up}. Each job ships
    [(id, payload data)]; [worker id payload] runs in the child and its
    result comes back the same way. [site] tags the dispatch writes for
    the {!Sysio} chaos layer. Each child closes [parent_fds ()] (the
    driver's own descriptors) and every other worker's pipe ends,
    disarms the chaos layer, restores the default SIGTERM and SIGPIPE
    actions, installs the memory guard and serves jobs until EOF on its
    job pipe ([exit 0]). An uncaught exception exits with
    {!exit_uncaught}, the guard with {!exit_oom}. The caller must ignore
    SIGPIPE while the pool lives. *)

val top_up : ('j, 'b) t -> unit
(** Fork workers until [workers] are live. *)

val feed :
  ('j, 'b) t -> now:float -> next:(unit -> 'j job option) -> ('j, 'b) event list
(** Give each idle worker the job [next ()] returns, until either runs
    out. A worker found dead at dispatch yields {!Died}, and its job
    goes to the next idle worker, or comes back {!Returned} when there
    is none. *)

val fds : ('j, 'b) t -> Unix.file_descr list
(** The live workers' result pipes, for the driver's [select]. *)

val step :
  ('j, 'b) t -> now:float -> readable:Unix.file_descr list -> ('j, 'b) event list
(** Decode results from the readable result pipes (other descriptors
    are ignored), reap and classify the dead, then send SIGTERM to
    workers past the hard deadline and SIGKILL to those past the grace.
    Garbage on a pipe kills its worker: [Crashed "decode: ..."]. *)

val timeout : ('j, 'b) t -> now:float -> float list -> float
(** Seconds a driver may block in [select]: until the earliest pending
    deadline or grace expiry, or the earliest of the driver's own wake
    times (absolute), clamped to \[0.01, 0.5\]. *)

val live : ('j, 'b) t -> int
(** Workers forked and not yet reaped. *)

val inflight : ('j, 'b) t -> 'j job list
(** Jobs on a worker now. *)

val shutdown : ('j, 'b) t -> unit
(** Orderly shutdown: EOF on every job pipe, then reap every worker
    (in-flight jobs are the driver's to wait out first). *)

(** {1 The batch driver} *)

val run :
  ?pool:Config.pool ->
  ?on_result:('b job_result -> unit) ->
  worker:(int -> 'a -> 'b) ->
  (int * 'a) list ->
  'b job_result list
(** [run ~pool ~worker jobs] certifies every job to a final
    [job_result], in job-id order. [on_result] fires once per job the
    moment its result is final (out of order) — the batch driver appends
    to the {!Journal} there, so a killed run loses at most the jobs
    still in flight. Job ids must be distinct
    (@raise Invalid_argument otherwise). The pool defaults to
    {!Config.default_pool}. SIGPIPE is ignored for the duration of the
    call (worker death must surface as a typed failure, not kill the
    supervisor). *)
