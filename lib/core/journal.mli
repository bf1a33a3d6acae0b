(** Crash-safe job journal, over one append-only log.

    {!Log} is the append-only, fsynced JSONL file the certification
    stack keeps its durable state in. Two logs use it: this module's
    result journal (one line per completed job, for [certify batch] and
    certifyd) and certifyd's intake file (one line per accepted
    request, see [Service.Server]). A batch or daemon killed at any
    instant (power loss, OOM killer, SIGKILL) resumes from its logs
    without re-running finished work.

    The journal format is a flat JSON object per line:

    {v
    {"job":3,"verdict":"unknown(timeout)","rung":"interval","attempts":4,
     "retries":1,"wall_s":1.203017,"detail":""}
    v}

    Verdicts round-trip through {!Verdict.to_string} /
    {!Verdict.of_string}; [detail] carries the supervisor's failure
    reason (["signal 9"], ["oom"], …) for dead-worker entries. *)

(** The append-only log. Every line is one record. Two rules hold for
    every log, in this one place:

    - {e fresh start}: {!fresh} empties (or creates) the file when it is
      opened, durably, so nothing of an earlier run outlives the open;
    - {e commit rule}: a record counts only once its newline is on disk.
      A kill can tear an append after any byte; every torn write is a
      prefix of [line ^ "\n"], so it never ends in a newline. {!resume}
      cuts everything after the last newline and {!load} ignores it.

    A newline-terminated line that does not decode cannot come from a
    crash; it is corruption and fails loudly.

    Durability goes through {!Sysio} at sites named by a prefix
    ([journal], [intake]): [<prefix>.append], [<prefix>.fsync],
    [<prefix>.truncate] and [<prefix>.dir]. *)
module Log : sig
  type t

  val fresh : site:string -> string -> t
  (** Empty or create the file now (an [ftruncate] and an fsync, both
      at [<site>.truncate]) and fsync its directory ([<site>.dir]). *)

  val resume :
    site:string -> decode:(string -> ('a, string) result) -> string -> t * 'a list
  (** Open the log for appending (a missing file is created empty) and
      decode every newline-terminated line, skipping blank ones, in
      file order. A torn tail is cut at [<site>.truncate], with a
      warning on stderr; the directory is fsynced ([<site>.dir]).
      @raise Failure on a terminated line [decode] rejects. *)

  val load : decode:(string -> ('a, string) result) -> string -> 'a list
  (** The same read as {!resume}, leaving the file untouched (a torn
      tail is skipped with a warning). @raise Failure as {!resume};
      [Sys_error] if the file does not exist. *)

  val append : t -> string -> unit
  (** Append one record ([line] holds no newline) durably: one write of
      [line ^ "\n"] at [<site>.append], then one fsync at [<site>.fsync]. *)

  val descr : t -> Unix.file_descr
  (** The log's write descriptor, for forked children to close. *)

  val close : t -> unit
end

type entry = {
  job : int;  (** batch-wide job id (e.g. test-set sentence index) *)
  verdict : Verdict.t;
  rung : string;  (** ladder rung that produced the verdict, or ["worker"] *)
  attempts : int;  (** ladder rungs tried *)
  retries : int;  (** supervisor-level re-runs after worker deaths *)
  wall_s : float;  (** wall-clock seconds spent on the job *)
  detail : string;  (** free-form failure detail, [""] when clean *)
}

val to_json : entry -> string
(** One line, no trailing newline. *)

val of_json : string -> (entry, string) result
(** Strict inverse of {!to_json} (unknown fields rejected, all fields
    required); the [Error] carries a parse diagnostic. *)

type t
(** An open journal: in-memory entries plus the backing {!Log}. *)

val create : string -> t
(** Start a fresh journal at this path: {!Log.fresh} at site [journal]. *)

val resume : string -> t
(** Load an existing journal (missing file = empty journal) and keep
    appending to it ({!Log.resume} at site [journal]). A stale [.tmp]
    left by the pre-append-only format is removed. *)

val log : t -> Log.t
(** The backing log, for its descriptor and {!Log.close}. *)

val entries : t -> entry list
(** In append order, including entries loaded by {!resume}. *)

val journaled : t -> int -> bool
(** [journaled j id] — has job [id] already been recorded? Resume uses
    this to skip finished work. *)

val append : t -> entry -> unit
(** Record one completed job, durably ({!Log.append}). Appending a job
    id that is already journaled raises [Invalid_argument] — the
    supervisor must never double-report. *)

val load : string -> entry list
(** Read-only load ({!Log.load}). *)
