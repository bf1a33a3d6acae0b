(** Injectable syscall shim for the durability path.

    Every write, fsync, truncate and socket send that the certification
    stack's durability story depends on — journal appends, intake
    records, supervisor pipes, the client socket — goes through this
    module instead of calling [Unix] directly. When the shim is
    {e off} (the default) each wrapper is one match on an immutable
    [Off] state away from the raw syscall: no allocation, no logging,
    no measurable overhead. When {e armed} with a {!plan}, the shim
    deterministically injects the faults a hostile kernel or dying disk
    would produce — an errno at the Nth operation, short writes, EINTR
    storms, a write torn after [k] bytes followed by process death —
    which is what makes crash-consistency checkable by enumeration
    instead of by hand-picked kill points (see [bin/crashprobe.ml]).

    The wrappers also own the boring half of the POSIX contract so no
    call site gets it wrong: genuine (and injected) [EINTR] is always
    restarted, and {!write_all} loops on partial writes — bytes are
    never silently dropped. {!single_write} is the one exception: it
    restarts [EINTR] but returns a possibly-partial count, for
    nonblocking sockets whose caller must re-buffer the unsent suffix.

    State is process-global and inherited across [fork]; a forked child
    that should run clean (a daemon's pre-forked worker) calls
    {!disarm}. *)

(** Operation classes, for plan filtering. [Send] is a socket write,
    [Write] a file or pipe write; the rest match their syscalls. *)
type op = Write | Send | Fsync | Truncate

val op_name : op -> string

(** What happens when the plan matches an operation:

    - [Err e]: the operation fails with [Unix_error (e, _, site)] —
      [ENOSPC], [EIO], [EPIPE], … The caller's error handling runs.
    - [Short k]: a write/send transfers at most [k] bytes ([k >= 1], so
      looping callers still make progress). Other ops are unaffected.
    - [Eintr n]: this and the next [n-1] operations at the same site
      raise [EINTR] — a storm, observed below the wrappers' restart
      loops, so it exercises them without reaching the caller.
    - [Torn k]: a write/send really transfers [min k len] bytes of the
      buffer and the process then dies by SIGKILL — the canonical
      torn-append crash. On a non-write op it degrades to [Crash].
    - [Crash]: the process dies by SIGKILL instead of performing the
      operation — a kill landing between two syscalls. *)
type action = Err of Unix.error | Short of int | Eintr of int | Torn of int | Crash

type plan = {
  nth : int;  (** 0-based index among counted (matching) operations *)
  op : op option;  (** only this class counts toward [nth]; [None] = all *)
  site : string option;
      (** only sites containing this substring count; [None] = all *)
  action : action;
  persist : bool;
      (** keep firing on every later match instead of once at [nth];
          only meaningful for [Err] and [Short] *)
}

val plan : ?op:op -> ?site:string -> ?persist:bool -> nth:int -> action -> plan
(** Validated constructor. @raise Invalid_argument on [nth < 0],
    [Short k] with [k < 1], [Eintr n] with [n < 1], [Torn k] with
    [k < 0], or [persist] combined with [Eintr]/[Torn]/[Crash] (a
    persistent storm would livelock the restart loops). *)

val plan_to_string : plan -> string

val plan_of_string : string -> (plan, string) result
(** Parse the CLI / drill syntax, the inverse of {!plan_to_string}:

    {v ACTION@NTH[:op=OP][:site=SUB][:persist] v}

    where [ACTION] is [crash], [torn:K], [short:K], [eintr:N], or an
    errno name ([enospc], [eio], [epipe], [econnreset], [eacces]).
    Examples: ["crash@12"], ["torn:9@3:site=journal.append"],
    ["short:7@0:op=write:persist"], ["enospc@5:site=intake"]. *)

val arm : plan -> unit
(** Install a plan (replacing any previous one) and reset the counter. *)

val disarm : unit -> unit
(** Back to direct syscalls; also clears the recorder and counter. *)

val armed : unit -> bool

(** One counted operation, as seen by the recorder. [len] is the byte
    count a write/send was asked to transfer, [0] for other ops. *)
type event = { index : int; eop : op; esite : string; len : int }

val record : (event -> unit) -> unit
(** Count and report every durability operation {e without} injecting
    faults — the crash-point explorer's enumeration pass. Replaces any
    armed plan. *)

val ops : unit -> int
(** Operations counted since the last {!arm}/{!record}; [0] when off. *)

(* ---- wrapped syscalls ---- *)

val write_all : site:string -> Unix.file_descr -> bytes -> int -> int -> unit
(** Write the whole range: restarts [EINTR], loops on short writes. *)

val write_string : site:string -> Unix.file_descr -> string -> unit
(** {!write_all} for a whole string. *)

val send_string : site:string -> Unix.file_descr -> string -> unit
(** {!write_string}, counted as a socket [Send]. *)

val single_write : site:string -> Unix.file_descr -> string -> int -> int -> int
(** One send on a (typically nonblocking) socket: restarts [EINTR],
    returns the possibly-partial byte count; [EAGAIN]/[EPIPE]/… raise
    as usual for the caller to handle. Counted as [Send]. *)

val fsync : site:string -> Unix.file_descr -> unit
val ftruncate : site:string -> Unix.file_descr -> int -> unit
