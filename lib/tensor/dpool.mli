(** A reusable, spawn-once pool of OCaml 5 domains for intra-certification
    parallelism: domains shard work inside one propagation, while
    independent queries run in the supervisor's forked worker processes.

    Work is split by the {e caller} into chunks whose boundaries depend
    only on the problem size; the pool merely decides which domain runs
    which chunk (work-sharing over an atomic counter). As long as chunks
    write disjoint outputs, results are bit-identical for every pool
    size — the determinism contract the certification kernels rely on.

    The first chunk to raise an exception (a cooperative deadline poll,
    an unbounded bound) cancels the remaining chunks via an atomic flag;
    the exception is re-raised on the calling domain once in-flight
    chunks drain. The calling domain participates in every job, so a
    1-sized pool — or a nested call from inside a running chunk — is
    plain serial execution. *)

type t

val create : ?force:bool -> int -> t
(** [create n] spawns up to [n - 1] worker domains (the caller is the
    n-th), clamped to [Domain.recommended_domain_count () - 1] — extra
    compute threads on an oversubscribed machine only preempt each
    other, and the clamp cannot change results (chunk boundaries depend
    on [size n] alone, chunk {e assignment} never affects the output).
    [~force:true] spawns all [n - 1] regardless, for tests that must
    exercise cross-domain claiming on small machines.
    Raises [Invalid_argument] unless [1 <= n <= 128]. *)

val size : t -> int

val shutdown : t -> unit
(** Terminates and joins the worker domains. The pool must be idle. *)

val run_chunks : t -> nchunks:int -> (int -> unit) -> unit
(** [run_chunks p ~nchunks f] runs [f c] for every [c] in [0, nchunks),
    each exactly once, distributed over the pool. Serial (in chunk
    order, on the calling domain) when the pool has size 1, there is a
    single chunk, or the call is nested inside a running chunk. *)
