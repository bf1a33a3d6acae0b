(* A reusable pool of OCaml 5 domains for intra-certification parallelism.

   Design constraints, in priority order:

   1. Determinism: callers split work into chunks whose boundaries depend
      only on the problem size, never on the pool size or on scheduling.
      Each chunk owns a disjoint slice of the output, so results are
      bit-identical whether the pool has 1 domain or 8, and whichever
      domain happens to claim which chunk.
   2. Spawn-once: domains are spawned at [create] and parked on a
      condition variable between jobs. Per-job cost is one broadcast and
      one atomic counter, cheap enough to run once per dot product of a
      propagation.
   3. Cooperative cancellation: the first chunk to raise (a cooperative
      deadline poll, an [Unbounded] bound) stores its exception in an
      atomic; the remaining chunks are claimed but skipped, and the
      exception is re-raised on the calling domain once the job drains.

   The pool is work-sharing: chunks are claimed from an atomic counter,
   so a slow chunk does not stall the others. The calling domain
   participates in the job, so [create 1] (or a reentrant call from
   inside a running chunk) degrades to plain serial execution. *)

type job = {
  run : int -> unit;  (* chunk index -> work on that chunk *)
  nchunks : int;
  next : int Atomic.t;  (* next chunk index to claim *)
  pending : int Atomic.t;  (* chunks not yet finished (or skipped) *)
  failed : exn option Atomic.t;  (* first exception; cancels the rest *)
}

type t = {
  size : int;
  mutex : Mutex.t;
  work_cv : Condition.t;  (* workers park here between jobs *)
  done_cv : Condition.t;  (* the caller parks here while a job drains *)
  mutable current : job option;
  mutable seq : int;  (* job generation, so workers run each job once *)
  mutable stop : bool;
  active : bool Atomic.t;  (* reentrancy guard: nested calls go serial *)
  mutable workers : unit Domain.t array;
}

let size p = p.size

(* Claim-and-run loop shared by workers and the caller. Every chunk is
   claimed exactly once; after a failure the remaining chunks are claimed
   and dropped so [pending] still drains to zero. *)
let drain pool j ~signal =
  let continue = ref true in
  while !continue do
    let c = Atomic.fetch_and_add j.next 1 in
    if c >= j.nchunks then continue := false
    else begin
      (if Atomic.get j.failed = None then
         try j.run c
         with e -> ignore (Atomic.compare_and_set j.failed None (Some e)));
      if Atomic.fetch_and_add j.pending (-1) = 1 && signal then begin
        (* last chunk: wake the caller, which may already be waiting *)
        Mutex.lock pool.mutex;
        Condition.broadcast pool.done_cv;
        Mutex.unlock pool.mutex
      end
    end
  done

let worker pool =
  let rec loop last_seq =
    Mutex.lock pool.mutex;
    while (not pool.stop) && pool.seq = last_seq do
      Condition.wait pool.work_cv pool.mutex
    done;
    let seq = pool.seq and job = pool.current and stop = pool.stop in
    Mutex.unlock pool.mutex;
    if not stop then begin
      (match job with Some j -> drain pool j ~signal:true | None -> ());
      loop seq
    end
  in
  loop 0

let create ?(force = false) n =
  if n < 1 then invalid_arg "Dpool.create: need at least one domain";
  if n > 128 then invalid_arg "Dpool.create: more than 128 domains";
  (* Never run more compute threads than the hardware offers: extra
     domains on an oversubscribed machine only preempt each other (and
     the caller) mid-chunk. Chunk boundaries depend on [size] alone and
     results are chunk-assignment-independent, so clamping the worker
     count changes nothing but the speed. [force] spawns all [n - 1]
     regardless — used by tests that must exercise real cross-domain
     claiming even on small machines. *)
  let spawned =
    if force then n - 1
    else min (n - 1) (max 0 (Domain.recommended_domain_count () - 1))
  in
  let pool =
    {
      size = n;
      mutex = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      current = None;
      seq = 0;
      stop = false;
      active = Atomic.make false;
      workers = [||];
    }
  in
  pool.workers <- Array.init spawned (fun _ -> Domain.spawn (fun () -> worker pool));
  pool

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.stop <- true;
  Condition.broadcast pool.work_cv;
  Mutex.unlock pool.mutex;
  Array.iter Domain.join pool.workers;
  pool.workers <- [||]

(* Run [f c] for every chunk index [c] in [0, nchunks): in chunk order on
   the calling domain when the pool cannot help (size 1, a single chunk,
   or a nested call from inside a running chunk), otherwise shared across
   the pool. Chunk boundaries are the caller's: results must not depend
   on which domain runs a chunk. *)
let run_chunks pool ~nchunks f =
  if nchunks <= 0 then ()
  else if nchunks = 1 || pool.size = 1 then
    for c = 0 to nchunks - 1 do
      f c
    done
  else if not (Atomic.compare_and_set pool.active false true) then
    (* nested (or concurrent) parallel region: run serially, the job
       already running owns the pool *)
    for c = 0 to nchunks - 1 do
      f c
    done
  else begin
    let j =
      {
        run = f;
        nchunks;
        next = Atomic.make 0;
        pending = Atomic.make nchunks;
        failed = Atomic.make None;
      }
    in
    Mutex.lock pool.mutex;
    pool.current <- Some j;
    pool.seq <- pool.seq + 1;
    Condition.broadcast pool.work_cv;
    Mutex.unlock pool.mutex;
    drain pool j ~signal:false;
    Mutex.lock pool.mutex;
    while Atomic.get j.pending > 0 do
      Condition.wait pool.done_cv pool.mutex
    done;
    pool.current <- None;
    Mutex.unlock pool.mutex;
    Atomic.set pool.active false;
    match Atomic.get j.failed with Some e -> raise e | None -> ()
  end
