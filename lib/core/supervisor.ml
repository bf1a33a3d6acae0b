type failure = Killed of { signal : int } | Crashed of { reason : string }

type 'b job_result = {
  job : int;
  outcome : ('b, failure) result;
  wall_s : float;
  retries : int;
}

let exit_uncaught = 70
let exit_oom = 71

let failure_reason = function
  | Killed _ -> Verdict.Worker_killed
  | Crashed _ -> Verdict.Worker_crashed

let signal_name s =
  if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigint then "SIGINT"
  else if s = Sys.sigabrt then "SIGABRT"
  else "signal " ^ string_of_int s

let failure_detail = function
  | Killed { signal } -> signal_name signal
  | Crashed { reason } -> reason

(* Jittered, capped exponential backoff. Deterministic backoff restarts
   every victim of a simultaneous kill (an OOM sweep, a model that
   crashes every worker at once) in lockstep, synchronizing the next
   crash wave; the jitter spreads retry [k] uniformly over
   [cap/2, cap] with cap = min(backoff_s * 2^k, max_backoff_s). *)
let jitter_rng = lazy (Random.State.make_self_init ())

let backoff_delay pool ~retries =
  let cap =
    Float.min
      (pool.Config.backoff_s *. (2.0 ** float_of_int retries))
      pool.Config.max_backoff_s
  in
  cap *. (0.5 +. (0.5 *. Random.State.float (Lazy.force jitter_rng) 1.0))

(* ---------------- the worker side ---------------- *)

(* Portable stand-in for setrlimit (absent from the stdlib Unix module):
   a GC alarm fires at the end of every major collection and exits with a
   dedicated code once the major heap exceeds the cap. A worker that
   allocates its way toward an OOM necessarily drives major collections,
   so the guard fires well before the machine is in trouble. *)
let install_mem_guard mb =
  let cap_words = mb * 1024 * 1024 / (Sys.word_size / 8) in
  ignore
    (Gc.create_alarm (fun () ->
         if (Gc.quick_stat ()).Gc.heap_words > cap_words then exit exit_oom))

let worker_main ~mem_limit_mb ~job_r ~res_w (worker : int -> 'a -> 'b) =
  (match mem_limit_mb with Some mb -> install_mem_guard mb | None -> ());
  let jin = Unix.in_channel_of_descr job_r in
  let rec loop () =
    match (Marshal.from_channel jin : int * 'a) with
    | exception End_of_file -> exit 0
    | id, payload ->
        let r = worker id payload in
        (* Unbuffered through the shim: short writes looped, EINTR
           restarted. *)
        let b = Marshal.to_bytes (id, r) [] in
        Sysio.write_all ~site:"worker.result" res_w b 0 (Bytes.length b);
        loop ()
  in
  try loop ()
  with e ->
    Printf.eprintf "supervisor worker %d: uncaught %s\n%!" (Unix.getpid ())
      (Printexc.to_string e);
    exit exit_uncaught

(* ---------------- the pool core ---------------- *)

type 'j job = {
  id : int;
  data : 'j;
  mutable retried : int;
  mutable not_before : float;
  mutable first_dispatch : float option;
}

let job id data =
  { id; data; retried = 0; not_before = 0.0; first_dispatch = None }

type ('j, 'b) event =
  | Finished of 'j job * 'b job_result
  | Retry of 'j job
  | Returned of 'j job
  | Died

type 'j worker = {
  pid : int;
  job_w : Unix.file_descr;
  res_fd : Unix.file_descr;
  res_in : in_channel;
  mutable busy : 'j job option;
  mutable started : float;  (* dispatch time of the in-flight job *)
  mutable term_at : float option;  (* SIGTERM sent (hard-deadline overrun) *)
  mutable sigkilled : bool;
}

type ('j, 'b) t = {
  pool : Config.pool;
  site : string;
  encode : 'j job -> bytes;
  decode : in_channel -> int * 'b;
  child : job_r:Unix.file_descr -> res_w:Unix.file_descr -> unit;
  parent_fds : unit -> Unix.file_descr list;
  mutable workers : 'j worker list;
}

let start (type j a b) ?(parent_fds = fun () -> []) ~site pool
    ~(payload : j -> a) ~(worker : int -> a -> b) : (j, b) t =
  {
    pool;
    site;
    encode = (fun j -> Marshal.to_bytes (j.id, payload j.data) []);
    decode = (fun ic -> (Marshal.from_channel ic : int * b));
    child =
      (fun ~job_r ~res_w ->
        worker_main ~mem_limit_mb:pool.Config.mem_limit_mb ~job_r ~res_w
          worker);
    parent_fds;
    workers = [];
  }

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let spawn t =
  let job_r, job_w = Unix.pipe () in
  let res_r, res_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      (* The one child setup. Hold no parent descriptor: an orphaned
         worker must see EOF on its job pipe the moment its parent dies,
         not when its siblings do. Run without the parent's chaos plan
         (it targets the parent's own I/O, and inheriting it would make
         crashprobe's enumeration nondeterministic) and with the default
         SIGTERM and SIGPIPE actions (a parent's drain handler would
         swallow the deadline SIGTERM). *)
      List.iter close_quietly
        ((job_w :: res_r :: t.parent_fds ())
        @ List.concat_map (fun w -> [ w.job_w; w.res_fd ]) t.workers);
      Sysio.disarm ();
      Sys.set_signal Sys.sigterm Sys.Signal_default;
      Sys.set_signal Sys.sigpipe Sys.Signal_default;
      t.child ~job_r ~res_w;
      exit 0
  | pid ->
      Unix.close job_r;
      Unix.close res_w;
      t.workers <-
        {
          pid;
          job_w;
          res_fd = res_r;
          res_in = Unix.in_channel_of_descr res_r;
          busy = None;
          started = 0.0;
          term_at = None;
          sigkilled = false;
        }
        :: t.workers

let top_up t =
  while List.length t.workers < t.pool.Config.workers do spawn t done

let fds t = List.map (fun w -> w.res_fd) t.workers
let live t = List.length t.workers
let inflight t = List.filter_map (fun w -> w.busy) t.workers

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* Reap a dead worker and forget it. *)
let reap t w =
  let status = waitpid_retry w.pid in
  t.workers <- List.filter (fun w' -> w'.pid <> w.pid) t.workers;
  close_quietly w.job_w;
  close_in_noerr w.res_in;
  status

let classify w status =
  if w.term_at <> None then
    let signal = match status with Unix.WSIGNALED s -> s | _ -> Sys.sigterm in
    Killed { signal }
  else
    match status with
    | Unix.WSIGNALED s -> Crashed { reason = signal_name s }
    | Unix.WEXITED c when c = exit_oom -> Crashed { reason = "oom" }
    | Unix.WEXITED c -> Crashed { reason = "exit " ^ string_of_int c }
    | Unix.WSTOPPED s -> Crashed { reason = "stopped " ^ signal_name s }

let finished ~now j outcome =
  let wall_s =
    match j.first_dispatch with Some t -> now -. t | None -> 0.0
  in
  Finished (j, { job = j.id; outcome; wall_s; retries = j.retried })

let idle w = w.busy = None && w.term_at = None

(* Hand [j] to [w]. A worker that died between jobs (external kill,
   idle OOM) fails the write: the job never ran there, so it is not
   charged a retry. *)
let dispatch t w j ~now =
  if j.first_dispatch = None then j.first_dispatch <- Some now;
  let b = t.encode j in
  match Sysio.write_all ~site:t.site w.job_w b 0 (Bytes.length b) with
  | () ->
      w.busy <- Some j;
      w.started <- now;
      true
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) ->
      ignore (reap t w);
      false

let feed t ~now ~next =
  (* [held]: a job whose worker was found dead, offered to the next *)
  let rec go held acc =
    match List.find_opt idle t.workers with
    | None -> ( match held with Some j -> Returned j :: acc | None -> acc)
    | Some w -> (
        match (match held with Some _ -> held | None -> next ()) with
        | None -> acc
        | Some j ->
            if dispatch t w j ~now then go None acc
            else go (Some j) (Died :: acc))
  in
  List.rev (go None [])

(* A worker died (EOF or garbage on its result pipe): map the death onto
   its in-flight job, if any, honoring the retry policy. *)
let death t w ~now ~decode_error =
  let status = reap t w in
  match w.busy with
  | None -> [ Died ]
  | Some j -> (
      let failure =
        match decode_error with
        | Some msg -> Crashed { reason = "decode: " ^ msg }
        | None -> classify w status
      in
      match failure with
      | Crashed _ when j.retried < t.pool.Config.max_retries ->
          j.not_before <- now +. backoff_delay t.pool ~retries:j.retried;
          j.retried <- j.retried + 1;
          [ Died; Retry j ]
      | _ -> [ Died; finished ~now j (Error failure) ])

let kill pid signal = try Unix.kill pid signal with Unix.Unix_error _ -> ()

let enforce_deadlines t now =
  match t.pool.Config.hard_deadline_s with
  | None -> ()
  | Some limit ->
      List.iter
        (fun w ->
          match (w.busy, w.term_at) with
          | Some _, None when now -. w.started > limit ->
              w.term_at <- Some now;
              kill w.pid Sys.sigterm
          | Some _, Some at
            when (not w.sigkilled) && now -. at > t.pool.Config.grace_s ->
              w.sigkilled <- true;
              kill w.pid Sys.sigkill
          | _ -> ())
        t.workers

let step t ~now ~readable =
  let events =
    List.concat_map
      (fun fd ->
        match List.find_opt (fun w -> w.res_fd = fd) t.workers with
        | None -> []
        | Some w -> (
            match t.decode w.res_in with
            | id, r ->
                let j = w.busy in
                w.busy <- None;
                (match j with
                | Some j when j.id = id -> [ finished ~now j (Ok r) ]
                | _ -> [])
            | exception End_of_file -> death t w ~now ~decode_error:None
            | exception Failure msg ->
                kill w.pid Sys.sigkill;
                death t w ~now ~decode_error:(Some msg)))
      readable
  in
  enforce_deadlines t now;
  events

let timeout t ~now wakes =
  let deadlines =
    match t.pool.Config.hard_deadline_s with
    | None -> []
    | Some limit ->
        List.filter_map
          (fun w ->
            match (w.busy, w.term_at) with
            | Some _, None -> Some (w.started +. limit)
            | Some _, Some at when not w.sigkilled ->
                Some (at +. t.pool.Config.grace_s)
            | _ -> None)
          t.workers
  in
  List.fold_left (fun acc at -> Float.min acc (at -. now)) 0.5 (deadlines @ wakes)
  |> Float.max 0.01

let shutdown t =
  List.iter
    (fun w ->
      close_quietly w.job_w;
      close_in_noerr w.res_in)
    t.workers;
  List.iter (fun w -> ignore (waitpid_retry w.pid)) t.workers;
  t.workers <- []

(* ---------------- the batch driver ---------------- *)

let run ?(pool = Config.default_pool) ?on_result ~worker jobs =
  if pool.Config.workers < 1 then invalid_arg "Supervisor.run: workers < 1";
  let ids = List.map fst jobs in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    invalid_arg "Supervisor.run: duplicate job ids";
  if jobs = [] then []
  else begin
    let old_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    Fun.protect
      ~finally:(fun () -> Sys.set_signal Sys.sigpipe old_sigpipe)
    @@ fun () ->
    let total = List.length jobs in
    let t =
      start ~site:"supervisor.dispatch"
        { pool with Config.workers = min pool.Config.workers total }
        ~payload:Fun.id ~worker
    in
    let pending = ref (List.map (fun (id, payload) -> job id payload) jobs) in
    let results = ref [] and n_done = ref 0 in
    let ready now j = j.not_before <= now in
    let next now () =
      match List.find_opt (ready now) !pending with
      | Some j ->
          pending := List.filter (fun j' -> j' != j) !pending;
          Some j
      | None -> None
    in
    let handle = function
      | Finished (_, r) ->
          results := r :: !results;
          incr n_done;
          Option.iter (fun f -> f r) on_result
      | Retry j | Returned j -> pending := j :: !pending
      | Died -> ()
    in
    (* Fork replacements for the dead only while dispatchable work
       remains; a job whose worker turned out dead goes straight to a
       fresh one. *)
    let rec place now =
      if List.exists (ready now) !pending then begin
        top_up t;
        let events = feed t ~now ~next:(next now) in
        List.iter handle events;
        if List.exists (function Returned _ -> true | _ -> false) events
        then place now
      end
    in
    while !n_done < total do
      let now = Unix.gettimeofday () in
      place now;
      let backoffs =
        List.filter_map
          (fun j -> if j.not_before > now then Some j.not_before else None)
          !pending
      in
      let readable =
        match Unix.select (fds t) [] [] (timeout t ~now backoffs) with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      List.iter handle (step t ~now:(Unix.gettimeofday ()) ~readable)
    done;
    shutdown t;
    List.sort (fun a b -> compare a.job b.job) !results
  end
