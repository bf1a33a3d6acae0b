(* The certifyd server: a single-threaded select loop over one listening
   Unix-domain socket, N nonblocking clients, and a pool of pre-forked
   warm workers run by the Supervisor pool core, which the loop steps.

   The loop owns every decision the pool leaves to its driver —
   admission, the queue, respawn, drain — so there is no locking and
   every state transition is serialized with the journal writes that
   make it durable. Workers are forked after the model zoo is loaded,
   sharing weights and lowered programs read-only through
   copy-on-write. *)

module Config = Deept.Config
module Verdict = Deept.Verdict
module Journal = Deept.Journal
module Supervisor = Deept.Supervisor
module Engine = Deept.Engine
module Region = Deept.Region
module Sysio = Deept.Sysio

type opts = {
  socket : string;
  models : string list;
  pool : Config.pool;
  deadline_s : float option;
  queue_cap : int;
  breaker_threshold : int;
  breaker_cooloff_s : float;
  write_timeout_s : float;
  retry_hint_s : float;  (* Overloaded hint before the EWMA primes *)
  journal : string option;
  resume : bool;
  log : string -> unit;
}

let opts ?(pool = Config.default_pool) ?deadline_s ?(queue_cap = 64)
    ?(breaker_threshold = 3) ?(breaker_cooloff_s = 5.0)
    ?(write_timeout_s = 10.0) ?(retry_hint_s = 0.1) ?journal ?(resume = false)
    ?(log = fun _ -> ()) ~socket models =
  if queue_cap < 1 then invalid_arg "Server.opts: queue_cap < 1";
  if write_timeout_s <= 0.0 then invalid_arg "Server.opts: write_timeout_s <= 0";
  if retry_hint_s <= 0.0 then invalid_arg "Server.opts: retry_hint_s <= 0";
  if resume && journal = None then
    invalid_arg "Server.opts: resume requires a journal";
  {
    socket;
    models;
    pool;
    deadline_s;
    queue_cap;
    breaker_threshold;
    breaker_cooloff_s;
    write_timeout_s;
    retry_hint_s;
    journal;
    resume;
    log;
  }

let intake_path journal_path = journal_path ^ ".intake"

(* ---------------- the worker side ---------------- *)

(* What crosses the result pipe: the outcome distilled to marshal-plain
   data (Verdict.t and strings only — no closures, no custom blocks).
   [w_rungs] lists every ladder rung the engine attempted, in order —
   the daemon aggregates them into the stats histogram. *)
type wres = {
  w_verdict : Verdict.t;
  w_rung : string;
  w_attempts : int;
  w_rungs : string list;
}

let crash_result exn =
  {
    w_verdict = Verdict.Unknown Verdict.Numerical_fault;
    w_rung = "crash:" ^ Printexc.to_string exn;
    w_attempts = 1;
    w_rungs = [];
  }

(* One job, run inside a pre-forked worker. The fault drills exercise
   exactly the containment paths the daemon promises: [drill_crash] is a
   segfault-class death, [drill_stall_s] an overrun of the hard
   deadline. Everything catchable becomes a typed verdict; only genuine
   process deaths reach the supervisor side. *)
let run_job warm deadline_default _id (c : Protocol.certify) =
  if c.drill_crash then exit 86;
  (match c.drill_stall_s with Some s -> Unix.sleepf s | None -> ());
  match Warm.find warm c.Protocol.model with
  | None ->
      {
        w_verdict = Verdict.Unknown Verdict.Numerical_fault;
        w_rung = "crash:model not loaded";
        w_attempts = 0;
        w_rungs = [];
      }
  | Some w -> (
      try
        let toks, label =
          match c.Protocol.input with
          | Protocol.Index i ->
              let toks, label = List.nth w.Warm.corpus.Text.Corpus.test i in
              (toks, Some label)
          | Protocol.Sentence s -> (Text.Corpus.tokenize w.Warm.corpus s, None)
        in
        let x = Nn.Model.embed_tokens w.Warm.model toks in
        (* a free sentence is certified against the model's own prediction *)
        let label =
          match label with
          | Some l -> l
          | None -> Nn.Forward.predict w.Warm.program x
        in
        let word = max 0 (min c.Protocol.word (Array.length toks - 1)) in
        (* base_config is also what the cache key serializes — keep the
           two derivations one. *)
        let base = Protocol.base_config c in
        let deadline =
          match c.Protocol.deadline_s with
          | Some _ as d -> d
          | None -> deadline_default
        in
        let cfg = Config.with_budget ?deadline base in
        let region =
          Region.lp_ball ~p:c.Protocol.p x ~word ~radius:c.Protocol.radius
        in
        (* A misclassified input comes back Falsified@concrete from the
           engine's falsifier, which checks the unperturbed center first. *)
        let o = Engine.certify cfg w.Warm.program region ~true_class:label in
        {
          w_verdict = o.Engine.verdict;
          w_rung = o.Engine.rung_name;
          w_attempts = List.length o.Engine.attempts;
          w_rungs =
            List.map (fun (a : Engine.attempt) -> a.Engine.rung_name)
              o.Engine.attempts;
        }
      with exn -> crash_result exn)

(* ---------------- daemon-side state ---------------- *)

(* What the daemon keeps beside a pool job; only [c] goes to a worker. *)
type req = {
  c : Protocol.certify;
  key : string;
  mutable client : int option;  (* None: resumed job, result journal-only *)
}

type job = req Supervisor.job

type cstate = {
  cid : int;
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable out : string;
  mutable last_write : float;  (* last byte accepted by the socket *)
}

let run o =
  let log = o.log in
  let old_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let drain_requested = ref false in
  let install s = Sys.set_signal s (Sys.Signal_handle (fun _ -> drain_requested := true)) in
  install Sys.sigterm;
  install Sys.sigint;

  (* Warm the model cache before binding the socket, so a connect that
     succeeds is a connect to a daemon that can actually serve. *)
  let warm = Warm.load ~log o.models in

  (* Both logs are opened before the socket is bound. A fresh start
     empties them durably before anything is appended to either, so no
     record of an earlier run can answer for a job of this one. *)
  let journal, intake, intaken =
    match o.journal with
    | None -> (None, None, [])
    | Some p when o.resume ->
        let j = Journal.resume p in
        let intake, intaken =
          Journal.Log.resume ~site:"intake" ~decode:Protocol.intake_of_json
            (intake_path p)
        in
        (Some j, Some intake, intaken)
    | Some p ->
        let j = Journal.create p in
        (Some j, Some (Journal.Log.fresh ~site:"intake" (intake_path p)), [])
  in
  let log_fds =
    List.map Journal.Log.descr
      (Option.to_list (Option.map Journal.log journal) @ Option.to_list intake)
  in
  let journaled id =
    match journal with Some j -> Journal.journaled j id | None -> false
  in
  let journal_append e =
    match journal with Some j -> Journal.append j e | None -> ()
  in
  let intake_append id c =
    match intake with
    | Some l -> Journal.Log.append l (Protocol.intake_to_json ~id c)
    | None -> ()
  in

  let cache = Cache.create () in
  (match journal with
  | Some j -> Cache.absorb cache (Journal.entries j)
  | None -> ());

  let next_id = ref 1 in
  let bump_id id = if id >= !next_id then next_id := id + 1 in
  (match journal with
  | Some j -> List.iter (fun e -> bump_id e.Journal.job) (Journal.entries j)
  | None -> ());
  let fresh_id () =
    let id = !next_id in
    incr next_id;
    id
  in

  let q : job Jobq.t =
    Jobq.create ~default_service_s:o.retry_hint_s ~cap:o.queue_cap ()
  in
  (* Idempotency: rid -> job id for every request that carried one, and
     id -> finished wire result so a deduplicated retry can replay the
     answer instead of recomputing (or worse, double-running) the job. *)
  let rids : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let done_results : (int, Protocol.result_r) Hashtbl.t = Hashtbl.create 16 in
  let register_rid (c : Protocol.certify) id =
    match c.Protocol.rid with
    | Some r -> Hashtbl.replace rids r id
    | None -> ()
  in
  let clients = ref [] in
  let breakers : (string, Breaker.t) Hashtbl.t = Hashtbl.create 4 in
  let breaker_for model =
    match Hashtbl.find_opt breakers model with
    | Some b -> b
    | None ->
        let b =
          Breaker.create ~threshold:o.breaker_threshold
            ~cooloff_s:o.breaker_cooloff_s ~now:Unix.gettimeofday ()
        in
        Hashtbl.add breakers model b;
        b
  in
  let draining = ref false in
  let start_time = Unix.gettimeofday () in
  let jobs_done = ref 0 in
  (* Rung histogram: every ladder rung attempted by jobs computed in
     this process. Cache replays don't count — they report the cached
     attempts but spend no propagation here. *)
  let rung_hist : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let count_rungs names =
    List.iter
      (fun r ->
        Hashtbl.replace rung_hist r
          (1 + Option.value ~default:0 (Hashtbl.find_opt rung_hist r)))
      names
  in
  let worker_deaths = ref 0 in
  let consec_deaths = ref 0 in
  let respawn_at = ref 0.0 in

  (* --resume: replay every intaken job the journal does not know about,
     oldest first, bypassing the admission cap — these jobs were already
     promised durably. *)
  (match intaken with
  | [] -> ()
  | entries ->
      List.iter (fun (id, _) -> bump_id id) entries;
      (* Rebuild the idempotency tables: rids ride in the intake
         encoding, finished answers come from the journal — so a client
         retrying a rid across the restart still gets a replay, not a
         duplicate run. *)
      let jtbl : (int, Journal.entry) Hashtbl.t = Hashtbl.create 64 in
      (match journal with
      | Some j ->
          List.iter
            (fun e -> Hashtbl.replace jtbl e.Journal.job e)
            (Journal.entries j)
      | None -> ());
      List.iter
        (fun (id, (c : Protocol.certify)) ->
          register_rid c id;
          match Hashtbl.find_opt jtbl id with
          | Some e ->
              Hashtbl.replace done_results id
                {
                  Protocol.id;
                  tag = c.Protocol.tag;
                  verdict = e.Journal.verdict;
                  rung = e.Journal.rung;
                  attempts = e.Journal.attempts;
                  retries = e.Journal.retries;
                  wall_s = e.Journal.wall_s;
                  cached = true;
                }
          | None -> ())
        entries;
      let missing = List.filter (fun (id, _) -> not (journaled id)) entries in
      let missing =
        List.sort (fun (a, _) (b, _) -> compare b a) missing (* desc: requeue front-pushes *)
      in
      List.iter
        (fun (id, (c : Protocol.certify)) ->
          match Warm.find warm c.Protocol.model with
          | None ->
              log
                (Printf.sprintf
                   "resume: job %d wants model %s, which is not loaded" id
                   c.Protocol.model);
              journal_append
                {
                  Journal.job = id;
                  verdict = Verdict.Unknown Verdict.Numerical_fault;
                  rung = "resume";
                  attempts = 0;
                  retries = 0;
                  wall_s = 0.0;
                  detail = "model not loaded";
                };
              Hashtbl.replace done_results id
                {
                  Protocol.id;
                  tag = c.Protocol.tag;
                  verdict = Verdict.Unknown Verdict.Numerical_fault;
                  rung = "resume";
                  attempts = 0;
                  retries = 0;
                  wall_s = 0.0;
                  cached = true;
                }
          | Some w ->
              Jobq.requeue q
                (Supervisor.job id
                   { c; key = Cache.key ~digest:w.Warm.digest c; client = None }))
        missing;
      if Jobq.depth q > 0 then
        log (Printf.sprintf "resume: re-enqueued %d in-flight job(s)" (Jobq.depth q)));

  (* ---------------- socket ---------------- *)
  if Sys.file_exists o.socket then Sys.remove o.socket;
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX o.socket);
  Unix.listen lfd 64;
  Unix.set_nonblock lfd;
  log (Printf.sprintf "listening on %s (%d model(s), %d worker(s))" o.socket
         (List.length (Warm.names warm)) o.pool.Config.workers);

  (* ---------------- workers ---------------- *)
  let pool =
    Supervisor.start ~site:"server.dispatch"
      ~parent_fds:(fun () -> (lfd :: List.map (fun c -> c.fd) !clients) @ log_fds)
      o.pool
      ~payload:(fun (r : req) -> r.c)
      ~worker:(run_job warm o.deadline_s)
  in

  (* ---------------- clients ---------------- *)
  let next_cid = ref 1 in
  let drop_client cl =
    clients := List.filter (fun c -> c.cid <> cl.cid) !clients;
    (try Unix.close cl.fd with Unix.Unix_error _ -> ());
    (* orphan the client's jobs: they keep running, results go to the
       journal only *)
    let orphan (j : job) =
      if j.data.client = Some cl.cid then j.data.client <- None
    in
    List.iter orphan (Supervisor.inflight pool);
    Jobq.iter q orphan
  in
  let send_line cl line =
    if cl.out = "" then cl.last_write <- Unix.gettimeofday ();
    cl.out <- cl.out ^ line ^ "\n"
  in
  let send cl resp = send_line cl (Protocol.response_to_json resp) in
  let respond (j : job) resp =
    match j.data.client with
    | None -> ()
    | Some cid -> (
        match List.find_opt (fun c -> c.cid = cid) !clients with
        | Some cl -> send cl resp
        | None -> ())
  in

  (* ---------------- completion ---------------- *)
  let finish (j : job) (r : wres Supervisor.job_result) =
    let e =
      match r.outcome with
      | Ok w ->
          Jobq.note_service q r.wall_s;
          count_rungs w.w_rungs;
          Cache.store cache j.data.key
            { Cache.verdict = w.w_verdict; rung = w.w_rung; attempts = w.w_attempts };
          {
            Journal.job = j.id;
            verdict = w.w_verdict;
            rung = w.w_rung;
            attempts = w.w_attempts;
            retries = r.retries;
            wall_s = r.wall_s;
            detail = "key=" ^ j.data.key;
          }
      | Error f -> Journal.of_failure r f
    in
    journal_append e;
    let res =
      {
        Protocol.id = j.id;
        tag = j.data.c.Protocol.tag;
        verdict = e.Journal.verdict;
        rung = e.Journal.rung;
        attempts = e.Journal.attempts;
        retries = r.retries;
        wall_s = r.wall_s;
        cached = false;
      }
    in
    Hashtbl.replace done_results j.id { res with Protocol.cached = true };
    respond j (Protocol.Result res);
    incr jobs_done
  in
  (* A crash indicts the model; a deadline kill indicts the job. A death
     also pushes the next respawn back by the consecutive-death
     backoff. *)
  let handle = function
    | Supervisor.Died ->
        incr worker_deaths;
        incr consec_deaths;
        respawn_at :=
          Unix.gettimeofday ()
          +. Supervisor.backoff_delay o.pool ~retries:(!consec_deaths - 1)
    | Supervisor.Finished (j, r) ->
        let breaker = breaker_for j.data.c.Protocol.model in
        (match r.outcome with
        | Ok _ ->
            consec_deaths := 0;
            Breaker.success breaker
        | Error (Supervisor.Crashed _) -> Breaker.failure breaker
        | Error (Supervisor.Killed _) -> ());
        finish j r
    | Supervisor.Retry j ->
        Breaker.failure (breaker_for j.data.c.Protocol.model);
        Jobq.requeue q j
    | Supervisor.Returned j -> Jobq.requeue q j
  in

  (* ---------------- admission ---------------- *)
  let make_stats () =
    let b = Buffer.create 32 in
    Hashtbl.iter
      (fun m br ->
        if Buffer.length b > 0 then Buffer.add_char b ' ';
        Buffer.add_string b (m ^ "=" ^ Breaker.state_name br))
      breakers;
    {
      Protocol.uptime_s = Unix.gettimeofday () -. start_time;
      workers = Supervisor.live pool;
      queue_depth = Jobq.depth q;
      inflight = List.length (Supervisor.inflight pool);
      jobs_done = !jobs_done;
      shed = Jobq.shed q;
      cache_hits = Cache.hits cache;
      cache_misses = Cache.misses cache;
      cache_size = Cache.size cache;
      worker_deaths = !worker_deaths;
      draining = !draining;
      breakers = Buffer.contents b;
      rungs =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) rung_hist []
        |> List.sort compare
        |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
        |> String.concat " ";
    }
  in
  (* A deduplicated retry of a still-running job re-attaches the new
     connection so the eventual result is delivered exactly once, to the
     client that is still listening. *)
  let reattach id cid =
    let att (j : job) = if j.id = id then j.data.client <- Some cid in
    List.iter att (Supervisor.inflight pool);
    Jobq.iter q att
  in
  let admit_new cl (c : Protocol.certify) =
    match Warm.find warm c.Protocol.model with
    | None ->
        send cl
          (Protocol.Error
             (Printf.sprintf "unknown model %s (loaded: %s)" c.Protocol.model
                (String.concat ", " (Warm.names warm))))
    | Some w -> (
        let invalid =
          match c.Protocol.input with
          | Protocol.Index i when i < 0 || i >= w.Warm.test_len ->
              Some
                (Printf.sprintf "index %d out of range (test set has %d)" i
                   w.Warm.test_len)
          | Protocol.Sentence s
            when Array.length (Text.Corpus.tokenize w.Warm.corpus s) < 2 ->
              Some "sentence is empty after tokenization"
          | _ -> None
        in
        match invalid with
        | Some msg -> send cl (Protocol.Error msg)
        | None -> (
            let key = Cache.key ~digest:w.Warm.digest c in
            match Cache.find cache key with
            | Some e ->
                (* Hits bypass shedding and the breaker: no worker runs,
                   and the journal still records the request so resumed
                   summaries count every served job. *)
                let id = fresh_id () in
                journal_append
                  {
                    Journal.job = id;
                    verdict = e.Cache.verdict;
                    rung = e.Cache.rung;
                    attempts = e.Cache.attempts;
                    retries = 0;
                    wall_s = 0.0;
                    detail = "key=" ^ key;
                  };
                let res =
                  {
                    Protocol.id;
                    tag = c.Protocol.tag;
                    verdict = e.Cache.verdict;
                    rung = e.Cache.rung;
                    attempts = e.Cache.attempts;
                    retries = 0;
                    wall_s = 0.0;
                    cached = true;
                  }
                in
                register_rid c id;
                Hashtbl.replace done_results id res;
                send cl (Protocol.Result res)
            | None ->
                if !draining then
                  send cl
                    (Protocol.Overloaded
                       {
                         tag = c.Protocol.tag;
                         retry_after_s =
                           Jobq.retry_after q
                             ~workers:(max 1 (Supervisor.live pool));
                       })
                else if Jobq.full q then begin
                  (* a full admit both counts the shed and refuses *)
                  ignore (Jobq.admit q (Supervisor.job 0 { c; key; client = None }));
                  send cl
                    (Protocol.Overloaded
                       {
                         tag = c.Protocol.tag;
                         retry_after_s =
                           Jobq.retry_after q
                             ~workers:(max 1 (Supervisor.live pool));
                       })
                end
                else
                  match Breaker.admit (breaker_for c.Protocol.model) with
                  | `Reject remaining ->
                      send cl
                        (Protocol.Quarantined
                           {
                             tag = c.Protocol.tag;
                             model = c.Protocol.model;
                             retry_after_s = remaining;
                           })
                  | `Ok ->
                      let id = fresh_id () in
                      ignore
                        (Jobq.admit q
                           (Supervisor.job id { c; key; client = Some cl.cid }));
                      register_rid c id;
                      (* durable before dispatchable: a daemon killed
                         from here on re-runs this job on --resume *)
                      intake_append id c))
  in
  let admit cl (c : Protocol.certify) =
    match Option.bind c.Protocol.rid (Hashtbl.find_opt rids) with
    | Some id -> (
        match Hashtbl.find_opt done_results id with
        | Some res -> send cl (Protocol.Result res)
        | None -> reattach id cl.cid)
    | None -> admit_new cl c
  in
  let process_line cl line =
    if String.trim line <> "" then
      match Protocol.request_of_json line with
      | Error e -> send cl (Protocol.Error e)
      | Ok Protocol.Stats -> send cl (Protocol.Stats_r (make_stats ()))
      | Ok Protocol.Shutdown ->
          draining := true;
          send cl Protocol.Ok_ack
      | Ok (Protocol.Certify c) -> admit cl c
  in
  let process_inbuf cl =
    let s = Buffer.contents cl.inbuf in
    let rec go start =
      match String.index_from_opt s start '\n' with
      | None ->
          Buffer.clear cl.inbuf;
          Buffer.add_substring cl.inbuf s start (String.length s - start)
      | Some nl ->
          process_line cl (String.sub s start (nl - start));
          go (nl + 1)
    in
    go 0
  in
  let handle_client_read cl =
    let buf = Bytes.create 4096 in
    match Unix.read cl.fd buf 0 4096 with
    | 0 -> drop_client cl
    | n ->
        Buffer.add_subbytes cl.inbuf buf 0 n;
        process_inbuf cl
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        () (* select will mark it readable again *)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> drop_client cl
  in
  let flush_client cl now =
    (* Sysio.single_write restarts EINTR and may report a partial count;
       the unsent suffix stays buffered in [cl.out] — bytes are never
       dropped, the next writable tick continues where this one ended. *)
    if cl.out <> "" then
      match
        Sysio.single_write ~site:"server.client_send" cl.fd cl.out 0
          (String.length cl.out)
      with
      | n ->
          cl.out <- String.sub cl.out n (String.length cl.out - n);
          cl.last_write <- now
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          drop_client cl
  in
  let accept_clients () =
    let rec go () =
      match Unix.accept lfd with
      | fd, _ ->
          Unix.set_nonblock fd;
          let cid = !next_cid in
          incr next_cid;
          clients :=
            {
              cid;
              fd;
              inbuf = Buffer.create 256;
              out = "";
              last_write = Unix.gettimeofday ();
            }
            :: !clients;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    in
    go ()
  in
  let check_write_timeouts now =
    let slow =
      List.filter
        (fun cl -> cl.out <> "" && now -. cl.last_write > o.write_timeout_s)
        !clients
    in
    List.iter
      (fun cl ->
        log (Printf.sprintf "dropping slow client %d (write stalled > %gs)"
               cl.cid o.write_timeout_s);
        drop_client cl)
      slow
  in
  let next_timeout now =
    let wakes = ref [] in
    let add at = wakes := at :: !wakes in
    Jobq.iter q (fun (j : job) -> if j.not_before > now then add j.not_before);
    if Supervisor.live pool < o.pool.Config.workers && !respawn_at > now then
      add !respawn_at;
    List.iter
      (fun cl -> if cl.out <> "" then add (cl.last_write +. o.write_timeout_s))
      !clients;
    Supervisor.timeout pool ~now !wakes
  in

  (* ---------------- main loop ---------------- *)
  let running = ref true in
  while !running do
    if !drain_requested && not !draining then begin
      draining := true;
      log "drain requested (signal): finishing queued work, shedding new"
    end;
    let now = Unix.gettimeofday () in
    if
      now >= !respawn_at
      && ((not !draining) || Jobq.depth q > 0 || Supervisor.inflight pool <> [])
    then Supervisor.top_up pool;
    List.iter handle
      (Supervisor.feed pool ~now ~next:(fun () ->
           Jobq.pop q ~ready:(fun (j : job) -> j.not_before <= now)));
    check_write_timeouts now;
    if
      !draining
      && Jobq.depth q = 0
      && Supervisor.inflight pool = []
      && List.for_all (fun cl -> cl.out = "") !clients
    then running := false
    else begin
      let rfds =
        (lfd :: List.map (fun cl -> cl.fd) !clients) @ Supervisor.fds pool
      in
      let wfds =
        List.filter_map
          (fun cl -> if cl.out <> "" then Some cl.fd else None)
          !clients
      in
      let readable, writable, _ =
        match Unix.select rfds wfds [] (next_timeout now) with
        | r -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      let now = Unix.gettimeofday () in
      List.iter handle (Supervisor.step pool ~now ~readable);
      if List.mem lfd readable then accept_clients ();
      List.iter
        (fun fd ->
          match List.find_opt (fun cl -> cl.fd = fd) !clients with
          | Some cl -> handle_client_read cl
          | None -> ())
        readable;
      List.iter
        (fun fd ->
          match List.find_opt (fun cl -> cl.fd = fd) !clients with
          | Some cl -> flush_client cl now
          | None -> ())
        writable
    end
  done;

  (* orderly shutdown: EOF the job pipes, reap, close everything *)
  Supervisor.shutdown pool;
  List.iter (fun cl -> try Unix.close cl.fd with Unix.Unix_error _ -> ()) !clients;
  clients := [];
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  (try Sys.remove o.socket with Sys_error _ -> ());
  Option.iter (fun j -> Journal.Log.close (Journal.log j)) journal;
  Option.iter Journal.Log.close intake;
  Sys.set_signal Sys.sigpipe old_sigpipe;
  log
    (Printf.sprintf "drained: %d job(s) done, %d shed, %d cache hit(s), %d worker death(s)"
       !jobs_done (Jobq.shed q) (Cache.hits cache) !worker_deaths)
