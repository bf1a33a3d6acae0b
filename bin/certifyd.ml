(* certifyd — the long-lived certification daemon and its client CLI.

     certifyd serve    --socket /tmp/certifyd.sock --model sst_3 --jobs 2 \
                       --journal certifyd.jsonl
     certifyd request  --socket /tmp/certifyd.sock --model sst_3 --count 8 \
                       --norm 2 --radius 0.02
     certifyd stats    --socket /tmp/certifyd.sock
     certifyd shutdown --socket /tmp/certifyd.sock
     certifyd summary  --journal certifyd.jsonl

   `serve` loads the requested zoo models once, pre-forks warm workers
   and serves line-delimited JSON certification jobs with admission
   control, per-model circuit breakers and a crash-safe journal;
   `--resume` recovers a killed daemon's journal and intake file,
   re-running exactly the accepted-but-unfinished jobs. *)

open Cmdliner

let socket_arg =
  let doc = "Unix-domain socket path." in
  Arg.(value & opt string "/tmp/certifyd.sock" & info [ "socket"; "s" ] ~doc)

let data_arg =
  let doc = "Model directory." in
  Arg.(value & opt string "data" & info [ "data" ] ~doc)

(* --- serve ----------------------------------------------------------- *)

let models_arg =
  let doc = "Zoo model(s) to load and serve (repeatable)." in
  Arg.(value & opt_all string [ "sst_3" ] & info [ "model"; "m" ] ~doc)

let jobs_arg =
  let doc = "Pre-forked worker processes." in
  Arg.(value & opt int 2 & info [ "jobs"; "j" ] ~doc)

let queue_cap_arg =
  let doc =
    "Waiting jobs admitted before the daemon starts shedding with \
     `overloaded' responses."
  in
  Arg.(value & opt int 64 & info [ "queue-cap" ] ~doc)

let deadline_arg =
  let doc =
    "Default cooperative per-job deadline in seconds (a request's own \
     deadline_s overrides it)."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~doc)

let hard_deadline_arg =
  let doc =
    Printf.sprintf
      "Per-job wall-clock deadline enforced from outside the worker \
       (SIGTERM, then SIGKILL after --grace). A refine=1 request runs its \
       branches inside the worker, so the deadline must cover the plain \
       propagation plus up to %d branch propagations."
      Deept.Config.default_refine.Deept.Config.max_branches
  in
  Arg.(value & opt (some float) None & info [ "hard-deadline" ] ~doc)

let grace_arg =
  let doc = "Seconds between SIGTERM and SIGKILL on a deadline overrun." in
  Arg.(value & opt float 1.0 & info [ "grace" ] ~doc)

let mem_limit_arg =
  let doc = "Per-worker major-heap cap in MB." in
  Arg.(value & opt (some int) None & info [ "mem-limit" ] ~doc)

let max_retries_arg =
  let doc = "Re-runs of a job whose worker crashed." in
  Arg.(value & opt int 1 & info [ "max-retries" ] ~doc)

let retry_hint_arg =
  let doc =
    "Retry-after hint (seconds) sent with shed responses before the \
     first completed job primes the service-time EWMA."
  in
  Arg.(value & opt float 0.1 & info [ "retry-hint" ] ~doc)

let backoff_arg =
  let doc = "Base of the crash-retry / worker-respawn backoff, seconds." in
  Arg.(value & opt float 0.05 & info [ "backoff" ] ~doc)

let max_backoff_arg =
  let doc = "Ceiling on any single backoff delay, seconds." in
  Arg.(value & opt float 5.0 & info [ "max-backoff" ] ~doc)

let breaker_threshold_arg =
  let doc = "Consecutive worker crashes that quarantine a model." in
  Arg.(value & opt int 3 & info [ "breaker-threshold" ] ~doc)

let breaker_cooloff_arg =
  let doc = "Seconds a tripped model breaker stays open before a probe." in
  Arg.(value & opt float 5.0 & info [ "breaker-cooloff" ] ~doc)

let write_timeout_arg =
  let doc =
    "Drop a client whose socket accepts no bytes for this long while \
     responses are pending (its jobs still finish and are journaled)."
  in
  Arg.(value & opt float 10.0 & info [ "write-timeout" ] ~doc)

let journal_arg =
  let doc =
    "Crash-safe completion journal (the intake file lives beside it); \
     an existing journal and intake file are emptied at start — use \
     --resume to recover them."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~doc)

let resume_arg =
  let doc =
    "Recover this journal and its intake file: completed jobs feed the \
     result cache, accepted-but-unfinished jobs are re-run first."
  in
  Arg.(value & opt (some string) None & info [ "resume" ] ~doc)

let quiet_arg =
  let doc = "Suppress progress logging on stderr." in
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc)

let chaos_arg =
  let doc =
    "Arm the deterministic I/O fault plan \
     ACTION@NTH[:op=OP][:site=SUB][:persist] — e.g. \
     crash@3:site=journal.append, torn:9@0:site=intake, \
     enospc@2:persist. See Deept.Sysio."
  in
  let plan_c =
    Arg.conv
      ( (fun s ->
          match Deept.Sysio.plan_of_string s with
          | Ok p -> Ok p
          | Error e -> Error (`Msg e)),
        fun ppf p -> Format.pp_print_string ppf (Deept.Sysio.plan_to_string p)
      )
  in
  Arg.(value & opt (some plan_c) None & info [ "chaos" ] ~doc)

let serve data socket models jobs queue_cap retry_hint deadline hard_deadline
    grace mem_limit max_retries backoff max_backoff breaker_threshold
    breaker_cooloff write_timeout journal resume chaos quiet =
  Zoo.data_dir := data;
  (match chaos with Some p -> Deept.Sysio.arm p | None -> ());
  let log =
    if quiet then fun _ -> ()
    else fun s -> Printf.eprintf "certifyd: %s\n%!" s
  in
  let pool =
    Deept.Config.pool ~workers:jobs ?hard_deadline_s:hard_deadline
      ~grace_s:grace ?mem_limit_mb:mem_limit ~max_retries ~backoff_s:backoff
      ~max_backoff_s:max_backoff ()
  in
  (* Same oversubscription warning `certify` prints for its jobs x
     domains product; a daemon worker runs every request, refinement
     included, on 1 domain. *)
  let avail = Domain.recommended_domain_count () in
  if jobs > avail then
    Printf.eprintf
      "certifyd: warning: %d daemon worker(s) x 1 domain(s) oversubscribes \
       the %d recommended domain(s) on this machine\n%!"
      jobs avail;
  let journal, resume =
    match (resume, journal) with
    | Some p, _ -> (Some p, true)
    | None, j -> (j, false)
  in
  let o =
    Service.Server.opts ~pool ?deadline_s:deadline ~queue_cap
      ~retry_hint_s:retry_hint ~breaker_threshold
      ~breaker_cooloff_s:breaker_cooloff
      ~write_timeout_s:write_timeout ?journal ~resume ~log ~socket models
  in
  Service.Server.run o

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the certification daemon: warm models, pre-forked workers, \
          admission control, per-model circuit breakers, journal-backed \
          recovery.")
    Term.(
      const serve $ data_arg $ socket_arg $ models_arg $ jobs_arg
      $ queue_cap_arg $ retry_hint_arg $ deadline_arg $ hard_deadline_arg
      $ grace_arg
      $ mem_limit_arg $ max_retries_arg $ backoff_arg $ max_backoff_arg
      $ breaker_threshold_arg $ breaker_cooloff_arg $ write_timeout_arg
      $ journal_arg $ resume_arg $ chaos_arg $ quiet_arg)

(* --- request ---------------------------------------------------------- *)

let model_arg =
  let doc = "Zoo model to certify against." in
  Arg.(value & opt string "sst_3" & info [ "model"; "m" ] ~doc)

let index_arg =
  let doc = "First test-sentence index." in
  Arg.(value & opt int 0 & info [ "index"; "i" ] ~doc)

let sentence_arg =
  let doc = "Certify this sentence instead of a test-set one." in
  Arg.(value & opt (some string) None & info [ "sentence" ] ~doc)

let count_arg =
  let doc =
    "Pipeline this many requests (test sentences --index, --index+1, ...) \
     over one connection."
  in
  Arg.(value & opt int 1 & info [ "count"; "n" ] ~doc)

let word_arg =
  let doc = "Perturbed word position." in
  Arg.(value & opt int 1 & info [ "word"; "w" ] ~doc)

let norm_arg =
  let doc = "Perturbation norm: 1, 2 or inf." in
  let norm_c =
    Arg.conv
      ( (fun s ->
          match Service.Protocol.norm_of_name s with
          | Ok p -> Ok p
          | Error e -> Error (`Msg e)),
        fun ppf p ->
          Format.pp_print_string ppf (Service.Protocol.norm_name p) )
  in
  Arg.(value & opt norm_c Deept.Lp.L2 & info [ "norm"; "p" ] ~doc)

let radius_arg =
  let doc = "Perturbation radius." in
  Arg.(value & opt float 0.01 & info [ "radius"; "r" ] ~doc)

let verifier_arg =
  let doc = "Verifier: fast, precise or combined." in
  let verifier_c =
    Arg.conv
      ( (fun s ->
          match Service.Protocol.verifier_of_name s with
          | Ok v -> Ok v
          | Error e -> Error (`Msg e)),
        fun ppf v ->
          Format.pp_print_string ppf (Deept.Config.variant_name v) )
  in
  Arg.(value & opt verifier_c Deept.Config.Fast & info [ "verifier"; "v" ] ~doc)

let refine_arg =
  let doc =
    Printf.sprintf
      "Branch-and-bound refinement: on a precision failure the engine \
       splits the most influential noise symbols and re-certifies the \
       branches, up to %d more propagations inside the worker, before \
       giving up."
      Deept.Config.default_refine.Deept.Config.max_branches
  in
  Arg.(value & flag & info [ "refine" ] ~doc)

let req_deadline_arg =
  let doc = "Cooperative per-job deadline for these requests, seconds." in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~doc)

let crash_arg =
  let doc = "Fault drill: the worker running each request exits uncleanly." in
  Arg.(value & flag & info [ "crash" ] ~doc)

let stall_arg =
  let doc = "Fault drill: the worker sleeps this long before certifying." in
  Arg.(value & opt (some float) None & info [ "stall" ] ~doc)

let timeout_arg =
  let doc = "Seconds to wait for the daemon's socket to accept." in
  Arg.(value & opt float 30.0 & info [ "connect-timeout" ] ~doc)

let retries_arg =
  let doc =
    "Total attempts per request (idempotent rids, jittered backoff \
     honouring the daemon's retry-after hints, reconnect on a dropped \
     connection). 1 = the legacy single-shot pipelined path."
  in
  Arg.(value & opt int 3 & info [ "retries" ] ~doc)

let retry_backoff_arg =
  let doc = "Initial client retry backoff, seconds (doubles, capped)." in
  Arg.(value & opt float 0.05 & info [ "retry-backoff" ] ~doc)

let print_response = function
  | Service.Protocol.Result r ->
      Printf.printf "[%d]%s %s@%s%s  attempts=%d retries=%d  (%.3fs)\n" r.id
        (match r.tag with Some t -> Printf.sprintf " tag=%d" t | None -> "")
        (Deept.Verdict.to_string r.verdict)
        r.rung
        (if r.cached then " [cached]" else "")
        r.attempts r.retries r.wall_s
  | Service.Protocol.Overloaded { tag; retry_after_s } ->
      Printf.printf "%soverloaded, retry after %.2fs\n"
        (match tag with Some t -> Printf.sprintf "tag=%d " t | None -> "")
        retry_after_s
  | Service.Protocol.Quarantined { tag; model; retry_after_s } ->
      Printf.printf "%smodel %s quarantined, retry after %.2fs\n"
        (match tag with Some t -> Printf.sprintf "tag=%d " t | None -> "")
        model retry_after_s
  | Service.Protocol.Stats_r s ->
      Printf.printf
        "uptime %.1fs  workers %d  queue %d  inflight %d\n\
         done %d  shed %d  cache %d/%d (size %d)  deaths %d%s\n\
         breakers: %s\n"
        s.uptime_s s.workers s.queue_depth s.inflight s.jobs_done s.shed
        s.cache_hits
        (s.cache_hits + s.cache_misses)
        s.cache_size s.worker_deaths
        (if s.draining then "  DRAINING" else "")
        (if s.breakers = "" then "(none tripped)" else s.breakers);
      Printf.printf "rungs: %s\n"
        (if s.rungs = "" then "(no computed jobs yet)" else s.rungs)
  | Service.Protocol.Error msg -> Printf.printf "error: %s\n" msg
  | Service.Protocol.Ok_ack -> Printf.printf "ok\n"

let request socket model index sentence count word p radius verifier refine
    deadline crash stall timeout retries retry_backoff =
  let mk k =
    let input =
      match sentence with
      | Some s -> Service.Protocol.Sentence s
      | None -> Service.Protocol.Index (index + k)
    in
    Service.Protocol.certify ~word ~p ~verifier ~refine ?deadline_s:deadline
      ~tag:(index + k) ~drill_crash:crash ?drill_stall_s:stall ~model ~radius
      input
  in
  let failures = ref 0 in
  let note r =
    print_response r;
    match r with Service.Protocol.Result _ -> () | _ -> incr failures
  in
  if retries <= 1 then begin
    (* single-shot: pipeline everything over one connection *)
    let conn = Service.Client.connect_retry ~timeout_s:timeout socket in
    for k = 0 to count - 1 do
      Service.Client.send conn (Service.Protocol.Certify (mk k))
    done;
    for _ = 1 to count do
      match Service.Client.recv conn with
      | Some r -> note r
      | None ->
          Printf.printf "daemon closed the connection\n";
          incr failures
    done;
    Service.Client.close conn
  end
  else begin
    let policy =
      Service.Client.policy ~max_attempts:retries ~backoff_s:retry_backoff
        ~connect_timeout_s:timeout ()
    in
    let s = Service.Client.session ~policy socket in
    for k = 0 to count - 1 do
      match Service.Client.call s (mk k) with
      | r -> note r
      | exception Failure msg ->
          Printf.printf "%s\n" msg;
          incr failures
    done;
    Service.Client.hangup s
  end;
  if !failures > 0 then exit 3

let request_cmd =
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Send certification request(s) to a running daemon and print the \
          responses. Exit status 3 if any request was not answered with a \
          result.")
    Term.(
      const request $ socket_arg $ model_arg $ index_arg $ sentence_arg
      $ count_arg $ word_arg $ norm_arg $ radius_arg $ verifier_arg
      $ refine_arg $ req_deadline_arg $ crash_arg $ stall_arg $ timeout_arg
      $ retries_arg $ retry_backoff_arg)

(* --- stats / shutdown ------------------------------------------------- *)

let stats socket timeout =
  let conn = Service.Client.connect_retry ~timeout_s:timeout socket in
  (match Service.Client.request conn Service.Protocol.Stats with
  | Some r -> print_response r
  | None -> Printf.printf "daemon closed the connection\n");
  Service.Client.close conn

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"Print a running daemon's health counters.")
    Term.(const stats $ socket_arg $ timeout_arg)

let shutdown socket timeout =
  let conn = Service.Client.connect_retry ~timeout_s:timeout socket in
  (match Service.Client.request conn Service.Protocol.Shutdown with
  | Some r -> print_response r
  | None -> Printf.printf "daemon closed the connection\n");
  Service.Client.close conn

let shutdown_cmd =
  Cmd.v
    (Cmd.info "shutdown"
       ~doc:"Ask a running daemon to drain its queue and exit.")
    Term.(const shutdown $ socket_arg $ timeout_arg)

(* --- summary ---------------------------------------------------------- *)

(* The recovery drill's oracle: identical journals (same jobs, same
   verdicts, same rungs) print identical summaries, whether the daemon
   ran uninterrupted or was SIGKILLed and resumed. *)
let summary path =
  let entries = Deept.Journal.load path in
  let tally f =
    List.fold_left
      (fun acc e ->
        let k = f e in
        let n = try List.assoc k acc with Not_found -> 0 in
        (k, n + 1) :: List.remove_assoc k acc)
      [] entries
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Printf.printf "== summary (%d jobs) ==\n" (List.length entries);
  List.iter
    (fun (v, n) -> Printf.printf "  %-28s %d\n" v n)
    (tally (fun (e : Deept.Journal.entry) ->
         Deept.Verdict.to_string e.Deept.Journal.verdict));
  Printf.printf "by rung:\n";
  List.iter
    (fun (r, n) -> Printf.printf "  %-28s %d\n" r n)
    (tally (fun (e : Deept.Journal.entry) -> e.Deept.Journal.rung))

let summary_journal_arg =
  let doc = "Journal to summarize." in
  Arg.(required & opt (some string) None & info [ "journal" ] ~doc)

let summary_cmd =
  Cmd.v
    (Cmd.info "summary"
       ~doc:
         "Tally a journal by verdict and by rung (stable order, so two \
          equivalent runs diff clean).")
    Term.(const summary $ summary_journal_arg)

let () =
  let info =
    Cmd.info "certifyd"
      ~doc:"Crash-tolerant certification daemon over the DeepT engine."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ serve_cmd; request_cmd; stats_cmd; shutdown_cmd; summary_cmd ]))
