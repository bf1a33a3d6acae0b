(* Process isolation: the supervised worker pool, the crash-safe journal
   and the verdict string round-trip it depends on. Worker deaths of every
   kind — crash, deadline kill, SIGKILL escalation, OOM guard — must be
   confined to the job that caused them, and a batch SIGKILLed mid-run
   must resume from its journal certifying exactly the remaining jobs. *)

module C = Deept.Config
module V = Deept.Verdict
module S = Deept.Supervisor
module J = Deept.Journal

let tmp_path =
  let n = ref 0 in
  fun name ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "deept-supervisor-test-%d-%d-%s" (Unix.getpid ()) !n name)

let with_tmp name f =
  let path = tmp_path name in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".tmp" ])
    (fun () -> f path)

(* ---------------- verdict string round-trip ---------------- *)

let test_verdict_round_trip () =
  let all =
    V.Certified :: V.Falsified :: List.map (fun r -> V.Unknown r) V.all_reasons
  in
  List.iter
    (fun v ->
      match V.of_string_res (V.to_string v) with
      | Ok v' ->
          Helpers.check_true ("round-trip " ^ V.to_string v) (V.equal v v')
      | Error e -> Alcotest.failf "of_string_res failed on %s: %s" (V.to_string v) e)
    all;
  List.iter
    (fun s ->
      Helpers.check_true ("rejects " ^ s) (Result.is_error (V.of_string_res s)))
    [ ""; "certifiedX"; "unknown"; "unknown("; "unknown()"; "unknown(nope)";
      "Unknown(timeout)"; "unknown(timeout" ]

(* ---------------- journal ---------------- *)

let entry ?(verdict = V.Certified) ?(rung = "fast") ?(retries = 0)
    ?(detail = "") job =
  { J.job; verdict; rung; attempts = 1; retries; wall_s = 0.125; detail }

let test_journal_json_round_trip () =
  let es =
    [
      entry 0;
      entry ~verdict:(V.Unknown V.Worker_killed) ~rung:"worker" ~detail:"SIGKILL" 1;
      entry ~verdict:(V.Unknown V.Worker_crashed) ~rung:"worker"
        ~detail:"weird \"quotes\"\\backslash\n\ttabs" ~retries:3 2;
      entry ~verdict:V.Falsified ~rung:"concrete" 17;
    ]
  in
  List.iter
    (fun e ->
      match J.of_json (J.to_json e) with
      | Ok e' -> Helpers.check_true "entry round-trip" (e = e')
      | Error msg -> Alcotest.failf "of_json: %s on %s" msg (J.to_json e))
    es;
  List.iter
    (fun s ->
      Helpers.check_true ("rejects " ^ s) (Result.is_error (J.of_json s)))
    [
      "";
      "{";
      "{}";
      "{\"job\":1}";
      "{\"job\":1.5,\"verdict\":\"certified\",\"rung\":\"fast\",\"attempts\":1,\"retries\":0,\"wall_s\":0.1,\"detail\":\"\"}";
      "{\"job\":1,\"verdict\":\"nope\",\"rung\":\"fast\",\"attempts\":1,\"retries\":0,\"wall_s\":0.1,\"detail\":\"\"}";
      "{\"job\":1,\"verdict\":\"certified\",\"rung\":\"fast\",\"attempts\":1,\"retries\":0,\"wall_s\":0.1,\"detail\":\"\",\"extra\":2}";
      "{\"job\":1,\"verdict\":\"certified\",\"rung\":\"fast\",\"attempts\":1,\"retries\":0,\"wall_s\":0.1,\"detail\":\"\"} trailing";
    ]

let test_journal_append_reload () =
  with_tmp "append" @@ fun path ->
  let j = J.create path in
  let es = [ entry 3; entry ~verdict:(V.Unknown V.Timeout) ~rung:"interval" 1; entry 7 ] in
  List.iter (J.append j) es;
  Helpers.check_true "in-memory order" (J.entries j = es);
  Helpers.check_true "reload equals appended" (J.load path = es);
  Helpers.check_true "journaled" (J.journaled j 1 && not (J.journaled j 2));
  Alcotest.check_raises "duplicate job rejected"
    (Invalid_argument "Journal.append: job 3 already journaled") (fun () ->
      J.append j (entry 3));
  (* resume continues where the file left off and clears stale temps *)
  let oc = open_out (path ^ ".tmp") in
  output_string oc "torn half-wri";
  close_out oc;
  let j2 = J.resume path in
  Helpers.check_true "resume loads all" (J.entries j2 = es);
  Helpers.check_true "stale tmp removed" (not (Sys.file_exists (path ^ ".tmp")));
  J.append j2 (entry 2);
  Helpers.check_true "resume appends" (List.length (J.load path) = 4)

(* A kill tore record 2 after every byte but its newline. The record is
   not committed: resume cuts it, the next appends start on a line of
   their own, and every complete record survives later loads and
   resumes. [fresh] and [resume] return an appender and a closer. *)
let torn_record_case path ~fresh ~resume ~load ~line ~id mk =
  let append, close = fresh path in
  append (mk 1);
  close ();
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path (fun oc ->
      output_string oc (line (mk 2)));
  let append, close, got = resume path in
  Helpers.check_true "resume drops the torn record" (List.map id got = [ 1 ]);
  append (mk 3);
  append (mk 4);
  close ();
  let complete = [ 1; 3; 4 ] in
  Helpers.check_true "load keeps every complete record"
    (List.map id (load path) = complete);
  let _, close, got = resume path in
  close ();
  Helpers.check_true "resume keeps every complete record"
    (List.map id got = complete)

let test_journal_torn_record () =
  with_tmp "torn-journal" @@ fun path ->
  let ops j = (J.append j, fun () -> J.Log.close (J.log j)) in
  torn_record_case path
    ~fresh:(fun p -> ops (J.create p))
    ~resume:(fun p ->
      let j = J.resume p in
      let append, close = ops j in
      (append, close, J.entries j))
    ~load:J.load ~line:J.to_json ~id:(fun e -> e.J.job) entry

let test_intake_torn_record () =
  with_tmp "torn-intake" @@ fun path ->
  let module P = Service.Protocol in
  let line (id, c) = P.intake_to_json ~id c in
  let ops log = ((fun r -> J.Log.append log (line r)), fun () -> J.Log.close log) in
  torn_record_case path
    ~fresh:(fun p -> ops (J.Log.fresh ~site:"intake" p))
    ~resume:(fun p ->
      let log, recs = J.Log.resume ~site:"intake" ~decode:P.intake_of_json p in
      let append, close = ops log in
      (append, close, recs))
    ~load:(J.Log.load ~decode:P.intake_of_json)
    ~line ~id:fst
    (fun k -> (k, P.certify ~tag:k ~model:"m" ~radius:0.1 (P.Index k)))

(* ---------------- the worker pool: clean runs ---------------- *)

let jobs_of n = List.init n (fun i -> (i, i))

let test_pool_basic () =
  List.iter
    (fun workers ->
      let pool = C.pool ~workers () in
      let rs = S.run ~pool ~worker:(fun _ x -> (x * 2) + 1) (jobs_of 9) in
      Helpers.check_true "all jobs answered" (List.length rs = 9);
      List.iteri
        (fun i (r : int S.job_result) ->
          Helpers.check_true "ordered by id" (r.S.job = i);
          Helpers.check_true "no retries" (r.S.retries = 0);
          Helpers.check_true "result correct" (r.S.outcome = Ok ((i * 2) + 1)))
        rs)
    [ 1; 4 ]

let test_pool_parallel_speedup () =
  (* 6 sleeping jobs on 3 workers must take ~2 rounds, not 6: a weak
     bound (< 4 rounds) keeps the assertion robust on loaded machines. *)
  let t0 = Unix.gettimeofday () in
  let rs =
    S.run ~pool:(C.pool ~workers:3 ())
      ~worker:(fun _ () -> Unix.sleepf 0.1)
      (List.init 6 (fun i -> (i, ())))
  in
  let dt = Unix.gettimeofday () -. t0 in
  Helpers.check_true "all done" (List.length rs = 6);
  Helpers.check_true
    (Printf.sprintf "parallel wall %.2fs < 0.4s" dt)
    (dt < 0.4)

let test_pool_rejects_duplicates () =
  Alcotest.check_raises "duplicate ids"
    (Invalid_argument "Supervisor.run: duplicate job ids") (fun () ->
      ignore (S.run ~worker:(fun _ x -> x) [ (1, 0); (1, 1) ]))

(* ---------------- fault containment ---------------- *)

let outcome_of rs id =
  (List.find (fun (r : 'b S.job_result) -> r.S.job = id) rs).S.outcome

let test_pool_crash_contained () =
  let pool = C.pool ~workers:2 ~max_retries:1 ~backoff_s:0.01 () in
  let rs =
    S.run ~pool
      ~worker:(fun id x -> if id = 3 then failwith "boom" else x * 10)
      (jobs_of 6)
  in
  Helpers.check_true "all jobs reported" (List.length rs = 6);
  List.iter
    (fun (r : int S.job_result) ->
      if r.S.job = 3 then begin
        (match r.S.outcome with
        | Error (S.Crashed { reason }) ->
            Helpers.check_true "uncaught exit code"
              (reason = "exit " ^ string_of_int S.exit_uncaught)
        | _ -> Alcotest.fail "job 3 should crash");
        Helpers.check_true "crash retried before giving up" (r.S.retries = 1);
        Helpers.check_true "maps to worker-crashed"
          (match r.S.outcome with
          | Error f -> S.failure_reason f = V.Worker_crashed
          | Ok _ -> false)
      end
      else Helpers.check_true "healthy job survives" (r.S.outcome = Ok (r.S.job * 10)))
    rs

let test_pool_hard_exit_contained () =
  let rs =
    S.run ~pool:(C.pool ~workers:2 ~max_retries:0 ())
      ~worker:(fun id x -> if id = 1 then exit 5 else x)
      (jobs_of 4)
  in
  Helpers.check_true "exit confined"
    (outcome_of rs 1 = Error (S.Crashed { reason = "exit 5" }));
  List.iter
    (fun id -> Helpers.check_true "others fine" (outcome_of rs id = Ok id))
    [ 0; 2; 3 ]

let test_pool_deadline_kill () =
  let pool =
    C.pool ~workers:2 ~hard_deadline_s:0.15 ~grace_s:0.3 ~max_retries:1 ()
  in
  let rs =
    S.run ~pool
      ~worker:(fun id x ->
        if id = 2 then Unix.sleepf 30.0;
        x)
      (jobs_of 5)
  in
  (match outcome_of rs 2 with
  | Error (S.Killed { signal }) ->
      Helpers.check_true "died from the SIGTERM" (signal = Sys.sigterm);
      Helpers.check_true "maps to worker-killed"
        (S.failure_reason (S.Killed { signal }) = V.Worker_killed)
  | _ -> Alcotest.fail "stalled job should be killed");
  Helpers.check_true "deadline kills are not retried"
    ((List.find (fun (r : int S.job_result) -> r.S.job = 2) rs).S.retries = 0);
  List.iter
    (fun id -> Helpers.check_true "others fine" (outcome_of rs id = Ok id))
    [ 0; 1; 3; 4 ]

let test_pool_sigkill_escalation () =
  (* A worker that ignores SIGTERM must be brought down by the SIGKILL
     escalation after the grace period. *)
  let pool = C.pool ~workers:1 ~hard_deadline_s:0.1 ~grace_s:0.15 () in
  let rs =
    S.run ~pool
      ~worker:(fun id x ->
        if id = 0 then begin
          Sys.set_signal Sys.sigterm Sys.Signal_ignore;
          Unix.sleepf 30.0
        end;
        x)
      (jobs_of 2)
  in
  (match outcome_of rs 0 with
  | Error (S.Killed { signal }) ->
      Helpers.check_true "escalated to SIGKILL" (signal = Sys.sigkill)
  | _ -> Alcotest.fail "SIGTERM-immune worker should be SIGKILLed");
  Helpers.check_true "next job runs on a fresh worker" (outcome_of rs 1 = Ok 1)

let test_pool_oom_guard () =
  let pool = C.pool ~workers:1 ~mem_limit_mb:16 ~max_retries:0 () in
  let rs =
    S.run ~pool
      ~worker:(fun id x ->
        if id = 0 then begin
          (* allocate ~64 MB of live arrays, forcing major collections so
             the in-worker guard (the setrlimit stand-in) trips *)
          let acc = ref [] in
          for i = 1 to 1024 do
            acc := Array.make (1 lsl 13) (float_of_int i) :: !acc;
            if i mod 64 = 0 then Gc.major ()
          done;
          ignore (List.length !acc)
        end;
        x)
      (jobs_of 3)
  in
  Helpers.check_true "oom confined"
    (outcome_of rs 0 = Error (S.Crashed { reason = "oom" }));
  List.iter
    (fun id -> Helpers.check_true "others fine" (outcome_of rs id = Ok id))
    [ 1; 2 ]

let test_pool_transient_crash_retried () =
  (* First attempt crashes, the retry (fresh worker) succeeds: the marker
     file is the cross-process "already failed once" bit. *)
  with_tmp "transient" @@ fun marker ->
  let pool = C.pool ~workers:1 ~max_retries:2 ~backoff_s:0.01 () in
  let rs =
    S.run ~pool
      ~worker:(fun id x ->
        if id = 1 && not (Sys.file_exists marker) then begin
          let oc = open_out marker in
          close_out oc;
          exit 9
        end;
        x * 7)
      (jobs_of 3)
  in
  let r1 = List.find (fun (r : int S.job_result) -> r.S.job = 1) rs in
  Helpers.check_true "rescued on retry" (r1.S.outcome = Ok 7);
  Helpers.check_true "one retry recorded" (r1.S.retries = 1)

let test_pool_idle_death_free () =
  (* A worker killed between jobs costs the next job nothing: job 0's
     callback kills the worker that ran it and waits until it is dead
     (a zombie: the supervisor is busy in this callback and cannot reap
     it), so the next dispatch meets EPIPE and the job goes back to the
     queue uncharged. With no retries allowed, a death blamed on the job
     would end it in an error. *)
  let pool = C.pool ~workers:1 ~max_retries:0 () in
  let rs =
    S.run ~pool
      ~on_result:(fun (r : int S.job_result) ->
        match r.S.outcome with
        | Ok pid when r.S.job = 0 ->
            Unix.kill pid Sys.sigkill;
            Helpers.wait_dead pid
        | _ -> ())
      ~worker:(fun _ () -> Unix.getpid ())
      (List.init 3 (fun i -> (i, ())))
  in
  List.iter
    (fun (r : int S.job_result) ->
      Helpers.check_true
        (Printf.sprintf "job %d ok" r.S.job)
        (Result.is_ok r.S.outcome);
      Helpers.check_true
        (Printf.sprintf "job %d charged no retry" r.S.job)
        (r.S.retries = 0))
    rs;
  Helpers.check_true "the next job ran on a fresh worker"
    (outcome_of rs 0 <> outcome_of rs 1)

(* ---------------- journaled batch: SIGKILL mid-run + resume ----------- *)

(* The acceptance scenario: a journaled batch run is SIGKILLed mid-flight
   (supervisor and all); the resumed run must certify exactly the jobs
   missing from the journal, converging to the same complete journal an
   uninterrupted run produces. The batch here is a toy worker so the test
   stays hermetic; the wiring (pool + on_result + journal) is exactly what
   bin/certify batch uses. *)
let run_journaled_batch path ids =
  let j = J.resume path in
  let todo = List.filter (fun id -> not (J.journaled j id)) ids in
  let rs =
    S.run
      ~pool:(C.pool ~workers:2 ())
      ~on_result:(fun (r : unit S.job_result) ->
        let verdict, detail =
          match r.S.outcome with
          | Ok () -> (V.Certified, "")
          | Error f -> (V.Unknown (S.failure_reason f), S.failure_detail f)
        in
        J.append j
          {
            J.job = r.S.job;
            verdict;
            rung = "toy";
            attempts = 1;
            retries = r.S.retries;
            wall_s = r.S.wall_s;
            detail;
          })
      ~worker:(fun _ () -> Unix.sleepf 0.12)
      (List.map (fun id -> (id, ())) todo)
  in
  List.length rs

let test_pool_sigkill_resume () =
  with_tmp "resume" @@ fun path ->
  let ids = List.init 6 Fun.id in
  (match Unix.fork () with
  | 0 ->
      (* the doomed batch: will be SIGKILLed mid-run *)
      ignore (run_journaled_batch path ids);
      exit 0
  | pid ->
      Unix.sleepf 0.3;
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid));
  let done_before = List.length (J.load path) in
  Helpers.check_true
    (Printf.sprintf "killed mid-run (%d/6 journaled)" done_before)
    (done_before < 6);
  let recertified = run_journaled_batch path ids in
  Helpers.check_true "resume certifies exactly the missing jobs"
    (recertified = 6 - done_before);
  let final = J.load path in
  Helpers.check_true "complete journal" (List.length final = 6);
  Helpers.check_true "every job exactly once, all certified"
    (List.sort compare (List.map (fun e -> e.J.job) final) = ids
    && List.for_all (fun e -> e.J.verdict = V.Certified) final);
  (* resuming a complete journal is a no-op *)
  Helpers.check_true "nothing left to do" (run_journaled_batch path ids = 0)

let () =
  Alcotest.run "supervisor"
    [
      ( "verdict",
        [ Alcotest.test_case "string round-trip" `Quick test_verdict_round_trip ] );
      ( "journal",
        [
          Alcotest.test_case "json round-trip" `Quick test_journal_json_round_trip;
          Alcotest.test_case "append/reload" `Quick test_journal_append_reload;
          Alcotest.test_case "torn record" `Quick test_journal_torn_record;
          Alcotest.test_case "torn intake record" `Quick test_intake_torn_record;
        ] );
      ( "pool",
        [
          Alcotest.test_case "basic" `Quick test_pool_basic;
          Alcotest.test_case "parallel speedup" `Quick test_pool_parallel_speedup;
          Alcotest.test_case "duplicate ids" `Quick test_pool_rejects_duplicates;
        ] );
      ( "containment",
        [
          Alcotest.test_case "crash contained" `Quick test_pool_crash_contained;
          Alcotest.test_case "hard exit contained" `Quick test_pool_hard_exit_contained;
          Alcotest.test_case "deadline kill" `Quick test_pool_deadline_kill;
          Alcotest.test_case "sigkill escalation" `Quick test_pool_sigkill_escalation;
          Alcotest.test_case "oom guard" `Quick test_pool_oom_guard;
          Alcotest.test_case "transient retry" `Quick test_pool_transient_crash_retried;
          Alcotest.test_case "idle death costs no retry" `Quick
            test_pool_idle_death_free;
        ] );
      ( "resume",
        [ Alcotest.test_case "sigkill mid-run" `Quick test_pool_sigkill_resume ] );
    ]
