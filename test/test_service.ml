(* The certification daemon: wire protocol round-trips, the admission
   queue, the per-model circuit breaker (walked on a fake clock), the
   result cache and its journal-backed rebuild, intake torn-tail
   recovery, and live daemon lifecycle drills — SIGTERM drains, SIGKILL
   mid-batch plus --resume re-runs exactly the unjournaled jobs, and
   cache hits are bit-identical to the cold run. *)

module P = Service.Protocol
module B = Service.Breaker
module Ca = Service.Cache
module Cl = Service.Client
module V = Deept.Verdict
module J = Deept.Journal

let check_true = Helpers.check_true

let tmp_path =
  let n = ref 0 in
  fun name ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "deept-service-test-%d-%d-%s" (Unix.getpid ()) !n name)

let with_tmp name f =
  let base = tmp_path name in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun ext -> try Sys.remove (base ^ ext) with Sys_error _ -> ())
        [ ""; ".sock"; ".jsonl"; ".jsonl.intake"; ".jsonl.tmp" ])
    (fun () -> f base)

(* ---------------- protocol round-trips ---------------- *)

(* Floats chosen as short binary fractions so the fixed-precision wire
   formats ([%.6f] latencies, [%.17g] radii) reproduce them exactly. *)
let sample_certify =
  P.certify ~word:3 ~p:Deept.Lp.Linf ~verifier:Deept.Config.Precise
    ~deadline_s:1.5 ~tag:42 ~drill_crash:true ~drill_stall_s:0.25 ~model:"m"
    ~radius:1e-9
    (P.Sentence "a b \"quoted\" back\\slash")

let test_request_round_trip () =
  List.iter
    (fun r ->
      match P.request_of_json (P.request_to_json r) with
      | Ok r' -> check_true "request round-trip" (r = r')
      | Error e -> Alcotest.failf "request decode failed: %s" e)
    [
      P.Certify (P.certify ~model:"sst_3" ~radius:0.02 (P.Index 7));
      P.Certify sample_certify;
      P.Stats;
      P.Shutdown;
    ]

let test_response_round_trip () =
  let result ?tag ?(cached = false) verdict =
    P.Result
      {
        P.id = 9;
        tag;
        verdict;
        rung = "fast";
        attempts = 2;
        retries = 1;
        wall_s = 0.125;
        cached;
      }
  in
  let responses =
    result V.Certified
    :: result ~tag:7 ~cached:true V.Falsified
    :: List.map (fun r -> result (V.Unknown r)) V.all_reasons
    @ [
        P.Overloaded { tag = Some 3; retry_after_s = 0.25 };
        P.Overloaded { tag = None; retry_after_s = 0.5 };
        P.Quarantined { tag = Some 1; model = "sst_3"; retry_after_s = 2.5 };
        P.Stats_r
          {
            P.uptime_s = 1.5;
            workers = 2;
            queue_depth = 3;
            inflight = 1;
            jobs_done = 10;
            shed = 4;
            cache_hits = 5;
            cache_misses = 6;
            cache_size = 6;
            worker_deaths = 1;
            draining = true;
            breakers = "sst_3=closed";
            rungs = "fast=2 precise=8 refine=1";
          };
        P.Error "no such model \"nope\"";
        P.Ok_ack;
      ]
  in
  List.iter
    (fun r ->
      match P.response_of_json (P.response_to_json r) with
      | Ok r' -> check_true "response round-trip" (r = r')
      | Error e -> Alcotest.failf "response decode failed: %s" e)
    responses

let test_intake_round_trip () =
  match P.intake_of_json (P.intake_to_json ~id:17 sample_certify) with
  | Ok (id, c) ->
      check_true "intake id" (id = 17);
      check_true "intake certify" (c = sample_certify)
  | Error e -> Alcotest.failf "intake decode failed: %s" e

let test_protocol_rejects () =
  List.iter
    (fun line ->
      check_true
        ("rejects " ^ line)
        (Result.is_error (P.request_of_json line)))
    [
      "";
      "not json";
      "{\"op\":\"certify\"}";
      (* missing model *)
      "{\"op\":\"certify\",\"model\":\"m\"}";
      (* missing radius *)
      "{\"op\":\"certify\",\"model\":\"m\",\"radius\":\"0.1\",\"norm\":\"3\"}";
      "{\"op\":\"frobnicate\"}";
    ];
  check_true "bad norm" (Result.is_error (P.norm_of_name "3"));
  check_true "bad verifier" (Result.is_error (P.verifier_of_name "fastest"));
  check_true "norm inf"
    (P.norm_of_name "inf" = Ok Deept.Lp.Linf
    && P.norm_name Deept.Lp.Linf = "inf")

(* ---------------- verdict strings (daemon rejections) -------------- *)

let contains ~sub s =
  let lp = String.length sub and le = String.length s in
  let rec go i = i + lp <= le && (String.sub s i lp = sub || go (i + 1)) in
  go 0

let test_verdict_of_string_res () =
  (* exhaustive over the constructors: V.all_reasons is the compiler's
     list, so a new reason cannot silently skip this round-trip *)
  List.iter
    (fun v ->
      match V.of_string_res (V.to_string v) with
      | Ok v' -> check_true ("round-trip " ^ V.to_string v) (V.equal v v')
      | Error e -> Alcotest.failf "of_string_res %s: %s" (V.to_string v) e)
    (V.Certified :: V.Falsified
    :: List.map (fun r -> V.Unknown r) V.all_reasons);
  (* every reason name round-trips through the reason codec too *)
  List.iter
    (fun r ->
      check_true ("reason round-trip " ^ V.reason_name r)
        (V.reason_of_string (V.reason_name r) = Some r))
    V.all_reasons;
  (* a known-shaped but unknown reason lists every valid reason name *)
  (match V.of_string_res "unknown(nope)" with
  | Ok _ -> Alcotest.fail "accepted unknown(nope)"
  | Error e ->
      List.iter
        (fun r ->
          check_true ("rejection lists " ^ V.reason_name r)
            (contains ~sub:(V.reason_name r) e))
        V.all_reasons);
  (* malformed strings are rejected with a message that explains the
     expected shapes, never accepted and never a bare parse crash *)
  List.iter
    (fun s ->
      match V.of_string_res s with
      | Ok v -> Alcotest.failf "accepted %S as %s" s (V.to_string v)
      | Error e ->
          check_true (Printf.sprintf "%S rejection explains itself" s)
            (String.length e > String.length s && contains ~sub:"expected" e))
    [
      "bogus"; ""; "Certified"; "CERTIFIED"; " certified"; "certified ";
      "unknown"; "unknown("; "unknown()"; "unknown(timeout"; "unknowntimeout)";
      "unknown(timeout))"; "falsified(oops)"; "unknown(TIMEOUT)";
    ]

(* ---------------- admission queue ---------------- *)

let test_jobq_shed_and_requeue () =
  let q = Service.Jobq.create ~cap:2 () in
  check_true "admit 1" (Service.Jobq.admit q 1);
  check_true "admit 2" (Service.Jobq.admit q 2);
  check_true "full at cap" (Service.Jobq.full q);
  check_true "sheds past cap" (not (Service.Jobq.admit q 3));
  check_true "shed counted" (Service.Jobq.shed q = 1);
  check_true "accepted counted" (Service.Jobq.accepted q = 2);
  check_true "depth" (Service.Jobq.depth q = 2);
  (* promised work (retries, resume) bypasses the cap and jumps the
     line *)
  Service.Jobq.requeue q 0;
  check_true "requeue is cap-exempt" (Service.Jobq.depth q = 3);
  check_true "requeue front-pushes"
    (Service.Jobq.pop q ~ready:(fun _ -> true) = Some 0);
  check_true "pop skips unready, keeps order"
    (Service.Jobq.pop q ~ready:(fun x -> x <> 1) = Some 2);
  check_true "skipped job stays"
    (Service.Jobq.pop q ~ready:(fun _ -> true) = Some 1);
  check_true "empty" (Service.Jobq.pop q ~ready:(fun _ -> true) = None)

let test_jobq_retry_after () =
  let q = Service.Jobq.create ~cap:8 () in
  check_true "floored at 50ms with no history"
    (Service.Jobq.retry_after q ~workers:2 >= 0.05);
  Service.Jobq.note_service q 1.0;
  check_true "ewma primed" (Service.Jobq.ewma_s q > 0.0);
  ignore (Service.Jobq.admit q 1);
  ignore (Service.Jobq.admit q 2);
  let hint = Service.Jobq.retry_after q ~workers:1 in
  check_true "hint scales with depth and ewma" (hint >= Service.Jobq.ewma_s q)

let test_jobq_default_hint () =
  (* before the first completed job there is no EWMA; the hint must come
     from the configured default, not a baked-in constant *)
  let q = Service.Jobq.create ~default_service_s:0.5 ~cap:4 () in
  check_true "unprimed hint uses the configured default"
    (abs_float (Service.Jobq.retry_after q ~workers:1 -. 0.5) < 1e-12);
  (* junk samples (cache-warm zeros, clock skew) must not fake-prime it *)
  Service.Jobq.note_service q 0.0;
  Service.Jobq.note_service q (-1.0);
  Service.Jobq.note_service q Float.nan;
  Service.Jobq.note_service q Float.infinity;
  check_true "junk samples discarded"
    (Service.Jobq.ewma_s q = 0.0
    && abs_float (Service.Jobq.retry_after q ~workers:1 -. 0.5) < 1e-12);
  Service.Jobq.note_service q 2.0;
  check_true "first real sample primes the ewma"
    (Service.Jobq.ewma_s q = 2.0);
  check_true "non-positive default rejected"
    (match Service.Jobq.create ~default_service_s:0.0 ~cap:1 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------------- circuit breaker (fake clock) ---------------- *)

let test_breaker_schedule () =
  let t = ref 0.0 in
  let b = B.create ~threshold:3 ~cooloff_s:5.0 ~now:(fun () -> !t) () in
  check_true "starts closed" (B.admit b = `Ok && B.state b = B.Closed);
  B.failure b;
  B.failure b;
  check_true "below threshold stays closed" (B.admit b = `Ok);
  B.success b;
  (* the streak must be consecutive: a success resets it *)
  B.failure b;
  B.failure b;
  check_true "reset by success" (B.admit b = `Ok && B.state b = B.Closed);
  B.failure b;
  check_true "opens at threshold" (B.state b = B.Open 5.0 && B.trips b = 1);
  (match B.admit b with
  | `Reject r -> check_true "full cooloff remaining" (r = 5.0)
  | `Ok -> Alcotest.fail "open breaker admitted");
  t := 2.0;
  (match B.admit b with
  | `Reject r -> check_true "cooloff counts down" (r = 3.0)
  | `Ok -> Alcotest.fail "open breaker admitted early");
  t := 5.5;
  check_true "half-opens past cooloff" (B.admit b = `Ok);
  check_true "half-open state" (B.state b = B.Half_open);
  (match B.admit b with
  | `Reject _ -> ()
  | `Ok -> Alcotest.fail "second probe admitted while one in flight");
  (* the probe's worker dies: reopen for a fresh cooloff *)
  B.failure b;
  check_true "probe death reopens" (B.state b = B.Open 10.5 && B.trips b = 2);
  t := 11.0;
  check_true "second probe" (B.admit b = `Ok);
  B.success b;
  check_true "probe success closes" (B.state b = B.Closed && B.admit b = `Ok);
  check_true "state names"
    (B.state_name b = "closed"
    && (B.create ~now:(fun () -> 0.0) () |> fun b' ->
        B.failure b';
        B.failure b';
        B.failure b';
        B.state_name b' = "open(5.0s)"))

(* ---------------- result cache ---------------- *)

let centry ?(rung = "fast") verdict = { Ca.verdict; rung; attempts = 1 }

let test_cache_key_discriminates () =
  let base = P.certify ~model:"m" ~radius:0.1 (P.Index 0) in
  let k = Ca.key ~digest:"d0" in
  let variants =
    [
      k base;
      Ca.key ~digest:"d1" base;
      k { base with P.input = P.Index 1 };
      k { base with P.input = P.Sentence "a b" };
      k { base with P.word = 2 };
      k { base with P.p = Deept.Lp.Linf };
      k { base with P.radius = 0.1 +. epsilon_float };
      k { base with P.verifier = Deept.Config.Precise };
      k { base with P.deadline_s = Some 1.0 };
    ]
  in
  check_true "every key component discriminates"
    (List.length (List.sort_uniq compare variants) = List.length variants);
  check_true "tags are not part of the key"
    (k { base with P.tag = Some 9 } = k base);
  check_true "keys are single-line"
    (not (String.contains (k { base with P.input = P.Sentence "a\nb" }) '\n'))

(* The config half of every cache key, certifyd's journaled keys
   included. Fields that change whether an answer is produced, or how
   it is scheduled, but not which answer, stay out of it: otherwise a
   restarted daemon would miss every journaled entry. *)
let test_policy_key_pinned () =
  let module C = Deept.Config in
  let refined = C.with_refine (Some C.default_refine) C.fast in
  List.iter
    (fun (name, cfg, want) ->
      let got = C.policy_key cfg in
      if got <> want then Alcotest.failf "%s: %s <> %s" name got want)
    [
      ("fast", C.fast, "fast:olinf:sstable:ss1:k128:rf-");
      ("fast, refined", refined, "fast:olinf:sstable:ss1:k128:rfk2.b8.d2");
      ("precise", C.precise, "precise:olinf:sstable:ss1:k96:rf-");
      ( "fast, traced on 2 domains",
        C.with_domains 2 (C.with_trace (Some ignore) C.fast),
        "fast:olinf:sstable:ss1:k128:rf-" );
    ]

let test_cache_store_find () =
  let t = Ca.create () in
  let k = "k1" in
  check_true "miss" (Ca.find t k = None && Ca.misses t = 1);
  Ca.store t k (centry V.Certified);
  check_true "hit" (Ca.find t k = Some (centry V.Certified) && Ca.hits t = 1);
  Ca.store t "k2" (centry (V.Unknown V.Timeout));
  check_true "faults never cached" (Ca.size t = 1 && Ca.find t "k2" = None);
  Ca.store t "k3" (centry (V.Unknown V.Imprecise));
  check_true "imprecise is a real answer, cached" (Ca.find t "k3" <> None)

let test_cache_absorb () =
  let entry ?(verdict = V.Certified) ?(detail = "") job =
    { J.job; verdict; rung = "fast"; attempts = 1; retries = 0;
      wall_s = 0.1; detail }
  in
  let t = Ca.create () in
  Ca.absorb t
    [
      entry ~detail:"key=a|b|c" 0;
      entry ~detail:"key=a|b|c" 1 (* duplicate key: last wins, size 1 *);
      entry ~detail:"" 2 (* journaled without a key: skipped *);
      entry ~verdict:(V.Unknown V.Worker_crashed) ~detail:"key=x" 3
      (* fault: never cached *);
      entry ~verdict:V.Falsified ~detail:"key=y" 4;
    ];
  check_true "absorbed non-fault keyed entries" (Ca.size t = 2);
  check_true "finds absorbed"
    (Ca.find t "a|b|c" <> None && Ca.find t "y" <> None && Ca.find t "x" = None)

(* ---------------- supervisor backoff bounds ---------------- *)

let test_backoff_bounds () =
  let pool =
    Deept.Config.pool ~backoff_s:0.1 ~max_backoff_s:0.4 ()
  in
  for retries = 0 to 5 do
    let cap = Float.min (0.1 *. (2.0 ** float_of_int retries)) 0.4 in
    for _ = 1 to 20 do
      let d = Deept.Supervisor.backoff_delay pool ~retries in
      check_true
        (Printf.sprintf "retry %d delay %.3f in [%.3f, %.3f]" retries d
           (cap /. 2.0) cap)
        (d >= (cap /. 2.0) -. 1e-9 && d <= cap +. 1e-9)
    done
  done

(* ---------------- intake torn-tail recovery ---------------- *)

let test_intake_torn_tail () =
  with_tmp "intake" @@ fun path ->
  let c k = P.certify ~tag:k ~model:"m" ~radius:0.1 (P.Index k) in
  let oc = open_out path in
  output_string oc (P.intake_to_json ~id:1 (c 1) ^ "\n");
  output_string oc (P.intake_to_json ~id:2 (c 2) ^ "\n");
  (* the crash tore the third record mid-write *)
  output_string oc "{\"op\":\"certify\",\"model\":\"m\",\"ra";
  close_out oc;
  let resume () =
    let log, recs = J.Log.resume ~site:"intake" ~decode:P.intake_of_json path in
    J.Log.close log;
    recs
  in
  let got = resume () in
  check_true "torn tail dropped" (List.map fst got = [ 1; 2 ]);
  check_true "torn tail truncated away" (resume () = got);
  (* corruption that is NOT a torn tail must refuse, not guess *)
  let oc = open_out path in
  output_string oc "not an intake line\n";
  output_string oc (P.intake_to_json ~id:3 (c 3) ^ "\n");
  close_out oc;
  match resume () with
  | _ -> Alcotest.fail "accepted a corrupt non-final line"
  | exception Failure _ -> ()

(* ---------------- live daemon drills ---------------- *)

(* These need the committed sst_3 model; skip gracefully without it,
   like test_interp's bit-exactness pins. *)
let have_model = Sys.file_exists "../data/sst_3.model"

let start_daemon ?journal ?(resume = false)
    ?(pool = Deept.Config.pool ~workers:1 ()) ?breaker_threshold
    ?breaker_cooloff_s socket =
  match Unix.fork () with
  | 0 ->
      (try
         Zoo.data_dir := "../data";
         Service.Server.run
           (Service.Server.opts ~pool ?breaker_threshold ?breaker_cooloff_s
              ?journal ~resume
              ~log:(fun _ -> ())
              ~socket [ "sst_3" ]);
         exit 0
       with _ -> exit 1)
  | pid -> pid

let stop_daemon pid =
  (* tolerate a daemon the test already killed and reaped *)
  try
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid)
  with Unix.Unix_error _ -> ()

let req ?drill_stall_s k =
  P.Certify
    (P.certify ?drill_stall_s ~tag:k ~model:"sst_3" ~radius:0.005
       (P.Index k))

let expect_result conn what =
  match Cl.recv conn with
  | Some (P.Result r) -> r
  | Some other ->
      Alcotest.failf "%s: unexpected %s" what (P.response_to_json other)
  | None -> Alcotest.failf "%s: daemon closed the connection" what

let test_daemon_cache_bit_identical () =
  if not have_model then () else
  with_tmp "cache" @@ fun base ->
  let socket = base ^ ".sock" in
  let pid = start_daemon socket in
  Fun.protect ~finally:(fun () -> stop_daemon pid) @@ fun () ->
  let conn = Cl.connect_retry ~timeout_s:60.0 socket in
  Cl.send conn (req 0);
  let cold = expect_result conn "cold run" in
  check_true "cold run recomputes" (not cold.P.cached);
  Cl.send conn (req 0);
  let hot = expect_result conn "replay" in
  check_true "replay hits the cache" hot.P.cached;
  check_true "verdict bit-identical" (V.equal hot.P.verdict cold.P.verdict);
  check_true "rung and attempts identical"
    (hot.P.rung = cold.P.rung && hot.P.attempts = cold.P.attempts);
  (match Cl.request conn P.Stats with
  | Some (P.Stats_r s) ->
      (* jobs_done counts worker-executed jobs; the hit never ran one *)
      check_true "stats count the hit"
        (s.P.cache_hits = 1 && s.P.jobs_done = 1 && s.P.workers = 1)
  | _ -> Alcotest.fail "stats request failed");
  Cl.close conn

let test_daemon_sigterm_drains () =
  if not have_model then () else
  with_tmp "drain" @@ fun base ->
  let socket = base ^ ".sock" and journal = base ^ ".jsonl" in
  let pid = start_daemon ~journal socket in
  Fun.protect ~finally:(fun () -> stop_daemon pid) @@ fun () ->
  let conn = Cl.connect_retry ~timeout_s:60.0 socket in
  (* two queued behind one in flight, then SIGTERM: all three must be
     journaled before the daemon exits *)
  for k = 0 to 2 do Cl.send conn (req ~drill_stall_s:0.2 k) done;
  ignore (expect_result conn "first result");
  Unix.kill pid Sys.sigterm;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, _ -> Alcotest.fail "daemon did not drain cleanly on SIGTERM");
  Cl.close conn;
  let final = J.load journal in
  check_true "every accepted job journaled before exit"
    (List.sort compare (List.map (fun e -> e.J.job) final)
    = List.init 3 (fun i -> i + 1));
  check_true "drained jobs have real verdicts"
    (List.for_all (fun e -> not (V.is_fault e.J.verdict)) final)

let test_daemon_sigkill_resume () =
  if not have_model then () else
  with_tmp "resume" @@ fun base ->
  let socket = base ^ ".sock" and journal = base ^ ".jsonl" in
  let pid = start_daemon ~journal socket in
  let conn = Cl.connect_retry ~timeout_s:60.0 socket in
  (* six jobs on one worker, each stalled 0.3s, SIGKILL after two
     results: several are intaken but not yet journaled *)
  let n = 6 in
  for k = 0 to n - 1 do Cl.send conn (req ~drill_stall_s:0.3 k) done;
  ignore (expect_result conn "result 1");
  ignore (expect_result conn "result 2");
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  Cl.close conn;
  let intaken =
    List.map fst (J.Log.load ~decode:P.intake_of_json (journal ^ ".intake"))
  in
  let journaled = List.map (fun e -> e.J.job) (J.load journal) in
  check_true "killed mid-batch" (List.length journaled < n);
  check_true
    (Printf.sprintf "work outstanding (%d intaken, %d journaled)"
       (List.length intaken) (List.length journaled))
    (List.length intaken > List.length journaled);
  (* restart with --resume, drain, and the journal must hold exactly
     the intaken ids — nothing lost, nothing run twice *)
  let pid2 = start_daemon ~journal ~resume:true socket in
  Fun.protect ~finally:(fun () -> stop_daemon pid2) @@ fun () ->
  let conn2 = Cl.connect_retry ~timeout_s:60.0 socket in
  (match Cl.request conn2 P.Shutdown with
  | Some P.Ok_ack -> ()
  | _ -> Alcotest.fail "shutdown not acknowledged");
  Cl.close conn2;
  (match Unix.waitpid [] pid2 with
  | _, Unix.WEXITED 0 -> ()
  | _, _ -> Alcotest.fail "resumed daemon did not drain cleanly");
  let final = List.map (fun e -> e.J.job) (J.load journal) in
  check_true "exactly the intaken jobs, exactly once"
    (List.sort compare final = List.sort compare intaken)

(* A fresh daemon on a used path must not let the old run's journal
   answer for its own jobs. A previous run journals job 1; a fresh
   daemon on that path accepts a stalled request with a rid as its own
   job 1 and is SIGKILLed; after --resume that job must run again,
   journaled under its own key, and the rid must get the recomputed
   verdict. *)
let test_daemon_fresh_over_old_journal () =
  if not have_model then () else
  with_tmp "stale" @@ fun base ->
  let socket = base ^ ".sock" and journal = base ^ ".jsonl" in
  let drained what pid =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _, _ -> Alcotest.failf "%s did not drain cleanly" what
  in
  let pid = start_daemon ~journal socket in
  let conn = Cl.connect_retry ~timeout_s:60.0 socket in
  Cl.send conn (req 0);
  ignore (expect_result conn "previous run");
  ignore (Cl.request conn P.Shutdown);
  Cl.close conn;
  drained "previous run" pid;
  check_true "the previous run journaled job 1"
    (List.map (fun e -> e.J.job) (J.load journal) = [ 1 ]);
  let c =
    P.certify ~rid:"fresh-5" ~drill_stall_s:1.0 ~tag:5 ~p:Deept.Lp.L2
      ~model:"sst_3" ~radius:0.5 (P.Index 5)
  in
  let pid = start_daemon ~journal socket in
  let conn = Cl.connect_retry ~timeout_s:60.0 socket in
  Cl.send conn (P.Certify c);
  (* the daemon serves a connection's lines in order: once stats is
     answered, the request before it is intaken *)
  (match Cl.request conn P.Stats with
  | Some (P.Stats_r _) -> ()
  | _ -> Alcotest.fail "stats request failed");
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  Cl.close conn;
  let pid = start_daemon ~journal ~resume:true socket in
  Fun.protect ~finally:(fun () -> stop_daemon pid) @@ fun () ->
  let conn = Cl.connect_retry ~timeout_s:60.0 socket in
  Cl.send conn (P.Certify c);
  let r = expect_result conn "the rid after resume" in
  (match Cl.request conn P.Stats with
  | Some (P.Stats_r s) ->
      check_true "the accepted job ran again" (s.P.jobs_done = 1)
  | _ -> Alcotest.fail "stats request failed");
  ignore (Cl.request conn P.Shutdown);
  Cl.close conn;
  drained "resumed daemon" pid;
  let key = Ca.key ~digest:(Digest.to_hex (Digest.file "../data/sst_3.model")) c in
  match List.filter (fun e -> e.J.job = r.P.id) (J.load journal) with
  | [ e ] ->
      check_true "journaled under the request's key" (e.J.detail = "key=" ^ key);
      check_true "the rid gets the recomputed verdict"
        (V.equal r.P.verdict e.J.verdict)
  | es -> Alcotest.failf "%d journal entries for job %d" (List.length es) r.P.id

let rid_req ~rid k =
  P.Certify (P.certify ~rid ~tag:k ~model:"sst_3" ~radius:0.004 (P.Index k))

let test_daemon_rid_dedup () =
  if not have_model then () else
  with_tmp "rid" @@ fun base ->
  let socket = base ^ ".sock" in
  let pid = start_daemon socket in
  Fun.protect ~finally:(fun () -> stop_daemon pid) @@ fun () ->
  let conn = Cl.connect_retry ~timeout_s:60.0 socket in
  Cl.send conn (rid_req ~rid:"drill-a" 0);
  let first = expect_result conn "first delivery" in
  check_true "first delivery recomputes" (not first.P.cached);
  (* a blind resend of the same rid — the client pretending it lost the
     answer — must replay the original result, not run the job again *)
  Cl.send conn (rid_req ~rid:"drill-a" 0);
  let replay = expect_result conn "rid replay" in
  check_true "replay is marked cached" replay.P.cached;
  check_true "replay keeps the original id" (replay.P.id = first.P.id);
  check_true "replay keeps the verdict"
    (V.equal replay.P.verdict first.P.verdict);
  (* a fresh rid for the same work is a new logical request *)
  Cl.send conn (rid_req ~rid:"drill-b" 0);
  let other = expect_result conn "fresh rid" in
  check_true "fresh rid gets a fresh id" (other.P.id <> first.P.id);
  (match Cl.request conn P.Stats with
  | Some (P.Stats_r s) ->
      check_true "dedup never re-ran the job" (s.P.jobs_done = 1)
  | _ -> Alcotest.fail "stats request failed");
  Cl.close conn

let test_daemon_rid_dedup_resume () =
  if not have_model then () else
  with_tmp "ridresume" @@ fun base ->
  let socket = base ^ ".sock" and journal = base ^ ".jsonl" in
  let pid = start_daemon ~journal socket in
  let conn = Cl.connect_retry ~timeout_s:60.0 socket in
  Cl.send conn (rid_req ~rid:"drill-r0" 0);
  Cl.send conn (rid_req ~rid:"drill-r1" 1);
  let r0 = expect_result conn "result 0" in
  let r1 = expect_result conn "result 1" in
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  Cl.close conn;
  (* the dedup tables are rebuilt from intake ⋈ journal on --resume, so
     a client retrying across the crash still gets a replay, not a
     duplicate execution *)
  let pid2 = start_daemon ~journal ~resume:true socket in
  Fun.protect ~finally:(fun () -> stop_daemon pid2) @@ fun () ->
  let conn2 = Cl.connect_retry ~timeout_s:60.0 socket in
  Cl.send conn2 (rid_req ~rid:"drill-r0" 0);
  Cl.send conn2 (rid_req ~rid:"drill-r1" 1);
  let r0' = expect_result conn2 "replay 0 after resume" in
  let r1' = expect_result conn2 "replay 1 after resume" in
  List.iter2
    (fun (r : P.result_r) (r' : P.result_r) ->
      check_true "post-crash replay is cached" r'.P.cached;
      check_true "post-crash replay keeps the id" (r'.P.id = r.P.id);
      check_true "post-crash replay keeps the verdict"
        (V.equal r'.P.verdict r.P.verdict))
    [ r0; r1 ] [ r0'; r1' ];
  Cl.close conn2

let test_client_session_reconnect () =
  if not have_model then () else
  with_tmp "session" @@ fun base ->
  let socket = base ^ ".sock" in
  let pid = start_daemon socket in
  let pol =
    Cl.policy ~max_attempts:5 ~backoff_s:0.05 ~connect_timeout_s:60.0 ()
  in
  let s = Cl.session ~policy:pol socket in
  let certify k =
    P.certify ~tag:k ~model:"sst_3" ~radius:0.004 (P.Index k)
  in
  (match Cl.call s (certify 0) with
  | P.Result r -> check_true "first call recomputes" (not r.P.cached)
  | other -> Alcotest.failf "first call: %s" (P.response_to_json other));
  (* kill the daemon under the session, bring up a fresh one on the
     same socket: the next call must ride through the dead connection
     (EPIPE/EOF), reconnect and succeed *)
  stop_daemon pid;
  let pid2 = start_daemon socket in
  Fun.protect ~finally:(fun () -> stop_daemon pid2) @@ fun () ->
  (match Cl.call s (certify 1) with
  | P.Result r ->
      check_true "call after daemon restart reconnects and completes"
        (not (V.is_fault r.P.verdict))
  | other ->
      Alcotest.failf "call after restart: %s" (P.response_to_json other));
  Cl.hangup s

(* ---------------- worker deaths in the daemon ---------------- *)

(* sst_3 test sentence 5 certifies at this radius in a few tens of ms,
   well inside the 0.3 s hard deadline of the SIGTERM drill. *)
let quick_req k =
  P.Certify (P.certify ~tag:k ~model:"sst_3" ~radius:0.005 (P.Index 5))

let stats conn =
  match Cl.request conn P.Stats with
  | Some (P.Stats_r s) -> s
  | _ -> Alcotest.fail "stats request failed"

let journal_detail journal id =
  match List.find_opt (fun e -> e.J.job = id) (J.load journal) with
  | Some e -> e.J.detail
  | None -> Alcotest.failf "job %d not journaled" id

let test_daemon_crash_path () =
  if not have_model then () else
  with_tmp "crash" @@ fun base ->
  let socket = base ^ ".sock" and journal = base ^ ".jsonl" in
  let pool = Deept.Config.pool ~workers:1 ~max_retries:1 () in
  let pid =
    start_daemon ~journal ~pool ~breaker_threshold:2 ~breaker_cooloff_s:1.0
      socket
  in
  Fun.protect ~finally:(fun () -> stop_daemon pid) @@ fun () ->
  let conn = Cl.connect_retry ~timeout_s:60.0 socket in
  (* the worker exits 86 on each attempt: one retry, then the failure
     is final, and the two crashes open the model's breaker *)
  Cl.send conn
    (P.Certify
       (P.certify ~drill_crash:true ~tag:0 ~model:"sst_3" ~radius:0.005
          (P.Index 0)));
  let r = expect_result conn "crash drill" in
  check_true "crash drill ends worker-crashed"
    (V.equal r.P.verdict (V.Unknown V.Worker_crashed));
  check_true "after one retry" (r.P.retries = 1);
  check_true "journal detail is the exit code"
    (journal_detail journal r.P.id = "exit 86");
  Cl.send conn (quick_req 1);
  (match Cl.recv conn with
  | Some (P.Quarantined q) -> check_true "sst_3 quarantined" (q.model = "sst_3")
  | Some other -> Alcotest.failf "expected quarantine, got %s" (P.response_to_json other)
  | None -> Alcotest.fail "daemon closed the connection");
  (* past the cooloff one half-open probe runs, and its success closes
     the breaker *)
  Unix.sleepf 1.2;
  Cl.send conn (quick_req 2);
  let probe = expect_result conn "half-open probe" in
  check_true "probe certifies" (V.equal probe.P.verdict V.Certified);
  let s = stats conn in
  check_true "breaker closed again" (s.P.breakers = "sst_3=closed");
  check_true "both crashes counted" (s.P.worker_deaths = 2);
  Cl.close conn

(* The first sst_3 test sentence the model misclassifies. *)
let misclassified_index () =
  Zoo.data_dir := "../data";
  let model = Zoo.load_or_train ~log:ignore "sst_3" in
  let program = Nn.Model.to_ir model in
  let corpus = Zoo.corpus_of (Zoo.entry "sst_3").Zoo.corpus in
  let rec find i = function
    | [] -> Alcotest.fail "sst_3 classifies every test sentence"
    | (toks, label) :: rest ->
        if Nn.Forward.predict program (Nn.Model.embed_tokens model toks) <> label
        then i
        else find (i + 1) rest
  in
  find 0 corpus.Text.Corpus.test

(* A misclassified sentence is falsified by the engine's concrete check,
   and the stats rung histogram counts that attempt like any other. *)
let test_daemon_misclassified_index () =
  if not have_model then () else
  let idx = misclassified_index () in
  with_tmp "concrete" @@ fun base ->
  let socket = base ^ ".sock" in
  let pid = start_daemon socket in
  Fun.protect ~finally:(fun () -> stop_daemon pid) @@ fun () ->
  let conn = Cl.connect_retry ~timeout_s:60.0 socket in
  Cl.send conn (req idx);
  let r = expect_result conn "misclassified sentence" in
  check_true
    (Printf.sprintf "sentence %d: falsified@concrete in 1 attempt, got %s@%s in %d"
       idx (V.to_string r.P.verdict) r.P.rung r.P.attempts)
    (V.equal r.P.verdict V.Falsified && r.P.rung = "concrete" && r.P.attempts = 1);
  let s = stats conn in
  check_true
    (Printf.sprintf "stats rungs %S count the concrete attempt" s.P.rungs)
    (s.P.rungs = "concrete=1");
  Cl.close conn

let test_daemon_deadline_sigterm () =
  if not have_model then () else
  with_tmp "sigterm" @@ fun base ->
  let socket = base ^ ".sock" and journal = base ^ ".jsonl" in
  let pool =
    Deept.Config.pool ~workers:1 ~hard_deadline_s:0.3 ~grace_s:3.0 ()
  in
  (* threshold 1: were the kill counted as a crash, the next request
     would be quarantined *)
  let pid = start_daemon ~journal ~pool ~breaker_threshold:1 socket in
  Fun.protect ~finally:(fun () -> stop_daemon pid) @@ fun () ->
  let conn = Cl.connect_retry ~timeout_s:60.0 socket in
  Cl.send conn (req ~drill_stall_s:10.0 0);
  let r = expect_result conn "stall drill" in
  check_true "overrun ends worker-killed"
    (V.equal r.P.verdict (V.Unknown V.Worker_killed));
  check_true "deadline kills are not retried" (r.P.retries = 0);
  check_true
    (Printf.sprintf "the SIGTERM ended it (%.3fs), not the SIGKILL after grace"
       r.P.wall_s)
    (r.P.wall_s < 1.0);
  check_true "journal detail SIGTERM" (journal_detail journal r.P.id = "SIGTERM");
  Cl.send conn (quick_req 1);
  let next = expect_result conn "request after the kill" in
  check_true "the next request certifies" (V.equal next.P.verdict V.Certified);
  Cl.close conn

(* The daemon's only worker, found through the kernel's child list. *)
let daemon_worker pid =
  let path = Printf.sprintf "/proc/%d/task/%d/children" pid pid in
  let ic = open_in path in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  match List.filter (( <> ) "") (String.split_on_char ' ' line) with
  | [ w ] -> int_of_string w
  | ws -> Alcotest.failf "expected one worker, found %d" (List.length ws)

let test_daemon_idle_worker_kill () =
  if not have_model then () else
  with_tmp "idlekill" @@ fun base ->
  let socket = base ^ ".sock" in
  let pid = start_daemon socket in
  Fun.protect ~finally:(fun () -> stop_daemon pid) @@ fun () ->
  let conn = Cl.connect_retry ~timeout_s:60.0 socket in
  check_true "one worker up" ((stats conn).P.workers = 1);
  let w = daemon_worker pid in
  Unix.kill w Sys.sigkill;
  Helpers.wait_dead w;
  Cl.send conn (quick_req 0);
  let r = expect_result conn "request after an idle death" in
  check_true "certifies" (V.equal r.P.verdict V.Certified);
  check_true "the idle death cost the job no retry" (r.P.retries = 0);
  check_true "one death counted" ((stats conn).P.worker_deaths = 1);
  Cl.close conn

let test_daemon_pool_topped_up () =
  if not have_model then () else
  with_tmp "topup" @@ fun base ->
  let socket = base ^ ".sock" in
  let pid = start_daemon ~pool:(Deept.Config.pool ~workers:4 ()) socket in
  Fun.protect ~finally:(fun () -> stop_daemon pid) @@ fun () ->
  let conn = Cl.connect_retry ~timeout_s:60.0 socket in
  let s = stats conn in
  check_true
    (Printf.sprintf "all 4 workers up at the first stats (%d)" s.P.workers)
    (s.P.workers = 4);
  Cl.close conn

let () =
  Alcotest.run "service"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round-trip" `Quick test_request_round_trip;
          Alcotest.test_case "response round-trip" `Quick
            test_response_round_trip;
          Alcotest.test_case "intake round-trip" `Quick test_intake_round_trip;
          Alcotest.test_case "rejects malformed" `Quick test_protocol_rejects;
          Alcotest.test_case "verdict of_string_res" `Quick
            test_verdict_of_string_res;
        ] );
      ( "jobq",
        [
          Alcotest.test_case "shed and requeue" `Quick test_jobq_shed_and_requeue;
          Alcotest.test_case "retry-after hint" `Quick test_jobq_retry_after;
          Alcotest.test_case "default hint before first sample" `Quick
            test_jobq_default_hint;
        ] );
      ( "breaker",
        [ Alcotest.test_case "open/half-open/close" `Quick test_breaker_schedule ]
      );
      ( "cache",
        [
          Alcotest.test_case "key discriminates" `Quick
            test_cache_key_discriminates;
          Alcotest.test_case "policy key pinned" `Quick test_policy_key_pinned;
          Alcotest.test_case "store/find" `Quick test_cache_store_find;
          Alcotest.test_case "absorb from journal" `Quick test_cache_absorb;
        ] );
      ( "backoff",
        [ Alcotest.test_case "jitter bounds" `Quick test_backoff_bounds ] );
      ( "intake",
        [ Alcotest.test_case "torn tail" `Quick test_intake_torn_tail ] );
      ( "daemon",
        [
          Alcotest.test_case "cache bit-identical" `Slow
            test_daemon_cache_bit_identical;
          Alcotest.test_case "sigterm drains" `Slow test_daemon_sigterm_drains;
          Alcotest.test_case "sigkill + resume" `Slow test_daemon_sigkill_resume;
          Alcotest.test_case "fresh start over an old journal" `Slow
            test_daemon_fresh_over_old_journal;
          Alcotest.test_case "rid dedup" `Slow test_daemon_rid_dedup;
          Alcotest.test_case "rid dedup across resume" `Slow
            test_daemon_rid_dedup_resume;
          Alcotest.test_case "client session reconnect" `Slow
            test_client_session_reconnect;
          Alcotest.test_case "crash retry + breaker" `Slow
            test_daemon_crash_path;
          Alcotest.test_case "deadline kill ends at SIGTERM" `Slow
            test_daemon_deadline_sigterm;
          Alcotest.test_case "idle worker kill" `Slow
            test_daemon_idle_worker_kill;
          Alcotest.test_case "pool topped up at start" `Slow
            test_daemon_pool_topped_up;
          Alcotest.test_case "misclassified index falsified@concrete" `Slow
            test_daemon_misclassified_index;
        ] );
    ]
