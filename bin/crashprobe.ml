(* crashprobe — exhaustive crash-consistency checking for certifyd.

   The hand-picked kill points of the recovery drills prove the daemon
   survives the crashes someone thought of. This tool removes the
   "thought of": it runs a scripted workload against a recording daemon
   to enumerate every durability-relevant I/O operation (Deept.Sysio's
   counting mode), then replays the same workload once per operation
   with the process dying exactly there. The crash points run twice:
   over an empty scratch dir, and as a fresh start (not --resume) over
   a previous run's files, whose ids collide with this run's. Then
   every torn-write prefix of the first and last journal and intake
   lines (a torn first line is followed by later appends), plus soft
   fault plans (short writes, EINTR storms, ENOSPC) that must be
   survived outright. After each simulated crash the daemon is
   restarted with --resume, every request is re-sent under its
   original idempotency rid, and the invariants are checked from the
   files:

     - no accepted job lost: every intaken id reaches the final journal
       under that request's own cache key;
     - no result delivered twice: a rid answered before the crash is
       answered after it by a cached replay with the identical verdict;
     - dedup is durable: at most one intake line per rid, unique ids;
     - the resume re-enqueue set is exactly intake minus journal;
     - the rebuilt result cache agrees with the final journal.

       crashprobe --data data --bounded        # CI-sized matrix
       crashprobe --data data --exhaustive     # every op, every prefix *)

open Cmdliner
module P = Service.Protocol
module Cl = Service.Client
module J = Deept.Journal
module V = Deept.Verdict
module Sysio = Deept.Sysio

type cfg = {
  data : string;
  model : string;
  digest : string;  (** the served model's digest, as in its cache keys *)
  jobs : int;
  dir : string;
  exhaustive : bool;
  verbose : bool;
}

let socket_of cfg = Filename.concat cfg.dir "probe.sock"
let journal_of cfg = Filename.concat cfg.dir "probe.jsonl"
let intake_of cfg = journal_of cfg ^ ".intake"
let trace_of cfg = Filename.concat cfg.dir "probe.trace"
let rlog_of cfg = Filename.concat cfg.dir "probe.resume.log"

let rid_of k = Printf.sprintf "probe-%d" k

(* Distinct radii per request: no cache hits, so every job really runs
   and the op sequence of the counting run is the reference. [gen 1] is
   the previous run's workload: other sentences and radii, same ids. *)
let mk ?(gen = 0) cfg k =
  let rid = if gen = 0 then rid_of k else Printf.sprintf "previous-%d" k in
  P.certify ~tag:k ~rid ~model:cfg.model
    ~radius:(0.0005 *. float_of_int (k + 1 + (gen * cfg.jobs)))
    (P.Index (k + (gen * cfg.jobs)))

let failures : string list ref = ref []
let fail_inv label msg = failures := Printf.sprintf "%s: %s" label msg :: !failures
let check label cond msg = if not cond then fail_inv label msg

(* ---------------- daemon lifecycle ---------------- *)

type mode = Record | Chaos of Sysio.plan | Clean

let start_daemon cfg ~resume ~mode =
  match Unix.fork () with
  | 0 -> (
      try
        Zoo.data_dir := cfg.data;
        (match mode with
        | Record ->
            (* the recorder writes through Stdlib channels, not Sysio,
               so tracing does not perturb the op count *)
            let oc = open_out (trace_of cfg) in
            Sysio.record (fun e ->
                Printf.fprintf oc "%d %s %s %d\n" e.Sysio.index
                  (Sysio.op_name e.Sysio.eop) e.Sysio.esite e.Sysio.len;
                flush oc)
        | Chaos p -> Sysio.arm p
        | Clean -> ());
        let log =
          if resume then (
            let oc = open_out (rlog_of cfg) in
            fun s ->
              output_string oc (s ^ "\n");
              flush oc)
          else fun _ -> ()
        in
        Service.Server.run
          (Service.Server.opts
             ~pool:(Deept.Config.pool ~workers:1 ())
             ~journal:(journal_of cfg) ~resume ~log ~socket:(socket_of cfg)
             [ cfg.model ]);
        exit 0
      with
      | Unix.Unix_error (e, fn, arg) ->
          (* an injected errno (ENOSPC, EIO) escaping the loop is the
             intended loud death — distinguishable from a crash *)
          Printf.eprintf "crashprobe daemon: %s in %s(%s)\n%!"
            (Unix.error_message e) fn arg;
          exit 9
      | _ -> exit 1)
  | pid -> pid

(* A watchdog alarm SIGKILLs the current daemon if any phase wedges, so
   a chaos-induced hang fails the matrix instead of hanging CI. *)
let current_child = ref (-1)

let install_watchdog () =
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         if !current_child > 0 then
           try Unix.kill !current_child Sys.sigkill
           with Unix.Unix_error _ -> ()))

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _, st -> st
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* [f] gets [exited], which tells whether the daemon has died yet. *)
let with_daemon cfg ~resume ~mode f =
  let pid = start_daemon cfg ~resume ~mode in
  current_child := pid;
  ignore (Unix.alarm 120);
  let status = ref None in
  let exited () =
    (if !status = None then
       match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ -> ()
       | _, st -> status := Some st
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    !status <> None
  in
  let reap () =
    let st = match !status with Some st -> st | None -> waitpid_retry pid in
    ignore (Unix.alarm 0);
    current_child := -1;
    st
  in
  let r = try f exited with e -> ignore (reap ()); raise e in
  (r, reap ())

(* ---------------- workload phases ---------------- *)

(* Connect once the daemon's socket accepts; [None] if the daemon dies
   first (a crash point before it binds) or never binds. *)
let connect cfg ~exited =
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec go () =
    match Cl.connect (socket_of cfg) with
    | conn -> Some conn
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when (not (exited ())) && Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        go ()
    | exception Unix.Unix_error _ -> None
  in
  go ()

(* Strictly sequential (send k, await k): the daemon's op order is then
   a deterministic function of the workload, which is what makes the
   recorded indices valid crash points. Returns the results delivered
   before the daemon died (all of them, on a clean run). *)
let run_workload ?gen cfg exited =
  match connect cfg ~exited with
  | None -> []
  | Some conn ->
      let delivered = ref [] in
      (try
         for k = 0 to cfg.jobs - 1 do
           Cl.send conn (P.Certify (mk ?gen cfg k));
           match Cl.recv conn with
           | Some (P.Result r) -> delivered := (k, r) :: !delivered
           | Some _ | None -> raise Exit
         done;
         ignore (Cl.request conn P.Shutdown)
       with _ -> ());
      Cl.close conn;
      List.rev !delivered

(* Re-send every request under its original rid; correlate by tag (a
   replay answers immediately, a re-attached live job on completion). *)
let resend_workload cfg conn =
  for k = 0 to cfg.jobs - 1 do
    Cl.send conn (P.Certify (mk cfg k))
  done;
  let seen = Hashtbl.create 8 in
  (try
     for _ = 1 to cfg.jobs do
       match Cl.recv conn with
       | Some (P.Result r) -> (
           match r.P.tag with
           | Some k -> Hashtbl.add seen k r
           | None -> raise Exit)
       | Some _ | None -> raise Exit
     done;
     ignore (Cl.request conn P.Shutdown)
   with _ -> ());
  seen

(* ---------------- file oracles ---------------- *)

let read_lines path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in_bin path in
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file -> List.rev acc
    in
    let ls = go [] in
    close_in ic;
    List.filter (fun l -> String.trim l <> "") ls
  end

(* The committed records of a log, read the way the daemon reads them:
   a torn tail is not counted (resume cuts it); a terminated line that
   does not decode is an invariant violation. *)
let load_log ~label ~decode path =
  if not (Sys.file_exists path) then []
  else
    match J.Log.load ~decode path with
    | records -> records
    | exception Failure msg ->
        fail_inv label msg;
        []

let intake_records ~label cfg =
  load_log ~label ~decode:P.intake_of_json (intake_of cfg)

let journal_entries ~label cfg = load_log ~label ~decode:J.of_json (journal_of cfg)

let resume_requeued cfg =
  List.fold_left
    (fun acc line ->
      match Scanf.sscanf line "resume: re-enqueued %d" (fun n -> n) with
      | n -> acc + n
      | exception Scanf.Scan_failure _ | exception End_of_file -> acc)
    0
    (read_lines (rlog_of cfg))

let uniq l = List.sort_uniq compare l
let diff a b = List.filter (fun x -> not (List.mem x b)) a

(* ---------------- the invariants ---------------- *)

let check_final_state cfg ~label ~phase1 ~seen2 =
  (* 1. liveness: every rid answered exactly once after resume *)
  for k = 0 to cfg.jobs - 1 do
    check label
      (List.length (Hashtbl.find_all seen2 k) = 1)
      (Printf.sprintf "rid %s answered %d time(s) after resume" (rid_of k)
         (List.length (Hashtbl.find_all seen2 k)))
  done;
  (* 2. exactly-once: a result delivered before the crash is replayed,
     not recomputed — same job id, same verdict, served as cached *)
  List.iter
    (fun (k, (r1 : P.result_r)) ->
      match Hashtbl.find_opt seen2 k with
      | None -> ()
      | Some (r2 : P.result_r) ->
          check label r2.P.cached
            (Printf.sprintf "rid %s was re-run, not replayed" (rid_of k));
          check label (r2.P.id = r1.P.id)
            (Printf.sprintf "rid %s changed id %d -> %d across the crash"
               (rid_of k) r1.P.id r2.P.id);
          check label
            (V.equal r2.P.verdict r1.P.verdict)
            (Printf.sprintf "rid %s verdict changed across the crash: %s -> %s"
               (rid_of k)
               (V.to_string r1.P.verdict)
               (V.to_string r2.P.verdict)))
    phase1;
  (* 3. durability bookkeeping on the final files *)
  let recs = intake_records ~label cfg in
  let iids = List.map fst recs in
  let irids = List.filter_map (fun (_, c) -> c.P.rid) recs in
  let entries = journal_entries ~label cfg in
  let jids = List.map (fun e -> e.J.job) entries in
  check label (uniq iids = List.sort compare iids) "duplicate id in intake";
  check label (uniq irids = List.sort compare irids)
    "a rid was intaken twice (dedup hole)";
  check label (uniq jids = List.sort compare jids) "duplicate id in journal";
  (* an entry with the id is not enough: it must be this request's *)
  List.iter
    (fun (id, c) ->
      let key = "key=" ^ Service.Cache.key ~digest:cfg.digest c in
      match List.filter (fun e -> e.J.job = id) entries with
      | [] ->
          fail_inv label
            (Printf.sprintf "accepted job %d lost: intaken but never journaled" id)
      | es ->
          check label
            (List.exists (fun e -> e.J.detail = key) es)
            (Printf.sprintf "job %d journaled under another request's key (%s)"
               id (String.concat ", " (List.map (fun e -> e.J.detail) es))))
    recs;
  (* 4. the rebuilt cache agrees with the journal it came from *)
  let cache = Service.Cache.create () in
  Service.Cache.absorb cache entries;
  let expect = Hashtbl.create 16 in
  List.iter
    (fun (e : J.entry) ->
      if String.length e.J.detail > 4 && String.sub e.J.detail 0 4 = "key=" then
        let key = String.sub e.J.detail 4 (String.length e.J.detail - 4) in
        if not (V.is_fault e.J.verdict) then Hashtbl.replace expect key e)
    entries;
  Hashtbl.iter
    (fun key (e : J.entry) ->
      match Service.Cache.find cache key with
      | None -> fail_inv label ("journaled key missing from rebuilt cache: " ^ key)
      | Some ce ->
          check label
            (V.equal ce.Service.Cache.verdict e.J.verdict
            && ce.Service.Cache.rung = e.J.rung
            && ce.Service.Cache.attempts = e.J.attempts)
            ("rebuilt cache disagrees with journal for " ^ key))
    expect

(* One crash experiment: arm [plan], run the workload into the fault,
   snapshot the damage, resume, re-send, check. *)
let crash_run cfg ~label plan =
  if cfg.verbose then Printf.eprintf "crashprobe: %s\n%!" label;
  let phase1, st1 = with_daemon cfg ~resume:false ~mode:(Chaos plan) (run_workload cfg) in
  (match st1 with
  | Unix.WSIGNALED _ | Unix.WEXITED 9 -> () (* died as planned *)
  | Unix.WEXITED 0 ->
      (* the plan never fired (e.g. a crash point past the run's ops) —
         tolerated, the workload just completed *)
      ()
  | st ->
      fail_inv label
        (Printf.sprintf "daemon died unexpectedly (%s)"
           (match st with
           | Unix.WEXITED n -> Printf.sprintf "exit %d" n
           | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
           | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n)));
  (* pre-resume snapshot feeds the re-enqueue oracle *)
  let i_pre = uniq (List.map fst (intake_records ~label cfg)) in
  let p_pre = uniq (List.map (fun e -> e.J.job) (journal_entries ~label cfg)) in
  let seen2, st2 =
    with_daemon cfg ~resume:true ~mode:Clean (fun exited ->
        match connect cfg ~exited with
        | None -> Hashtbl.create 1
        | Some conn ->
            let seen = resend_workload cfg conn in
            Cl.close conn;
            seen)
  in
  check label (st2 = Unix.WEXITED 0)
    (Printf.sprintf "resume daemon did not drain cleanly (%s)"
       (match st2 with
       | Unix.WEXITED n -> Printf.sprintf "exit %d" n
       | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
       | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n));
  check label
    (resume_requeued cfg = List.length (diff i_pre p_pre))
    (Printf.sprintf "re-enqueued %d job(s), expected intake \\ journal = %d"
       (resume_requeued cfg)
       (List.length (diff i_pre p_pre)));
  check_final_state cfg ~label ~phase1 ~seen2

(* A soft plan must be survived outright: every job answered, clean
   drain, nothing lost. *)
let soft_run cfg ~label plan =
  if cfg.verbose then Printf.eprintf "crashprobe: %s\n%!" label;
  let phase1, st = with_daemon cfg ~resume:false ~mode:(Chaos plan) (run_workload cfg) in
  check label (st = Unix.WEXITED 0) "daemon did not survive the soft plan";
  check label
    (List.length phase1 = cfg.jobs)
    (Printf.sprintf "only %d/%d jobs answered under the soft plan"
       (List.length phase1) cfg.jobs)

let clean_scratch cfg =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ socket_of cfg; journal_of cfg; intake_of cfg; rlog_of cfg ]

(* ---------------- the matrix ---------------- *)

type ev = { index : int; site : string; len : int }

let read_trace cfg =
  List.map
    (fun l ->
      Scanf.sscanf l "%d %s %s %d" (fun index _op site len ->
          { index; site; len }))
    (read_lines (trace_of cfg))

let required_sites =
  [
    "journal.truncate"; "journal.append"; "journal.fsync"; "journal.dir";
    "intake.truncate"; "intake.append"; "intake.fsync"; "intake.dir";
    "server.dispatch"; "server.client_send";
  ]

let crash_points events ~exhaustive =
  if exhaustive then List.map (fun e -> e.index) events
  else begin
    (* first and last occurrence of every distinct site: both edges of
       each durability window, at matrix size O(sites) not O(ops) *)
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun e ->
        match Hashtbl.find_opt tbl e.site with
        | None -> Hashtbl.replace tbl e.site (e.index, e.index)
        | Some (f, _) -> Hashtbl.replace tbl e.site (f, e.index))
      events;
    Hashtbl.fold (fun _ (f, l) acc -> f :: l :: acc) tbl []
    |> List.sort_uniq compare
  end

let torn_prefixes len ~exhaustive =
  if exhaustive then List.init len (fun k -> k)
  else List.sort_uniq compare [ 0; 1; len / 2; len - 1 ]

let run cfg =
  install_watchdog ();
  if not (Sys.file_exists cfg.dir) then Unix.mkdir cfg.dir 0o755;
  clean_scratch cfg;

  (* phase 0: enumerate the crash points with a recording daemon *)
  let baseline, st0 = with_daemon cfg ~resume:false ~mode:Record (run_workload cfg) in
  check "baseline" (st0 = Unix.WEXITED 0) "recording run did not drain cleanly";
  check "baseline"
    (List.length baseline = cfg.jobs)
    "recording run did not answer every job";
  let events = read_trace cfg in
  check "baseline" (events <> []) "no durability operations recorded";
  let sites = uniq (List.map (fun e -> e.site) events) in
  List.iter
    (fun s ->
      check "coverage" (List.mem s sites)
        (Printf.sprintf "site %s never exercised by the workload" s))
    required_sites;

  (* phase 1: a SIGKILL at every (bounded: every interesting) op *)
  let points = crash_points events ~exhaustive:cfg.exhaustive in
  let crash_at ~over i =
    let site =
      match List.find_opt (fun e -> e.index = i) events with
      | Some e -> e.site
      | None -> "?"
    in
    crash_run cfg
      ~label:(Printf.sprintf "crash@%d(%s)%s" i site over)
      (Sysio.plan ~nth:i Sysio.Crash)
  in
  List.iter
    (fun i ->
      clean_scratch cfg;
      crash_at ~over:"" i)
    points;

  (* phase 2: the same crash points in a fresh start over a previous
     run's files. That run served other requests under the same ids, so
     a log the fresh start failed to empty answers for the wrong job. *)
  clean_scratch cfg;
  let previous, stp =
    with_daemon cfg ~resume:false ~mode:Clean (run_workload ~gen:1 cfg)
  in
  check "previous run"
    (stp = Unix.WEXITED 0 && List.length previous = cfg.jobs)
    "the previous run did not answer every job and drain cleanly";
  let saved =
    List.map
      (fun p -> (p, In_channel.with_open_bin p In_channel.input_all))
      [ journal_of cfg; intake_of cfg ]
  in
  List.iter
    (fun i ->
      clean_scratch cfg;
      List.iter
        (fun (p, bytes) ->
          Out_channel.with_open_bin p (fun oc -> output_string oc bytes))
        saved;
      crash_at ~over:"/over-previous" i)
    points;

  (* phase 3: every torn prefix of the first and last journal and intake
     lines; after a torn first line, later appends follow it *)
  let torn_targets =
    List.concat_map
      (fun site ->
        match List.filter (fun e -> e.site = site && e.len > 0) events with
        | [] -> []
        | first :: _ as es -> uniq [ first; List.nth es (List.length es - 1) ])
      [ "journal.append"; "intake.append" ]
  in
  List.iter
    (fun e ->
      List.iter
        (fun k ->
          clean_scratch cfg;
          crash_run cfg
            ~label:(Printf.sprintf "torn:%d@%d(%s)" k e.index e.site)
            (Sysio.plan ~nth:e.index (Sysio.Torn k)))
        (torn_prefixes e.len ~exhaustive:cfg.exhaustive))
    torn_targets;

  (* phase 4: soft plans the daemon must survive without losing a byte *)
  clean_scratch cfg;
  soft_run cfg ~label:"short-writes(file)"
    (Sysio.plan ~op:Sysio.Write ~persist:true ~nth:0 (Sysio.Short 1));
  clean_scratch cfg;
  soft_run cfg ~label:"short-writes(socket)"
    (Sysio.plan ~op:Sysio.Send ~persist:true ~nth:0 (Sysio.Short 3));
  clean_scratch cfg;
  soft_run cfg ~label:"eintr-storm"
    (Sysio.plan ~nth:2 (Sysio.Eintr 5));
  (* ENOSPC: loud death, then full recovery *)
  (match
     List.fold_left
       (fun acc e -> if e.site = "journal.append" then Some e else acc)
       None events
   with
  | Some e ->
      clean_scratch cfg;
      crash_run cfg
        ~label:(Printf.sprintf "enospc@%d(journal.append)" e.index)
        (Sysio.plan ~nth:e.index ~site:"journal.append" (Sysio.Err Unix.ENOSPC))
  | None -> ());
  clean_scratch cfg;

  let torn_count =
    List.fold_left
      (fun acc e ->
        acc + List.length (torn_prefixes e.len ~exhaustive:cfg.exhaustive))
      0 torn_targets
  in
  match !failures with
  | [] ->
      Printf.printf
        "crashprobe: %d op(s) enumerated, %d crash point(s) run twice (empty \
         dir, over a previous run), %d torn prefix(es) of %d line(s), 4 \
         soft plan(s): all invariants held\n"
        (List.length events) (List.length points) torn_count
        (List.length torn_targets)
  | fs ->
      List.iter (fun f -> Printf.eprintf "crashprobe: FAILED %s\n" f) fs;
      Printf.eprintf "crashprobe: %d invariant violation(s)\n" (List.length fs);
      exit 1

(* ---------------- CLI ---------------- *)

let data_arg =
  let doc = "Model directory." in
  Arg.(value & opt string "data" & info [ "data" ] ~doc)

let model_arg =
  let doc = "Zoo model for the scripted workload (small = fast matrix)." in
  Arg.(value & opt string "small_3" & info [ "model"; "m" ] ~doc)

let jobs_arg =
  let doc = "Certify requests in the scripted workload." in
  Arg.(value & opt int 3 & info [ "jobs"; "n" ] ~doc)

let dir_arg =
  let doc = "Scratch directory for sockets, journals and traces." in
  Arg.(
    value
    & opt string (Filename.concat (Filename.get_temp_dir_name ()) "crashprobe")
    & info [ "dir" ] ~doc)

let exhaustive_arg =
  let doc =
    "Crash at every enumerated operation and every torn-write prefix \
     (default: first/last op per site and 4 prefixes per line — the \
     CI-sized matrix)."
  in
  Arg.(value & flag & info [ "exhaustive" ] ~doc)

let verbose_arg =
  let doc = "Narrate each experiment on stderr." in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

let main data model jobs dir exhaustive verbose =
  if jobs < 1 then invalid_arg "crashprobe: --jobs < 1";
  Zoo.data_dir := data;
  let digest =
    match Service.Warm.find (Service.Warm.load [ model ]) model with
    | Some w -> w.Service.Warm.digest
    | None -> assert false
  in
  run { data; model; digest; jobs; dir; exhaustive; verbose }

let () =
  let info =
    Cmd.info "crashprobe"
      ~doc:
        "Enumerate certifyd's durability-relevant I/O operations and prove \
         crash consistency by simulating a crash at each one."
  in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            const main $ data_arg $ model_arg $ jobs_arg $ dir_arg
            $ exhaustive_arg $ verbose_arg)))
