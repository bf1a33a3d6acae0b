(* The injectable syscall shim: plan grammar round-trips, the
   disabled-shim fast path, deterministic injection of short writes,
   EINTR storms and errnos, op/site filtering, the enumeration
   recorder, and — in forked children — Torn/Crash actually killing
   the process with exactly the promised bytes on disk. *)

module S = Deept.Sysio

let check_true = Helpers.check_true

let tmp_path =
  let n = ref 0 in
  fun name ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "deept-sysio-test-%d-%d-%s" (Unix.getpid ()) !n name)

let with_file name f =
  let path = tmp_path name in
  Fun.protect
    ~finally:(fun () ->
      S.disarm ();
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_wr path f =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f fd)

(* ---------------- plan grammar ---------------- *)

let test_plan_round_trip () =
  List.iter
    (fun p ->
      let s = S.plan_to_string p in
      match S.plan_of_string s with
      | Ok p' -> check_true ("round-trip " ^ s) (p = p')
      | Error e -> Alcotest.failf "plan_of_string %s: %s" s e)
    [
      S.plan ~nth:0 S.Crash;
      S.plan ~nth:12 (S.Torn 9);
      S.plan ~nth:3 ~site:"journal.append" (S.Torn 0);
      S.plan ~nth:0 ~op:S.Write ~persist:true (S.Short 7);
      S.plan ~nth:5 ~site:"intake" (S.Err Unix.ENOSPC);
      S.plan ~nth:2 ~op:S.Send (S.Err Unix.ECONNRESET);
      S.plan ~nth:1 (S.Eintr 5);
      S.plan ~nth:4 ~op:S.Fsync ~site:"journal" (S.Err Unix.EIO);
    ]

let test_plan_rejects () =
  List.iter
    (fun s ->
      match S.plan_of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed plan %S" s
      | Error e -> check_true (s ^ " rejection explains") (String.length e > 0))
    [
      ""; "crash"; "@3"; "crash@"; "crash@-1"; "crash@x"; "torn@3";
      "torn:-1@3"; "short:0@1"; "eintr:0@1"; "ebogus@2"; "crash@2:persist";
      "torn:4@2:persist"; "eintr:3@0:persist"; "crash@1:op=bogus";
      "crash@1:op=rename"; "crash@1:op=close"; "crash@1:flavor=x";
      "short:2@1:op="; "enospc@1:site=";
    ];
  List.iter
    (fun f ->
      check_true "constructor rejects invalid plan"
        (match f () with
        | (_ : S.plan) -> false
        | exception Invalid_argument _ -> true))
    [
      (fun () -> S.plan ~nth:(-1) S.Crash);
      (fun () -> S.plan ~nth:0 (S.Short 0));
      (fun () -> S.plan ~nth:0 (S.Eintr 0));
      (fun () -> S.plan ~nth:0 (S.Torn (-1)));
      (fun () -> S.plan ~nth:0 ~persist:true S.Crash);
      (fun () -> S.plan ~nth:0 ~persist:true (S.Eintr 2));
    ]

(* ---------------- disabled shim ---------------- *)

let test_off_is_direct () =
  with_file "off" @@ fun path ->
  S.disarm ();
  check_true "not armed" (not (S.armed ()));
  with_wr path (fun fd ->
      S.write_string ~site:"t.off" fd "hello";
      S.fsync ~site:"t.off" fd);
  check_true "bytes written" (read_file path = "hello");
  check_true "nothing counted when off" (S.ops () = 0)

(* ---------------- injection below the retry loops ---------------- *)

let test_short_persist_completes () =
  with_file "short" @@ fun path ->
  S.arm (S.plan ~nth:0 ~op:S.Write ~persist:true (S.Short 3));
  with_wr path (fun fd ->
      S.write_string ~site:"t.short" fd "abcdefghij");
  S.disarm ();
  check_true "write_all loops short writes to completion"
    (read_file path = "abcdefghij")

let test_eintr_storm_completes () =
  with_file "eintr" @@ fun path ->
  S.arm (S.plan ~nth:0 (S.Eintr 5));
  with_wr path (fun fd ->
      S.write_string ~site:"t.eintr" fd "payload";
      S.fsync ~site:"t.eintr" fd);
  S.disarm ();
  check_true "EINTR storm restarted below the caller"
    (read_file path = "payload")

let test_err_raises_then_recovers () =
  with_file "enospc" @@ fun path ->
  S.arm (S.plan ~nth:1 ~op:S.Write (S.Err Unix.ENOSPC));
  with_wr path (fun fd ->
      S.write_string ~site:"t.err" fd "one.";
      check_true "second write hits injected ENOSPC"
        (match S.write_string ~site:"t.err" fd "two." with
        | () -> false
        | exception Unix.Unix_error (Unix.ENOSPC, _, "t.err") -> true
        | exception _ -> false);
      (* one-shot plan: the fault does not repeat after firing *)
      S.write_string ~site:"t.err" fd "three.");
  S.disarm ();
  check_true "writes around the fault landed"
    (read_file path = "one.three.")

let test_site_and_op_filters () =
  with_file "filter" @@ fun path ->
  (* the fault counts only ops whose site matches; others pass through *)
  S.arm (S.plan ~nth:0 ~site:"journal" (S.Err Unix.EIO));
  with_wr path (fun fd ->
      S.write_string ~site:"intake.append" fd "a";
      check_true "matching site faults"
        (match S.write_string ~site:"journal.append" fd "b" with
        | () -> false
        | exception Unix.Unix_error (Unix.EIO, _, _) -> true));
  (* op filter: a Send-class fault never touches file writes *)
  S.arm (S.plan ~nth:0 ~op:S.Send ~persist:true (S.Err Unix.EPIPE));
  with_wr path (fun fd -> S.write_string ~site:"journal.append" fd "c");
  S.disarm ();
  check_true "op filter let the file write through" (read_file path = "c")

(* ---------------- recorder ---------------- *)

let test_recorder_events () =
  with_file "record" @@ fun path ->
  let evs = ref [] in
  S.record (fun e -> evs := e :: !evs);
  with_wr path (fun fd ->
      S.write_string ~site:"t.rec.w" fd "12345";
      S.fsync ~site:"t.rec.f" fd;
      S.send_string ~site:"t.rec.s" fd "678");
  let evs = List.rev !evs in
  S.disarm ();
  check_true "three events" (List.length evs = 3);
  check_true "indices are dense"
    (List.mapi (fun i _ -> i) evs = List.map (fun e -> e.S.index) evs);
  (match evs with
  | [ w; f; s ] ->
      check_true "write event" (w.S.eop = S.Write && w.S.esite = "t.rec.w" && w.S.len = 5);
      check_true "fsync event" (f.S.eop = S.Fsync && f.S.esite = "t.rec.f" && f.S.len = 0);
      check_true "send event" (s.S.eop = S.Send && s.S.esite = "t.rec.s" && s.S.len = 3)
  | _ -> Alcotest.fail "event shape");
  check_true "ops() counted them" (S.ops () = 0) (* disarm cleared it *)

(* ---------------- death actions, observed from a parent ----------- *)

(* run [f] in a forked child; return (status, file contents) *)
let in_child path f =
  match Unix.fork () with
  | 0 ->
      (try f (); exit 0 with _ -> exit 1)
  | pid ->
      let _, st = Unix.waitpid [] pid in
      S.disarm ();
      (st, if Sys.file_exists path then read_file path else "")

let test_torn_write_kills_with_prefix () =
  with_file "torn" @@ fun path ->
  let st, got =
    in_child path (fun () ->
        S.arm (S.plan ~nth:1 ~op:S.Write (S.Torn 4));
        with_wr path (fun fd ->
            S.write_string ~site:"t.torn" fd "intact\n";
            S.write_string ~site:"t.torn" fd "never-lands\n";
            (* unreachable: the torn write SIGKILLs the process *)
            S.write_string ~site:"t.torn" fd "after\n"))
  in
  check_true "child died by SIGKILL"
    (match st with Unix.WSIGNALED s -> s = Sys.sigkill | _ -> false);
  check_true "exactly the torn prefix persisted" (got = "intact\nneve")

let test_crash_kills_before_op () =
  with_file "crash" @@ fun path ->
  let st, got =
    in_child path (fun () ->
        S.arm (S.plan ~nth:0 ~op:S.Fsync S.Crash);
        with_wr path (fun fd ->
            S.write_string ~site:"t.crash" fd "written\n";
            S.fsync ~site:"t.crash" fd))
  in
  check_true "child died by SIGKILL"
    (match st with Unix.WSIGNALED s -> s = Sys.sigkill | _ -> false);
  (* the write preceding the crashed fsync is in the page cache, which
     a SIGKILL does not empty — the bytes survive *)
  check_true "pre-crash write survived (page cache)" (got = "written\n")

(* ---------------- through a real durability client ---------------- *)

let test_journal_survives_injected_fault () =
  let path = tmp_path "journal" in
  Fun.protect
    ~finally:(fun () ->
      S.disarm ();
      List.iter
        (fun e -> try Sys.remove (path ^ e) with Sys_error _ -> ())
        [ ""; ".tmp" ])
  @@ fun () ->
  let module J = Deept.Journal in
  let entry i =
    {
      J.job = i;
      verdict = Deept.Verdict.Certified;
      rung = "fast";
      attempts = 1;
      retries = 0;
      wall_s = 0.01;
      detail = "";
    }
  in
  let j = J.create path in
  J.append j (entry 1);
  S.arm (S.plan ~nth:0 ~site:"journal.append" (S.Err Unix.ENOSPC));
  check_true "journal append surfaces injected ENOSPC"
    (match J.append j (entry 2) with
    | () -> false
    | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> true);
  S.disarm ();
  J.append j (entry 3);
  let jobs = List.map (fun e -> e.J.job) (J.load path) in
  check_true "entries around the fault are intact and in order"
    (jobs = [ 1; 3 ] || jobs = [ 1; 2; 3 ])

let () =
  Alcotest.run "sysio"
    [
      ( "plan",
        [
          Alcotest.test_case "round-trip" `Quick test_plan_round_trip;
          Alcotest.test_case "rejects malformed" `Quick test_plan_rejects;
        ] );
      ( "shim",
        [
          Alcotest.test_case "off is direct" `Quick test_off_is_direct;
          Alcotest.test_case "short+persist completes" `Quick
            test_short_persist_completes;
          Alcotest.test_case "eintr storm completes" `Quick
            test_eintr_storm_completes;
          Alcotest.test_case "err raises then recovers" `Quick
            test_err_raises_then_recovers;
          Alcotest.test_case "site and op filters" `Quick
            test_site_and_op_filters;
          Alcotest.test_case "recorder events" `Quick test_recorder_events;
        ] );
      ( "death",
        [
          Alcotest.test_case "torn write" `Quick test_torn_write_kills_with_prefix;
          Alcotest.test_case "crash before op" `Quick test_crash_kills_before_op;
        ] );
      ( "clients",
        [
          Alcotest.test_case "journal fault injection" `Quick
            test_journal_survives_injected_fault;
        ] );
    ]
