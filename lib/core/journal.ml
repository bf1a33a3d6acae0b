(* ---------------- the append-only log ----------------

   One line per record, appended with one write and one fsync, so the
   cost of a record is O(1) however long the log grows. The price of
   in-place appends is that a kill can tear the final write after any
   byte. Since every write is [line ^ "\n"], a torn one never ends in a
   newline: the bytes after the last newline are exactly the torn tail,
   and a terminated line that does not decode is corruption. *)

module Log = struct
  type t = { fd : Unix.file_descr; append_site : string; fsync_site : string }

  (* Best effort: a directory that cannot be opened or fsynced (an
     exotic fs) does not stop the log. *)
  let fsync_dir ~site dir =
    match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
    | exception Unix.Unix_error _ -> ()
    | fd ->
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () -> try Sysio.fsync ~site fd with Unix.Unix_error _ -> ())

  (* Cut the file to [len] bytes, durably. *)
  let cut ~site fd len =
    Sysio.ftruncate ~site:(site ^ ".truncate") fd len;
    Sysio.fsync ~site:(site ^ ".truncate") fd

  let open_append ~site path =
    let fd =
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
    in
    { fd; append_site = site ^ ".append"; fsync_site = site ^ ".fsync" }

  let fresh ~site path =
    let t = open_append ~site path in
    cut ~site t.fd 0;
    fsync_dir ~site:(site ^ ".dir") (Filename.dirname path);
    t

  (* The records of every newline-terminated line, and the length of
     that committed prefix of the file and of the torn tail after it. *)
  let read ~decode path =
    let content = In_channel.with_open_bin path In_channel.input_all in
    let committed =
      match String.rindex_opt content '\n' with Some i -> i + 1 | None -> 0
    in
    let records =
      String.split_on_char '\n' (String.sub content 0 committed)
      |> List.mapi (fun i line -> (i + 1, line))
      |> List.filter_map (fun (lineno, line) ->
             if String.trim line = "" then None
             else
               match decode line with
               | Ok r -> Some r
               | Error msg ->
                   failwith (Printf.sprintf "Journal.Log: %s:%d: %s" path lineno msg))
    in
    (records, committed, String.length content - committed)

  let load ~decode path =
    let records, _, torn = read ~decode path in
    if torn > 0 then
      Printf.eprintf "%s: warning: skipping a torn tail of %d byte(s)\n%!" path torn;
    records

  let resume ~site ~decode path =
    let records, committed, torn =
      if Sys.file_exists path then read ~decode path else ([], 0, 0)
    in
    let t = open_append ~site path in
    if torn > 0 then begin
      Printf.eprintf "%s: warning: cutting a torn tail of %d byte(s)\n%!" path torn;
      cut ~site t.fd committed
    end;
    fsync_dir ~site:(site ^ ".dir") (Filename.dirname path);
    (t, records)

  (* One unbuffered write per line through the Sysio shim: partial
     writes are looped, EINTR restarted, and the chaos layer can tear
     or fail the append at any byte (see Sysio / bin/crashprobe). *)
  let append t line =
    Sysio.write_string ~site:t.append_site t.fd (line ^ "\n");
    Sysio.fsync ~site:t.fsync_site t.fd

  let descr t = t.fd
  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
end

(* ---------------- the result journal ---------------- *)

type entry = {
  job : int;
  verdict : Verdict.t;
  rung : string;
  attempts : int;
  retries : int;
  wall_s : float;
  detail : string;
}

let to_json e =
  Printf.sprintf
    "{\"job\":%d,\"verdict\":\"%s\",\"rung\":\"%s\",\"attempts\":%d,\"retries\":%d,\"wall_s\":%.6f,\"detail\":\"%s\"}"
    e.job
    (Jsonl.escape (Verdict.to_string e.verdict))
    (Jsonl.escape e.rung) e.attempts e.retries e.wall_s (Jsonl.escape e.detail)

let of_json line =
  let ( let* ) = Result.bind in
  let* fields = Jsonl.parse line in
  let* () =
    Jsonl.known fields
      [ "job"; "verdict"; "rung"; "attempts"; "retries"; "wall_s"; "detail" ]
  in
  let* job = Jsonl.int fields "job" in
  let* vs = Jsonl.str fields "verdict" in
  let* rung = Jsonl.str fields "rung" in
  let* attempts = Jsonl.int fields "attempts" in
  let* retries = Jsonl.int fields "retries" in
  let* wall_s = Jsonl.num fields "wall_s" in
  let* detail = Jsonl.str fields "detail" in
  let* verdict = Verdict.of_string_res vs in
  Ok { job; verdict; rung; attempts; retries; wall_s; detail }

type t = {
  log : Log.t;
  mutable rev_entries : entry list;  (* newest first *)
  ids : (int, unit) Hashtbl.t;
}

let log j = j.log
let entries j = List.rev j.rev_entries
let journaled j id = Hashtbl.mem j.ids id

let of_entries log es =
  let ids = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace ids e.job ()) es;
  { log; rev_entries = List.rev es; ids }

let create path = of_entries (Log.fresh ~site:"journal" path) []

let resume path =
  (* Journals written before the append-only rewrite could leave a stale
     temp file from their tmp+rename discipline; still clean it up. *)
  (try Sys.remove (path ^ ".tmp") with Sys_error _ -> ());
  let log, es = Log.resume ~site:"journal" ~decode:of_json path in
  of_entries log es

let load path = Log.load ~decode:of_json path

let append j e =
  if journaled j e.job then
    invalid_arg
      (Printf.sprintf "Journal.append: job %d already journaled" e.job);
  Log.append j.log (to_json e);
  j.rev_entries <- e :: j.rev_entries;
  Hashtbl.replace j.ids e.job ()
