(* End-to-end benchmark of the certifier: four seeded workloads, each
   measured from outside through the public calls of one or more layers
   (Certify, Engine, Supervisor, the Interp.sink trace hook and the
   certifyd socket).

     dune exec --root . ./bench/e2e/e2e.exe -- --workload radius-fast --seed 1 --trace 0
     dune exec --root . ./bench/e2e/e2e.exe -- --quick   # every workload, checks only

   The metric names and units come from BENCHMARK.json (--spec): an
   untraced run (--trace 0) prints its end_to_end metrics, a traced run
   (--trace 1) its per_layer metrics, where a layer the workload never
   reaches reads 0. The last line of standard output is the result
   object; the exit status is 1 when a correctness check failed. *)

let workloads =
  [
    ("radius-fast", Radius_fast.run);
    ("t1-precise", T1_precise.run);
    ("batch-ladder", Batch_ladder.run);
    ("serve-open", Serve_open.run);
  ]

(* (name, unit) of the end_to_end or per_layer list of the spec *)
let metric_list spec key =
  List.map
    (fun m -> (Json.to_string (Json.member "name" m), Json.to_string (Json.member "unit" m)))
    (Json.to_list (Json.member key spec))

let result_line ~expected (o : Harness.outcome) ~per_layer =
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n expected) then failwith ("metric " ^ n ^ " is not in the spec"))
    o.Harness.metrics;
  let value n =
    match List.assoc_opt n o.Harness.metrics with
    | Some v -> v
    | None when per_layer -> 0.0
    | None -> failwith ("the workload did not measure " ^ n)
  in
  Json.show
    (Json.Obj
       [
         ("correct", Json.Bool (o.Harness.problems = []));
         ("attempted", Json.Num (float_of_int o.Harness.attempted));
         ("failed", Json.Num (float_of_int o.Harness.failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (n, u) ->
                  (n, Json.Obj [ ("value", Json.Num (value n)); ("unit", Json.Str u) ]))
                expected) );
       ])

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 25 and trace = ref 0 in
  let quick = ref false and data = ref "data" and spec = ref "BENCHMARK.json" in
  let dir = ref "_e2e" and setup_sample = ref "" and speed_sample = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  one of the workloads (default: all of them)");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S  length of the measured phase (default 25)");
      ("--trace", Arg.Set_int trace, "0|1  1: traced run, per-layer metrics (default 0)");
      ("--quick", Arg.Set quick, "  smoke run: a few queries per workload, checks only");
      ("--data", Arg.Set_string data, "DIR  model directory (default data)");
      ("--spec", Arg.Set_string spec, "PATH  metric list (default BENCHMARK.json)");
      ("--dir", Arg.Set_string dir, "DIR  run directory for sockets and traces (default _e2e)");
      ( "--setup-sample",
        Arg.Set_string setup_sample,
        "MODELS  load these comma-separated models, print the seconds it took and exit" );
      ( "--speed-sample",
        Arg.Set speed_sample,
        "  time the machine-speed reference loop, print the seconds it took and exit" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]";
  if !speed_sample then begin
    Printf.printf "%h\n" (Speed.measure ());
    exit 0
  end;
  Zoo.data_dir := !data;
  if !setup_sample <> "" then begin
    let t0 = Unix.gettimeofday () in
    ignore (Harness.load_all (String.split_on_char ',' !setup_sample));
    Printf.printf "%h\n" (Unix.gettimeofday () -. t0);
    exit 0
  end;
  let chosen =
    if !workload = "" then workloads
    else
      match List.assoc_opt !workload workloads with
      | Some run -> [ (!workload, run) ]
      | None ->
          prerr_endline ("e2e: unknown workload " ^ !workload);
          exit 2
  in
  let spec = Json.of_file !spec in
  let per_layer = !trace = 1 in
  let expected = metric_list spec (if per_layer then "per_layer" else "end_to_end") in
  (* Everything a run writes — sockets, the daemon journal, the shared
     memory arena's backing file, traces — stays in the run directory. *)
  if not (Sys.file_exists !dir) then Sys.mkdir !dir 0o755;
  Filename.set_temp_dir_name !dir;
  Unix.putenv "TMPDIR" !dir;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let ok =
    List.for_all Fun.id
      (List.map
         (fun (name, run) ->
           let ctx =
             {
               Harness.workload = name;
               seed = !seed;
               seconds = float_of_int !seconds;
               trace = per_layer;
               quick = !quick;
               dir = !dir;
             }
           in
           let o = run ctx in
           List.iter print_endline o.Harness.report;
           Printf.printf "digest %s seed %d: %s\n" name !seed o.Harness.digest;
           if per_layer then begin
             let path = Filename.concat !dir (Printf.sprintf "TRACE_%s.jsonl" name) in
             Trace.write_jsonl path o.Harness.spans;
             Printf.printf "trace: %d spans in %s\n" (List.length o.Harness.spans) path;
             Trace.pp_summary stdout (Trace.summary o.Harness.spans)
           end;
           List.iter
             (fun p -> Printf.eprintf "e2e %s: CHECK FAILED: %s\n" name p)
             o.Harness.problems;
           print_endline (result_line ~expected o ~per_layer);
           flush stdout;
           o.Harness.problems = [])
         chosen)
  in
  exit (if ok then 0 else 1)
