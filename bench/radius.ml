(* Reproducible benchmark of the radius search: the sequential
   margin-guided search (--probes 1, on bisection's grid, reproducing
   the committed pins) vs the speculative parallel grid search (Psearch,
   fork-based probe workers) on the recorded sst_3 model — the paper's
   headline measurement loop.

     dune exec bench/radius.exe -- --data data            # table on stdout
     dune exec bench/radius.exe -- --data data --json     # + BENCH_radius.json
     dune exec bench/radius.exe -- --data data --probes 8 # wider grid arm

   Both arms search the same input (test sentence 0, word 1, l2 ball,
   iters = 10): the sequential arm must return the pinned radius, and
   the grid arm a radius that certifies with a final bracket at most as
   wide as the sequential one, or the benchmark exits non-zero — the
   gate guards correctness as well as wall-clock.
   Wall-clock is the minimum of [rounds] full searches (the search is
   seconds long and CPU-bound, so 2 rounds suffice to shed one-off
   scheduler noise). When a previous BENCH_radius.json exists it is
   rotated to BENCH_radius.prev.json so `check_regress.exe` can compare
   runs. *)

(* Sequential (probes = 1) certified radius of the benchmark input,
   captured from the pre-Psearch bisection. It is a point of
   bisection's dyadic grid, which the margin-guided search also lands
   on where certification is monotone (here with 0 + 7 probes instead
   of bisection's 1 + 10) — compared bit-for-bit: any drift means the
   default search no longer returns bisection's radius. *)
let pinned_seq_radius = 0.1474609375

type arm = {
  name : string;
  probes : int;
  wall_s : float;
  report : Deept.Certify.radius_report;
}

let measure ~rounds ~iters ~probes cfg program ~p x ~word ~true_class =
  let cfg =
    Deept.Config.with_search (Deept.Config.search ~probes ()) cfg
  in
  let run () =
    Deept.Certify.certified_radius_v cfg program ~p x ~word ~true_class ~iters
      ()
  in
  let report = ref None in
  let best = ref infinity in
  for _ = 1 to max rounds 1 do
    let t0 = Unix.gettimeofday () in
    report := Some (run ());
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  (!best, Option.get !report)

let bracket_width (r : Deept.Certify.radius_report) =
  let good, bad = r.Deept.Certify.bracket in
  bad -. good

let json_of_arm ~cores a =
  let r = a.report in
  Printf.sprintf
    "{\"name\":\"%s\",\"probes\":%d,\"wall_s\":%.3f,\"radius\":%.17g,\"bracket_width\":%.17g,\"bracket_probes\":%d,\"bisect_probes\":%d,\"rounds\":%d,\"cores\":%d}"
    a.name a.probes a.wall_s r.Deept.Certify.radius (bracket_width r)
    r.Deept.Certify.bracket_probes r.Deept.Certify.bisect_probes
    r.Deept.Certify.rounds cores

let write_json path ~cores arms =
  if Sys.file_exists path then begin
    let prev = Filename.remove_extension path ^ ".prev.json" in
    (try Sys.remove prev with Sys_error _ -> ());
    Sys.rename path prev;
    Printf.printf "rotated previous %s -> %s\n" path prev
  end;
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i a ->
      output_string oc (json_of_arm ~cores a);
      if i < List.length arms - 1 then output_string oc ",";
      output_string oc "\n")
    arms;
  output_string oc "]\n";
  close_out oc;
  Printf.printf "wrote %s\n" path

let () =
  let data = ref "data" in
  let probes = ref 4 in
  let iters = ref 10 in
  let rounds = ref 2 in
  let json = ref false in
  let out = ref "BENCH_radius.json" in
  Arg.parse
    [
      ("--data", Arg.Set_string data, "DIR  model directory (default data)");
      ("--probes", Arg.Set_int probes, "N  grid-arm probes per round (default 4)");
      ("--iters", Arg.Set_int iters, "N  sequential bisection steps (default 10)");
      ("--rounds", Arg.Set_int rounds, "N  timing repetitions, min kept (default 2)");
      ("--json", Arg.Set json, "  write the results to --out as JSON");
      ("--out", Arg.Set_string out, "PATH  JSON output path (default BENCH_radius.json)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "radius [--data DIR] [--probes N] [--json] [--out PATH]";
  if !probes < 2 then begin
    prerr_endline "radius: --probes must be >= 2 (the grid arm)";
    exit 2
  end;
  Zoo.data_dir := !data;
  let entry = Zoo.entry "sst_3" in
  let model = Zoo.load_or_train ~log:(fun s -> Printf.eprintf "%s\n%!" s) "sst_3" in
  let c = Zoo.corpus_of entry.Zoo.corpus in
  let program = Nn.Model.to_ir model in
  let toks, true_class = List.nth c.Text.Corpus.test 0 in
  let x = Nn.Model.embed_tokens model toks in
  let word = 1 and p = Deept.Lp.L2 in
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "radius search, sst_3 idx 0 word %d l2, iters %d (%d core(s) recommended \
     on this machine)\n\n"
    word !iters cores;
  let arm name probes =
    let wall_s, report =
      measure ~rounds:!rounds ~iters:!iters ~probes Deept.Config.fast program
        ~p x ~word ~true_class
    in
    { name; probes; wall_s; report }
  in
  let seq = arm (Printf.sprintf "sst_3_i0_w%d_l2_probes1" word) 1 in
  let grid =
    arm (Printf.sprintf "sst_3_i0_w%d_l2_probes%d" word !probes) !probes
  in
  (* Correctness gates: sequential radius is pinned bit-for-bit; the grid
     radius must come from a probe that certified (re-checked here from
     scratch, no prefix sharing) with a bracket at most as wide. *)
  if seq.report.Deept.Certify.radius <> pinned_seq_radius then begin
    Printf.eprintf "radius: probes=1 radius %.17g != pinned %.17g\n%!"
      seq.report.Deept.Certify.radius pinned_seq_radius;
    exit 4
  end;
  let grid_r = grid.report.Deept.Certify.radius in
  if
    grid_r > 0.0
    && not
         (Deept.Certify.certify Deept.Config.fast program
            (Deept.Region.lp_ball ~p x ~word ~radius:grid_r)
            ~true_class)
  then begin
    Printf.eprintf "radius: grid radius %.17g does not re-certify\n%!" grid_r;
    exit 4
  end;
  if bracket_width grid.report > bracket_width seq.report then begin
    Printf.eprintf "radius: grid bracket %.3g wider than sequential %.3g\n%!"
      (bracket_width grid.report) (bracket_width seq.report);
    exit 4
  end;
  Printf.printf "%-24s %9s %8s %13s %8s+%-7s %7s\n" "arm" "wall s" "radius"
    "bracket width" "bracket" "refine" "rounds";
  List.iter
    (fun a ->
      let r = a.report in
      Printf.printf "%-24s %9.3f %8.5f %13.3g %8d+%-7d %7d\n" a.name a.wall_s
        r.Deept.Certify.radius (bracket_width r)
        r.Deept.Certify.bracket_probes r.Deept.Certify.bisect_probes
        r.Deept.Certify.rounds)
    [ seq; grid ];
  Printf.printf "\nspeedup (probes %d vs 1): %.2fx at %.3g vs %.3g bracket width\n"
    !probes (seq.wall_s /. grid.wall_s)
    (bracket_width grid.report)
    (bracket_width seq.report);
  if cores < !probes then
    Printf.printf
      "note: only %d core(s) available for %d concurrent probes — the \
       probes serialize, so the wall-clock speedup on this machine \
       understates a %d-core run\n"
      cores !probes !probes;
  if !json then write_json !out ~cores [ seq; grid ]
