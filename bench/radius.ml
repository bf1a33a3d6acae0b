(* Reproducible benchmark of the radius search: the margin-guided search
   (on bisection's grid, reproducing the committed pins) on the recorded
   sst_3 model — the paper's headline measurement loop.

     dune exec bench/radius.exe -- --data data            # table on stdout
     dune exec bench/radius.exe -- --data data --json     # + BENCH_radius.json

   It searches one input (test sentence 0, word 1, l2 ball,
   iters = 10) and must return the pinned radius, or the benchmark
   exits non-zero — the gate guards correctness as well as time.
   The time is the median over [rounds] full searches of each search's
   wall-clock scaled to the machine's speed at nominal (see Refloop);
   the unscaled median is reported beside it. When a previous
   BENCH_radius.json exists it is rotated to BENCH_radius.prev.json so
   `check_regress.exe` can compare runs. *)

(* Certified radius of the benchmark input, captured from the
   pre-Psearch bisection. It is a point of bisection's dyadic grid,
   which the margin-guided search also lands on where certification is
   monotone (here with 0 + 7 probes instead of bisection's 1 + 10) —
   compared bit-for-bit: any drift means the search no longer returns
   bisection's radius. *)
let pinned_radius = 0.1474609375

(* The median over the rounds of the search's time at nominal speed
   (Refloop), each round scaled by the slowness read right after it,
   and the median of the unscaled wall-clocks. *)
let measure ~rounds ~iters cfg program ~p x ~word ~true_class =
  let run () =
    Deept.Certify.certified_radius_v cfg program ~p x ~word ~true_class ~iters
      ()
  in
  Refloop.medians (List.init (max rounds 1) (fun _ -> Refloop.timed run))

let bracket_width (r : Deept.Certify.radius_report) =
  let good, bad = r.Deept.Certify.bracket in
  bad -. good

let json_of_row ~cores ~name ~wall_s ~unscaled_s r =
  Printf.sprintf
    "{\"name\":\"%s\",\"wall_s\":%.3f,\"unscaled_s\":%.3f,\"radius\":%.17g,\"bracket_width\":%.17g,\"bracket_probes\":%d,\"bisect_probes\":%d,\"cores\":%d}"
    name wall_s unscaled_s r.Deept.Certify.radius (bracket_width r)
    r.Deept.Certify.bracket_probes r.Deept.Certify.bisect_probes cores

let write_json path row =
  if Sys.file_exists path then begin
    let prev = Filename.remove_extension path ^ ".prev.json" in
    (try Sys.remove prev with Sys_error _ -> ());
    Sys.rename path prev;
    Printf.printf "rotated previous %s -> %s\n" path prev
  end;
  let oc = open_out path in
  output_string oc ("[\n" ^ row ^ "\n]\n");
  close_out oc;
  Printf.printf "wrote %s\n" path

let () =
  let data = ref "data" in
  let iters = ref 10 in
  let rounds = ref 8 in
  let json = ref false in
  let out = ref "BENCH_radius.json" in
  Arg.parse
    [
      ("--data", Arg.Set_string data, "DIR  model directory (default data)");
      ("--iters", Arg.Set_int iters, "N  bisection steps (default 10)");
      ("--rounds", Arg.Set_int rounds, "N  timing repetitions, median kept (default 8)");
      ("--json", Arg.Set json, "  write the results to --out as JSON");
      ("--out", Arg.Set_string out, "PATH  JSON output path (default BENCH_radius.json)");
      Refloop.spec;
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "radius [--data DIR] [--json] [--out PATH]";
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
  (* The row name keeps its historical "probes1" suffix so the committed
     baseline still matches it. *)
  let name = Printf.sprintf "sst_3_i0_w%d_l2_probes1" word in
  let wall_s, unscaled_s, r =
    measure ~rounds:!rounds ~iters:!iters Deept.Config.fast program ~p x ~word
      ~true_class
  in
  if r.Deept.Certify.radius <> pinned_radius then begin
    Printf.eprintf "radius: radius %.17g != pinned %.17g\n%!"
      r.Deept.Certify.radius pinned_radius;
    exit 4
  end;
  Printf.printf "%-24s %9s %10s %8s %13s %8s+%-7s\n" "search" "wall s" "unscaled s"
    "radius" "bracket width" "bracket" "refine";
  Printf.printf "%-24s %9.3f %10.3f %8.5f %13.3g %8d+%-7d\n" name wall_s unscaled_s
    r.Deept.Certify.radius (bracket_width r) r.Deept.Certify.bracket_probes
    r.Deept.Certify.bisect_probes;
  if !json then write_json !out (json_of_row ~cores ~name ~wall_s ~unscaled_s r)
