(* Refined-vs-base certified radius: what branch-and-bound symbol
   splitting (Brefine) buys over the base Precise config, per zoo model
   depth.

     dune exec bench/refine.exe -- --data data            # table on stdout
     dune exec bench/refine.exe -- --data data --json     # + BENCH_refine.json

   For each model both arms search the same input (test sentence 0,
   word 1, ℓ∞ ball): the base arm is the plain Precise radius search;
   the refine arm is the same search plus Brefine probes at the failing
   edge of the final bracket (Certify.refined_radius). Hard gates (exit
   4): the refine arm's plain radius must be bit-identical to the base
   arm's (refinement must not perturb the search it extends), every
   model's refined radius must be >= its base radius, and at least two
   models must show a strictly larger refined radius — the refinement
   has to actually recover queries, not just not regress.

   Both arms are timed in reference-loop units, as bench/radius.ml
   times its search: [rounds] rounds each run the base search and then
   the refine search, each scaled by the slowness read right after it
   (Refloop), and each arm reports the median over the rounds
   ([base_wall_s], [wall_s]) with its unscaled median beside it. *)

type row = {
  name : string;
  depth : int;
  base_wall_s : float;
  base_unscaled_s : float;
  wall_s : float;
  unscaled_s : float;
  radius : float;
  refined_radius : float;
}

let json_of_row ~cores r =
  Printf.sprintf
    "{\"name\":\"%s\",\"depth\":%d,\"base_wall_s\":%.3f,\"base_unscaled_s\":%.3f,\"wall_s\":%.3f,\"unscaled_s\":%.3f,\"radius\":%.17g,\"refined_radius\":%.17g,\"cores\":%d}"
    r.name r.depth r.base_wall_s r.base_unscaled_s r.wall_s r.unscaled_s
    r.radius r.refined_radius cores

let write_json path ~cores rows =
  if Sys.file_exists path then begin
    let prev = Filename.remove_extension path ^ ".prev.json" in
    (try Sys.remove prev with Sys_error _ -> ());
    Sys.rename path prev;
    Printf.printf "rotated previous %s -> %s\n" path prev
  end;
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i r ->
      output_string oc (json_of_row ~cores r);
      if i < List.length rows - 1 then output_string oc ",";
      output_string oc "\n")
    rows;
  output_string oc "]\n";
  close_out oc;
  Printf.printf "wrote %s\n" path

let () =
  let data = ref "data" in
  let models = ref "small_3,sst_3,small_6" in
  let iters = ref 10 in
  let rounds = ref 5 in
  let json = ref false in
  let out = ref "BENCH_refine.json" in
  Arg.parse
    [
      ("--data", Arg.Set_string data, "DIR  model directory (default data)");
      ( "--models",
        Arg.Set_string models,
        "LIST  comma-separated zoo models (default small_3,sst_3,small_6)" );
      ("--iters", Arg.Set_int iters, "N  bisection steps (default 10)");
      ("--rounds", Arg.Set_int rounds, "N  timing repetitions, median kept (default 5)");
      ("--json", Arg.Set json, "  write the results to --out as JSON");
      ("--out", Arg.Set_string out, "PATH  JSON output path (default BENCH_refine.json)");
      Refloop.spec;
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "refine [--data DIR] [--models LIST] [--json] [--out PATH]";
  Zoo.data_dir := !data;
  let base_cfg = Deept.Config.precise in
  let refine_cfg = Deept.Config.with_refine (Some Deept.Config.default_refine) base_cfg in
  (* ℓ∞ balls: every noise symbol is an independent ε, so a symbol split
     is an exact partition and branch-and-bound genuinely recovers
     queries. (ℓ2 splits go through the φ-decoupling relaxation, which
     gives back on the dual-norm bound at least what the halving gains —
     see DESIGN.md §13 — so refinement cannot move an ℓ2 edge.) *)
  let word = 1 and p = Deept.Lp.Linf in
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "refined vs base Precise certified radius, idx 0 word %d linf, iters %d, \
     median of %d rounds (s at nominal speed)\n\n"
    word !iters !rounds;
  let failures = ref 0 in
  let strict_gains = ref 0 in
  let rows =
    List.map
      (fun mname ->
        let model =
          Zoo.load_or_train ~log:(fun s -> Printf.eprintf "%s\n%!" s) mname
        in
        let entry = Zoo.entry mname in
        let c = Zoo.corpus_of entry.Zoo.corpus in
        let program = Nn.Model.to_ir model in
        let toks, true_class = List.nth c.Text.Corpus.test 0 in
        let x = Nn.Model.embed_tokens model toks in
        let depth = Ir.depth_of_kind program "self_attention" in
        let search cfg () =
          Deept.Certify.certified_radius_v cfg program ~p x ~word ~true_class
            ~iters:!iters ()
        in
        let rounds =
          List.init (max !rounds 1) (fun _ ->
              let b = Refloop.timed (search base_cfg) in
              (b, Refloop.timed (search refine_cfg)))
        in
        let base_wall_s, base_unscaled_s, base = Refloop.medians (List.map fst rounds) in
        let wall_s, unscaled_s, refined = Refloop.medians (List.map snd rounds) in
        if refined.Deept.Certify.radius <> base.Deept.Certify.radius then begin
          Printf.eprintf
            "refine: %s plain radius drifted under refinement: %.17g != %.17g\n%!"
            mname refined.Deept.Certify.radius base.Deept.Certify.radius;
          incr failures
        end;
        let rr =
          match refined.Deept.Certify.refined_radius with
          | Some r -> r
          | None ->
              (* an open bracket (everything certified up to the growth
                 cap) leaves nothing to refine; report base *)
              base.Deept.Certify.radius
        in
        if rr < base.Deept.Certify.radius then begin
          Printf.eprintf "refine: %s refined %.17g < base %.17g\n%!" mname rr
            base.Deept.Certify.radius;
          incr failures
        end;
        if rr > base.Deept.Certify.radius then incr strict_gains;
        {
          name = Printf.sprintf "refine_%s" mname;
          depth;
          base_wall_s;
          base_unscaled_s;
          wall_s;
          unscaled_s;
          radius = base.Deept.Certify.radius;
          refined_radius = rr;
        })
      (String.split_on_char ',' !models |> List.filter (fun s -> s <> ""))
  in
  Printf.printf "%-20s %5s %8s %10s %8s %10s %12s %14s %8s\n" "model" "depth"
    "base s" "unscaled" "refine s" "unscaled" "base radius" "refined radius"
    "gain";
  List.iter
    (fun r ->
      Printf.printf "%-20s %5d %8.3f %10.3f %8.3f %10.3f %12.8f %14.8f %7.2f%%\n"
        r.name r.depth r.base_wall_s r.base_unscaled_s r.wall_s r.unscaled_s
        r.radius r.refined_radius
        (if r.radius > 0.0 then (r.refined_radius /. r.radius -. 1.0) *. 100.0
         else 0.0))
    rows;
  (* At the default three-model list, refinement must recover queries on
     at least two models to earn its keep; a deliberately shortened list
     (the CI gate re-measures only small_3, see bench/dune) still
     requires every listed model to gain. *)
  let need = min 2 (List.length rows) in
  if !strict_gains < need then begin
    Printf.eprintf
      "refine: only %d model(s) gained strictly (need >= %d) — refinement is \
       not earning its keep\n%!"
      !strict_gains need;
    incr failures
  end;
  if !failures > 0 then exit 4;
  if !json then write_json !out ~cores rows
