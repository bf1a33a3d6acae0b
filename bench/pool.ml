(* Worker-pool benchmark: wall time of the same certification batch run
   through the supervised pool (Supervisor.run) with 1 worker and with 4.
   The jobs are radius searches on a tiny fixed model, so the comparison
   isolates the pool's fork/dispatch/collect overhead and the speedup
   from genuine multi-process parallelism. *)

let reps = 6 (* radius searches per job, so a job is milliseconds-sized *)

let run (scale : Common.scale) =
  Common.table_header "pool: supervised batch, --jobs 1 vs --jobs 4"
    "wall time of one batch through Supervisor.run (lower is better)";
  let model = Helpers_model.tiny () in
  let program = Nn.Model.to_ir model in
  let cfg = Deept.Config.precise in
  let rng = Tensor.Rng.create 11 in
  let n_jobs = Int.max 8 (4 * scale.Common.examples) in
  let jobs =
    List.init n_jobs (fun i ->
        let len = 4 + (i mod 3) in
        (i, Array.init len (fun _ -> Tensor.Rng.int rng 16)))
  in
  let worker _id toks =
    let x = Nn.Model.embed_tokens model toks in
    let word = Array.length toks - 1 in
    let r = ref 0.0 in
    for _ = 1 to reps do
      r :=
        Deept.Certify.certified_radius cfg program ~p:Deept.Lp.Linf x ~word
          ~true_class:0 ~hi:0.06 ~iters:scale.Common.iters ()
    done;
    !r
  in
  let time workers =
    let pool = Deept.Config.pool ~workers () in
    let t0 = Unix.gettimeofday () in
    let rs = Deept.Supervisor.run ~pool ~worker jobs in
    let t = Unix.gettimeofday () -. t0 in
    let ok =
      List.length rs = n_jobs
      && List.for_all (fun r -> Result.is_ok r.Deept.Supervisor.outcome) rs
    in
    (t, ok)
  in
  let n_cores = Domain.recommended_domain_count () in
  let t1, ok1 = time 1 in
  let t4, ok4 = time 4 in
  Printf.printf "  %-24s %8s %6s\n" "" "wall(s)" "ok";
  Printf.printf "  %-24s %8.3f %6s\n" "--jobs 1" t1
    (if ok1 then "yes" else "NO");
  Printf.printf "  %-24s %8.3f %6s\n" "--jobs 4" t4
    (if ok4 then "yes" else "NO");
  Printf.printf "  speedup (jobs=4 over 1): %sx  (%d core%s available%s)\n"
    (Common.fmt_ratio t1 t4) n_cores
    (if n_cores = 1 then "" else "s")
    (if n_cores = 1 then "; no parallel speedup possible" else "")
