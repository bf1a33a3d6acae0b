(* batch-ladder: what `certify batch` runs. Jobs go to Supervisor.run
   with two forked workers; each job is one Engine.certify walk of the
   default ladder with branch-and-bound refinement on: concrete
   falsification, the down walk (fast, fast-k32, interval) and Brefine's
   up walk, with results coming back over Marshal pipes. The in-process
   workloads bypass all of this.

   Each batch is one cycle of eight strata, costliest first so the
   batch's tail stays short: 9-token inputs that exceed the ε-symbol
   budget (max_eps 4000) and degrade to fast-k32, inputs above the
   reference radius that fail on precision and take the up walk, two
   below it that certify, and a misclassified sentence that concrete
   falsification answers. The budget, not a wall-clock deadline, decides
   the degradation, so every job ends on the same rung on every run.
   Batches run back to back until the measured time is up. *)

open Harness

(* (model, sentence length, norm, radius band); length 0 picks a
   sentence the model misclassifies *)
let strata =
  [|
    ("sst_6", 9, Deept.Lp.L2, Above);
    ("sst_3", 9, Deept.Lp.Linf, Above);
    ("sst_6", 7, Deept.Lp.Linf, Above);
    ("sst_6", 6, Deept.Lp.L2, Above);
    ("sst_3", 6, Deept.Lp.Linf, Above);
    ("sst_3", 6, Deept.Lp.L1, Below);
    ("sst_3", 5, Deept.Lp.L2, Below);
    ("sst_3", 0, Deept.Lp.L2, Above);
  |]

let quick_strata = [| 4; 6; 7 |]
let batch_size = Array.length strata
let workers = 2

type job = {
  stratum : int;
  model : string;
  index : int;  (** test-set sentence *)
  word : int;
  p : Deept.Lp.t;
  radius : float;
}

type job_out = {
  outcome : (Deept.Engine.outcome, string) result;
  start : float;  (** worker clock around Engine.certify *)
  stop : float;
  alloc_words : float;
  hwm_mb : float;
  wspans : Trace.span list;  (** traced run: the engine span, its op spans and brefine *)
  speed : timed option;
      (** measured batches: the speed sample the worker took right after
          the job, [raw] being how long the sample took *)
}

let cfg =
  Deept.Config.with_refine (Some Deept.Config.default_refine)
    (Deept.Config.with_budget ~max_eps:4000 Deept.Config.fast)

let pool = Deept.Config.pool ~workers ~hard_deadline_s:120.0 ()

let find_sentence m index = List.nth m.corpus.Text.Corpus.test index

let went_up (o : Deept.Engine.outcome) =
  List.exists (fun a -> a.Deept.Engine.direction = Deept.Engine.Up) o.Deept.Engine.attempts

let region m j =
  let toks, _ = find_sentence m j.index in
  Deept.Region.lp_ball ~p:j.p (Nn.Model.embed_tokens m.net toks) ~word:j.word ~radius:j.radius

(* The job body, run in a forked worker. In a traced run the sink is
   built here, inside the worker, and the spans travel back with the
   result. The refinement (up walk) starts where the first rung's
   propagation ends — the first time the op index goes back down.

   With [sample], the worker then takes a machine-speed sample itself:
   one taken by the parent between batches, when both workers have
   exited, followed the batches' speed less well than the raw times
   did, while samples taken where the jobs ran cut the spread of
   queries_per_s over ten seeds from 11% to 3%. *)
let worker models ~traced ~sample id j =
  let m = List.assoc j.model models in
  let _, label = find_sentence m j.index in
  let t = Trace.create () in
  let a0 = alloc_words () in
  let start = now () in
  let root = Trace.fresh t in
  let first_pass_end = ref nan and last_op = ref (-1) and last_stop = ref start in
  let sink =
    if not traced then None
    else
      let ops = Trace.sink t ~parent:root ~query:id in
      Some
        (fun (e : Interp.event) ->
          if e.Interp.op_index <= !last_op && Float.is_nan !first_pass_end then
            first_pass_end := !last_stop;
          last_op := e.Interp.op_index;
          ops e;
          last_stop := now ())
  in
  let outcome =
    let cfg = Deept.Config.with_trace sink cfg in
    match Deept.Engine.certify cfg m.program (region m j) ~true_class:label with
    | o -> Ok o
    | exception e -> Error (Printexc.to_string e)
  in
  let stop = now () in
  if traced then begin
    Trace.record t ~id:root ~parent:0 ~query:id "engine" ~start ~stop;
    match outcome with
    | Ok o when went_up o && not (Float.is_nan !first_pass_end) ->
        let up = Trace.add t ~parent:root ~query:id "brefine" ~start:!first_pass_end ~stop in
        Trace.adopt t ~parent:root ~into:up ~from:!first_pass_end
    | _ -> ()
  end;
  let alloc_words = alloc_words () -. a0 and hwm_mb = peak_rss_mb "self" in
  {
    outcome;
    start;
    stop;
    alloc_words;
    hwm_mb;
    wspans = Trace.spans t;
    speed =
      (if sample then
         let t0 = now () in
         let slow = Speed.sample () in
         Some { raw = now () -. t0; slow }
       else None);
  }

type batch = {
  results : (job * job_out Deept.Supervisor.job_result * float) list;
      (** each job, its result and when the supervisor reported it *)
  start : float;
  wall : float;
}

let run_batch ?(sample = false) models ~traced jobs =
  let finished = Hashtbl.create 16 in
  flush_all ();
  let start = now () in
  let rs =
    Deept.Supervisor.run ~pool
      ~on_result:(fun r -> Hashtbl.replace finished r.Deept.Supervisor.job (now ()))
      ~worker:(worker models ~traced ~sample) jobs
  in
  let wall = now () -. start in
  {
    results =
      List.map2
        (fun (_, j) (r : _ Deept.Supervisor.job_result) ->
          (j, r, Hashtbl.find finished r.Deept.Supervisor.job))
        jobs rs;
    start;
    wall;
  }

let verdict_of (r : job_out Deept.Supervisor.job_result) =
  match r.Deept.Supervisor.outcome with
  | Ok { outcome = Ok o; _ } -> Some o
  | _ -> None

let certified r =
  match verdict_of r with Some o -> o.Deept.Engine.verdict = Deept.Verdict.Certified | None -> false

(* Running out of the ε budget is this workload's configured outcome
   for its longest inputs, not a failure. *)
let is_failed r =
  match verdict_of r with
  | Some { Deept.Engine.verdict = Deept.Verdict.Unknown Deept.Verdict.Symbol_budget; _ } -> false
  | Some o -> Deept.Verdict.is_fault o.Deept.Engine.verdict
  | None -> true

let verdict_name (r : job_out Deept.Supervisor.job_result) =
  match r.Deept.Supervisor.outcome with
  | Ok { outcome = Ok o; _ } -> Format.asprintf "%a" Deept.Engine.pp_outcome o
  | Ok { outcome = Error e; _ } -> "raised " ^ e
  | Error f -> "worker " ^ Deept.Supervisor.failure_detail f

let compute_s (r : job_out Deept.Supervisor.job_result) =
  match r.Deept.Supervisor.outcome with Ok o -> o.stop -. o.start | Error _ -> 0.0

(* Per-layer metrics of the traced batches; [ratios] holds each batch's
   traced over untraced wall time. *)
let layer_metrics ~ratios batches =
  let results = List.concat_map (fun b -> b.results) batches in
  let n = List.length results in
  let outs = List.filter_map (fun (_, r, _) -> verdict_of r) results in
  let t = Trace.create () in
  List.iter
    (fun b ->
      let batch_id =
        Trace.add t ~parent:0 ~query:0 "supervisor.batch" ~start:b.start ~stop:(b.start +. b.wall)
      in
      List.iter
        (fun (_, (r : job_out Deept.Supervisor.job_result), fin) ->
          let job_id =
            Trace.add t ~parent:batch_id ~query:r.Deept.Supervisor.job "supervisor.job"
              ~start:(fin -. r.Deept.Supervisor.wall_s) ~stop:fin
          in
          match r.Deept.Supervisor.outcome with
          | Ok o -> Trace.graft t ~parent:job_id o.wspans
          | Error _ -> ())
        b.results)
    batches;
  let spans = Trace.spans t in
  let first_rung = Deept.Engine.rung_name (List.hd (Deept.Engine.default_ladder cfg)) in
  let ups = List.filter went_up outs in
  let brefine = List.filter (fun (s : Trace.span) -> s.Trace.name = "brefine") spans in
  let total_wall = fsum (fun b -> b.wall) batches in
  let ok = List.filter (fun (_, r, _) -> Result.is_ok r.Deept.Supervisor.outcome) results in
  let dispatch_ms =
    List.map (fun (_, r, _) -> 1000.0 *. (r.Deept.Supervisor.wall_s -. compute_s r)) ok
  in
  ( spans,
    [
      ( "certify.alloc_mb_per_query",
        mb_of_words
          (Stats.mean
             (List.filter_map
                (fun (_, r, _) ->
                  match r.Deept.Supervisor.outcome with
                  | Ok o -> Some o.alloc_words
                  | Error _ -> None)
                results)) );
      ( "engine.attempts_per_query",
        Stats.mean (List.map (fun o -> float_of_int (List.length o.Deept.Engine.attempts)) outs) );
      ( "engine.first_rung_frac",
        frac (count (fun o -> o.Deept.Engine.rung_name = first_rung) outs) n );
      ( "engine.degraded_frac",
        frac
          (count
             (fun o ->
               (not (went_up o))
               && o.Deept.Engine.rung_name <> first_rung
               && o.Deept.Engine.rung_name <> "concrete")
             outs)
          n );
      ( "engine.falsified_frac",
        frac (count (fun o -> o.Deept.Engine.verdict = Deept.Verdict.Falsified) outs) n );
      ("brefine.up_frac", frac (List.length ups) n);
      ( "brefine.rescue_frac",
        frac
          (count (fun o -> o.Deept.Engine.verdict = Deept.Verdict.Certified) ups)
          (List.length ups) );
      ( "brefine.query_s_mean",
        Stats.mean (List.map (fun (s : Trace.span) -> s.Trace.stop -. s.Trace.start) brefine) );
      ("supervisor.dispatch_ms_mean", Stats.mean dispatch_ms);
      ( "supervisor.busy_frac",
        fsum (fun (_, r, _) -> compute_s r) results /. (float_of_int workers *. total_wall) );
      ( "supervisor.retries",
        fsum (fun (_, r, _) -> float_of_int r.Deept.Supervisor.retries) results );
      ( "supervisor.deaths",
        float_of_int
          (count (fun (_, r, _) -> Result.is_error r.Deept.Supervisor.outcome) results) );
      ("trace.overhead_frac", overhead_frac ratios);
    ]
    @ interp_metrics ~queries:n spans )

let run ctx =
  let names = [ "sst_3"; "sst_6" ] in
  let models, setup_samples = setup names in
  let gen st k =
    let name, len, p, band = strata.(k) in
    let m = List.assoc name models in
    let s = if len = 0 then pick st m.wrong else sentence_of_len st m len in
    let reference = reference_radius name Deept.Config.Fast p in
    let radius = radius_in st band ~reference in
    { stratum = k; model = name; index = s.index; word = word_of st s; p; radius }
  in
  (* untimed warm-up: one cheap job through the whole pool path *)
  ignore (run_batch models ~traced:false [ (0, gen (Random.State.make [| 0 |]) 5) ]);
  let st = rng ctx in
  let next = ref 0 in
  let next_batch () =
    let ks = if ctx.quick then quick_strata else Array.init batch_size Fun.id in
    let b = Array.to_list (Array.mapi (fun i k -> (!next + i, gen st k)) ks) in
    next := !next + Array.length ks;
    b
  in
  let seconds = if ctx.quick then 0.0 else if ctx.trace then ctx.seconds /. 3.0 else ctx.seconds in
  (* whole batches, until the next would end more than half a batch late *)
  let start = now () in
  let rec loop acc =
    let spent = now () -. start and k = float_of_int (List.length acc) in
    if acc <> [] && spent +. (spent /. k /. 2.0) >= seconds then List.rev acc
    else loop (run_batch ~sample:true models ~traced:false (next_batch ()) :: acc)
  in
  let batches = loop [] in
  let setup_s, setup_raw = setup_s names setup_samples in
  let speed (r : job_out Deept.Supervisor.job_result) =
    match r.Deept.Supervisor.outcome with Ok o -> o.speed | Error _ -> None
  in
  let speeds b = List.filter_map (fun (_, r, _) -> speed r) b.results in
  (* A batch's slowness: its jobs' samples, weighted by their compute
     time (1 when every job's worker died). The samples' own time is
     taken out of the batch and job times. *)
  let batch_time b =
    let weighted =
      List.filter_map
        (fun (_, r, _) -> Option.map (fun s -> (compute_s r, s.slow)) (speed r))
        b.results
    in
    let slow =
      if weighted = [] then 1.0 else fsum fst weighted /. fsum (fun (c, s) -> c /. s) weighted
    in
    { raw = b.wall -. (fsum (fun s -> s.raw) (speeds b) /. float_of_int workers); slow }
  in
  let job_time b (_, r, _) =
    match speed r with
    | Some s -> { raw = r.Deept.Supervisor.wall_s -. s.raw; slow = s.slow }
    | None -> { raw = r.Deept.Supervisor.wall_s; slow = (batch_time b).slow }
  in
  (* queries_per_s (jobs over the summed batch time) and lat_ms_p50 (per
     stratum the median job time, averaged over strata) *)
  let timing time =
    ( float_of_int (List.length (List.concat_map (fun b -> b.results) batches))
      /. fsum (fun b -> time (batch_time b)) batches,
      1000.0
      *. strata_p50
           (List.concat_map
              (fun b -> List.map (fun ((j, _, _) as x) -> (j.stratum, time (job_time b x))) b.results)
              batches) )
  in
  let qps, lat = timing scaled and qps_raw, lat_raw = timing (fun t -> t.raw) in
  let results = List.concat_map (fun b -> b.results) batches in
  let n = List.length results in
  let nfailed = count (fun (_, r, _) -> is_failed r) results in
  (* Precision and the digest cover the first four batches, the same jobs
     on every run; on a slow machine the missing ones run untimed. *)
  let extra =
    List.concat_map
      (fun _ -> (run_batch models ~traced:false (next_batch ())).results)
      (List.init
         (if ctx.quick || ctx.trace then 0 else max 0 (4 - List.length batches))
         Fun.id)
  in
  let first = List.filteri (fun i _ -> i < 4 * batch_size) (results @ extra) in
  let problems =
    List.filter_map
      (fun (j, r, _) ->
        let m = List.assoc j.model models in
        let _, label = find_sentence m j.index in
        if certified r && not (samples_agree m.program (region m j) ~true_class:label ~seed:j.index)
        then
          Some
            (Printf.sprintf "%s test %d word %d %s r=%h: certified, but a sample is misclassified"
               j.model j.index j.word (norm_name j.p) j.radius)
        else None)
      (results @ extra)
  in
  (* traced run: each measured batch again, once untraced and once traced *)
  let traced =
    if not ctx.trace then None
    else
      Some
        (List.map
           (fun b ->
             let jobs =
               List.map
                 (fun (j, (r : _ Deept.Supervisor.job_result), _) -> (r.Deept.Supervisor.job, j))
                 b.results
             in
             let plain = run_batch models ~traced:false jobs in
             let tb = run_batch models ~traced:true jobs in
             (tb, tb.wall /. plain.wall))
           batches)
  in
  let problems =
    match traced with
    | Some tb
      when List.exists2
             (fun (_, a, _) (_, b, _) -> verdict_name a <> verdict_name b)
             results
             (List.concat_map (fun (b, _) -> b.results) tb) ->
        "a traced job returned another outcome than the untraced one" :: problems
    | _ -> problems
  in
  let spans, metrics =
    match traced with
    | None ->
        let worker_hwm =
          List.fold_left
            (fun acc (_, (r : job_out Deept.Supervisor.job_result), _) ->
              match r.Deept.Supervisor.outcome with Ok o -> Float.max acc o.hwm_mb | Error _ -> acc)
            0.0 results
        in
        ( [],
          [
            ("setup_s", setup_s);
            ("queries_per_s", qps);
            ("lat_ms_p50", lat);
            ( "certified_frac",
              frac (count (fun (_, r, _) -> certified r) first) (List.length first) );
            ( "radius_mean",
              Stats.mean
                (List.map
                   (fun (j, r, _) ->
                     if certified r then j.radius /. reference_radius j.model Deept.Config.Fast j.p
                     else 0.0)
                   first) );
            ("ok_frac", 1.0 -. frac nfailed n);
            ("peak_rss_mb", Float.max worker_hwm (peak_rss_mb "self"));
          ] )
    | Some tb -> layer_metrics ~ratios:(List.map snd tb) (List.map fst tb)
  in
  {
    attempted = n;
    failed = nfailed;
    problems;
    metrics;
    digest =
      digest
        (List.map
           (fun (j, r, _) ->
             Printf.sprintf "%s %d %d %s %h %s" j.model j.index j.word (norm_name j.p) j.radius
               (verdict_name r))
           first);
    spans;
    report =
      Printf.sprintf "batch-ladder: %d jobs in %d batches, %.2f s (%d certified, %d failed)" n
        (List.length batches)
        (fsum (fun b -> b.wall) batches)
        (count (fun (_, r, _) -> certified r) results)
        nfailed
      :: unscaled_line
           (List.map (fun s -> s.slow) (List.concat_map speeds batches))
           [ ("setup_s", setup_raw); ("queries_per_s", qps_raw); ("lat_ms_p50", lat_raw) ]
      :: Printf.sprintf "  final rungs: %s"
           (String.concat ", "
              (List.map
                 (fun (k, c) -> Printf.sprintf "%s %d" k c)
                 (List.fold_left
                    (fun acc (_, r, _) ->
                      let k =
                        match verdict_of r with
                        | Some o ->
                            Deept.Verdict.to_string o.Deept.Engine.verdict
                            ^ "@" ^ o.Deept.Engine.rung_name
                        | None -> "no outcome"
                      in
                      let n = Option.value ~default:0 (List.assoc_opt k acc) in
                      (k, n + 1) :: List.remove_assoc k acc)
                    [] results
                 |> List.sort compare)))
      :: List.map
           (fun (j, r, _) ->
             Printf.sprintf "  %s test %3d w%d %-4s r=%.5f  %s (%.2fs)" j.model j.index j.word
               (norm_name j.p) j.radius (verdict_name r) r.Deept.Supervisor.wall_s)
           (List.filteri (fun i _ -> i < batch_size) results);
  }
