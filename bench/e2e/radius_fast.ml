(* radius-fast: the paper's headline loop. One in-process client runs
   sequential DeepT-Fast radius searches (Certify.certified_radius_v,
   probes 1, 10 bisection steps: about 11 propagations of one input at
   different radii) on sst_3 and sst_6. No fork, no I/O, no Precise dot
   product and no ladder.

   Search cost rises steeply with sentence length, so the inputs cycle
   through five (model, length, norm) strata (about 0.6 to 1.6 s a
   search on a 2-core x86 machine): every cycle has the same mix of
   costs, and only the sentences and the perturbed word change with the
   seed. *)

open Harness

(* (model, sentence length, norm) *)
let strata =
  [|
    ("sst_3", 4, Deept.Lp.L1);
    ("sst_3", 5, Deept.Lp.L2);
    ("sst_6", 4, Deept.Lp.Linf);
    ("sst_3", 6, Deept.Lp.Linf);
    ("sst_6", 4, Deept.Lp.L1);
  |]

type query = { stratum : int; m : model; s : sentence; word : int; p : Deept.Lp.t }
type answer = Searched of Deept.Certify.radius_report | Raised of string

let radius = function Searched r -> r.Deept.Certify.radius | Raised _ -> 0.0

let failed = function
  | Searched r -> r.Deept.Certify.faulted_probes <> []
  | Raised _ -> true

(* The found radius in multiples of the reference radius. *)
let relative q a = radius a /. reference_radius q.m.name Deept.Config.Fast q.p

let run ctx =
  let names = [ "sst_3"; "sst_6" ] in
  let models, setup_samples = setup names in
  let gen st i =
    let stratum = i mod Array.length strata in
    let name, len, p = strata.(stratum) in
    let m = List.assoc name models in
    let s = sentence_of_len st m len in
    { stratum; m; s; word = word_of st s; p }
  in
  let call sink q =
    let cfg = Deept.Config.with_trace sink Deept.Config.fast in
    match
      Deept.Certify.certified_radius_v cfg q.m.program ~p:q.p (embed q.m q.s) ~word:q.word
        ~true_class:q.s.label ~iters:10 ()
    with
    | r -> Searched r
    | exception e -> Raised (Printexc.to_string e)
  in
  (* untimed warm-up *)
  ignore (call None (gen (Random.State.make [| 0 |]) 0));
  let cycle = Array.length strata in
  let c =
    run_closed ctx ~cycle ~digest_n:(if ctx.quick then 3 else 4 * cycle) ~gen
      ~call
  in
  let setup_s, setup_raw = setup_s names setup_samples in
  let (qps, lat), (qps_raw, lat_raw) = closed_timing ~stratum:(fun q -> q.stratum) c.runs in
  let answers = List.map (fun d -> (d.q, fst d.r)) c.runs in
  let n = List.length answers in
  let nfailed = count (fun (_, a) -> failed a) answers in
  (* A searched radius must certify again in a fresh single-radius call. *)
  let problems =
    List.filter_map
      (fun (q, a) ->
        let r = radius a in
        if
          r > 0.0
          && not
               (Deept.Certify.certify Deept.Config.fast q.m.program
                  (Deept.Region.lp_ball ~p:q.p (embed q.m q.s) ~word:q.word ~radius:r)
                  ~true_class:q.s.label)
        then
          Some
            (Printf.sprintf "%s test %d word %d %s: radius %h does not re-certify" q.m.name
               q.s.index q.word (norm_name q.p) r)
        else None)
      (answers @ List.filteri (fun i _ -> i >= n) c.prefix)
  in
  let problems =
    match c.traced with
    | Some (replay, _, _)
      when List.exists2 (fun (_, a) (_, b) -> radius a <> radius b) answers replay ->
        "a traced search returned another radius than the untraced one" :: problems
    | _ -> problems
  in
  let metrics =
    match c.traced with
    | None ->
        [
          ("setup_s", setup_s);
          ("queries_per_s", qps);
          ("lat_ms_p50", lat);
          ( "certified_frac",
            frac (count (fun (_, a) -> radius a > 0.0) c.prefix) (List.length c.prefix) );
          ("radius_mean", Stats.mean (List.map (fun (q, a) -> relative q a) c.prefix));
          ("ok_frac", 1.0 -. frac nfailed n);
          ("peak_rss_mb", peak_rss_mb "self");
        ]
    | Some (replay, spans, ratios) ->
        let reports =
          List.filter_map (function _, Searched r -> Some r | _, Raised _ -> None) replay
        in
        [
          ( "psearch.probes_per_query",
            Stats.mean
              (List.map
                 (fun r ->
                   float_of_int (r.Deept.Certify.bracket_probes + r.Deept.Certify.bisect_probes))
                 reports) );
          ( "psearch.faulted_probes",
            fsum (fun r -> float_of_int (List.length r.Deept.Certify.faulted_probes)) reports );
          ("certify.self_s", self_per_span "certify" spans);
          ( "certify.alloc_mb_per_query",
            mb_of_words (Stats.mean (List.map (fun d -> snd d.r) c.runs)) );
          ("trace.overhead_frac", overhead_frac ratios);
        ]
        @ interp_metrics ~queries:(List.length replay) spans
  in
  {
    attempted = n;
    failed = nfailed;
    problems;
    metrics;
    digest =
      digest
        (List.map
           (fun (q, a) ->
             Printf.sprintf "%s %d %d %s %h" q.m.name q.s.index q.word (norm_name q.p) (radius a))
           c.prefix);
    spans = (match c.traced with Some (_, s, _) -> s | None -> []);
    report =
      [
        Printf.sprintf "radius-fast: %d searches in %.2f s (%d failed)" n
          (fsum (fun d -> d.wall.raw) c.runs)
          nfailed;
        unscaled_line
          (List.map (fun d -> d.wall.slow) c.runs)
          [ ("setup_s", setup_raw); ("queries_per_s", qps_raw); ("lat_ms_p50", lat_raw) ];
      ];
  }
