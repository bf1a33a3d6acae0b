(* t1-precise: single-radius queries (Certify.certify_v) with the Precise
   dot product — DeepT-Precise on small_3 and DeepT-Combined (Precise in
   the last layer only) on small_6. Dot.precise_eps_bound takes nearly
   all the op time here and none in the other workloads, so a change to
   the Dot layer that helps radius-fast and costs this one shows.

   Precise cost grows with the number of noise symbols, hence with
   sentence length (5 s at 6 tokens on small_3), so the inputs come from
   three strata of short sentences (about 0.3 to 1.3 s a query on a
   2-core x86 machine), one per norm. Radii alternate between a band
   below and a band above the reference radius, so about half certify;
   a cycle holds each stratum once in each band. *)

open Harness

(* (model, verifier, sentence length, norm) *)
let strata =
  [|
    ("small_3", Deept.Config.precise, 4, Deept.Lp.Linf);
    ("small_6", Deept.Config.combined, 5, Deept.Lp.L2);
    ("small_3", Deept.Config.precise, 5, Deept.Lp.L1);
  |]

type query = {
  stratum : int;
  m : model;
  cfg : Deept.Config.t;
  s : sentence;
  word : int;
  p : Deept.Lp.t;
  radius : float;
}

let verdict_name = function Ok v -> Deept.Verdict.to_string v | Error e -> "raised " ^ e
let certified = function Ok Deept.Verdict.Certified -> true | _ -> false
let is_failed = function Ok v -> Deept.Verdict.is_fault v | Error _ -> true

let run ctx =
  let names = [ "small_3"; "small_6" ] in
  let models, setup_samples = setup names in
  (* each stratum once in each radius band *)
  let cycle = 2 * Array.length strata in
  let gen st i =
    let stratum = i mod Array.length strata in
    let name, cfg, len, p = strata.(stratum) in
    let m = List.assoc name models in
    let s = sentence_of_len st m len in
    let reference = reference_radius name cfg.Deept.Config.variant p in
    let radius = radius_in st (if i mod 2 = 0 then Below else Above) ~reference in
    { stratum; m; cfg; s; word = word_of st s; p; radius }
  in
  let region q = Deept.Region.lp_ball ~p:q.p (embed q.m q.s) ~word:q.word ~radius:q.radius in
  let call sink q =
    match
      Deept.Certify.certify_v (Deept.Config.with_trace sink q.cfg) q.m.program (region q)
        ~true_class:q.s.label
    with
    | v -> Ok v
    | exception e -> Error (Printexc.to_string e)
  in
  ignore (call None (gen (Random.State.make [| 0 |]) 0));
  let c =
    run_closed ctx ~cycle ~digest_n:(if ctx.quick then 3 else 4 * cycle) ~gen
      ~call
  in
  let setup_s, setup_raw = setup_s names setup_samples in
  let (qps, lat), (qps_raw, lat_raw) = closed_timing ~stratum:(fun q -> q.stratum) c.runs in
  let answers = List.map (fun d -> (d.q, fst d.r)) c.runs in
  let n = List.length answers in
  let nfailed = count (fun (_, a) -> is_failed a) answers in
  let problems =
    List.filter_map
      (fun (q, a) ->
        if
          certified a
          && not (samples_agree q.m.program (region q) ~true_class:q.s.label ~seed:q.s.index)
        then
          Some
            (Printf.sprintf "%s test %d word %d %s r=%h: certified, but a sample is misclassified"
               q.m.name q.s.index q.word (norm_name q.p) q.radius)
        else None)
      (answers @ List.filteri (fun i _ -> i >= n) c.prefix)
  in
  let problems =
    match c.traced with
    | Some (replay, _, _) when List.exists2 (fun (_, a) (_, b) -> a <> b) answers replay ->
        "a traced query returned another verdict than the untraced one" :: problems
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
            frac (count (fun (_, a) -> certified a) c.prefix) (List.length c.prefix) );
          ( "radius_mean",
            Stats.mean
              (List.map
                 (fun (q, a) ->
                   if certified a then
                     q.radius /. reference_radius q.m.name q.cfg.Deept.Config.variant q.p
                   else 0.0)
                 c.prefix) );
          ("ok_frac", 1.0 -. frac nfailed n);
          ("peak_rss_mb", peak_rss_mb "self");
        ]
    | Some (replay, spans, ratios) ->
        [
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
             Printf.sprintf "%s %d %d %s %h %s" q.m.name q.s.index q.word (norm_name q.p) q.radius
               (verdict_name a))
           c.prefix);
    spans = (match c.traced with Some (_, s, _) -> s | None -> []);
    report =
      [
        Printf.sprintf "t1-precise: %d queries in %.2f s (%d certified, %d failed)" n
          (fsum (fun d -> d.wall.raw) c.runs)
          (count (fun (_, a) -> certified a) answers)
          nfailed;
        unscaled_line
          (List.map (fun d -> d.wall.slow) c.runs)
          [ ("setup_s", setup_raw); ("queries_per_s", qps_raw); ("lat_ms_p50", lat_raw) ];
      ];
  }
