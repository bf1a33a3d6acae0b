(* The margin-guided radius search (Psearch) against a literal float
   bisection: bit-identical brackets on monotone predicates, probe
   placement and accounting, non-monotone and faulted probes, the
   committed small_3 pin, and the early-exit contains_sample. *)

open Tensor
module P = Deept.Psearch
module Z = Deept.Zonotope
module Lp = Deept.Lp
module C = Deept.Certify

let same_float msg a b =
  if Int64.bits_of_float a <> Int64.bits_of_float b then
    Alcotest.failf "%s: %.17g <> %.17g (bitwise)" msg a b

let check_bits msg (a : float array) (b : float array) =
  if Array.length a <> Array.length b then
    Alcotest.failf "%s: length %d <> %d" msg (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then
        Alcotest.failf "%s: index %d: %.17g <> %.17g" msg i x b.(i))
    a

(* Margin models for the threshold predicate below: what a probe at [r]
   reports when the threshold is [t]. The verdict never depends on it. *)
let no_margin _ _ = nan
let linear t r = t -. r

(* the zoo's shape: linear near the edge, saturated away from it *)
let saturating t r = Float.max (-9.0) (Float.min 9.0 (40.0 *. (t -. r)))

(* the right sign, a magnitude in (0, 10] drawn from a hash of [r] *)
let random_magnitude t r =
  let st = Random.State.make [| Hashtbl.hash (Int64.bits_of_float r) |] in
  let m = 10.0 -. Random.State.float st 10.0 in
  if r <= t then m else -.m

(* the right sign, magnitudes that pull every estimate to the
   certified end: only the stall rule keeps the bracket halving *)
let adversarial t r = if r <= t then 1e-9 else -1e9

let margin_models =
  [
    ("none", no_margin);
    ("linear", linear);
    ("saturating", saturating);
    ("random magnitude", random_magnitude);
    ("adversarial", adversarial);
  ]

(* The canonical monotone predicate: certified iff r <= t. *)
let threshold ?(margin = no_margin) t r =
  if r <= t then P.Good (margin t r) else P.Bad (margin t r)

(* Thresholds covering every bracket shape: immediate failure, failure
   inside [lo, hi], growth by 1..3 doublings, and never-failing. *)
let thresholds = [ 0.0; 0.137; 0.25; 0.3; 0.41; 0.4999; 0.7; 1.3; 2.9; 5.0 ]

(* Bisection as the search did it before the engine: up to 4 growth
   probes (hi, 2hi, 4hi, 8hi) until one fails, then [iters] midpoints. *)
let bisection ~iters certifies =
  let good = ref 0.0 and bad = ref infinity and r = ref 0.5 in
  (try
     for _ = 0 to 3 do
       if certifies !r then begin
         good := !r;
         r := !r *. 2.0
       end
       else begin
         bad := !r;
         raise Exit
       end
     done
   with Exit -> ());
  if !bad <> infinity then
    for _ = 1 to iters do
      let mid = 0.5 *. (!good +. !bad) in
      if certifies mid then good := mid else bad := mid
    done;
  (!good, !bad)

(* [probe] recording its radii; the second function returns them in
   probe order *)
let traced probe =
  let trace = ref [] in
  let probe r =
    trace := r :: !trace;
    probe r
  in
  (probe, fun () -> Array.of_list (List.rev !trace))

let probes (r : P.result) =
  r.P.stats.P.bracket_probes + r.P.stats.P.bisect_probes

(* --- a boolean predicate bisects, probe for probe -------------------- *)

(* What Linrelax and Bab run: [probe_of] reports no margins, so the
   search probes bisection's radii, in bisection's order but for the
   lazy hi, and returns its bracket bit for bit. *)
let test_sequential_is_bisection () =
  List.iter
    (fun t ->
      let bis_probe, bis_probed = traced (fun r -> r <= t) in
      let good, bad = bisection ~iters:10 bis_probe in
      let probe, probed = traced (P.probe_of (fun r -> r <= t)) in
      let seq = P.search ~iters:10 probe in
      let expected =
        match Array.to_list (bis_probed ()) with
        (* hi/2 fails, so hi is never probed *)
        | _ :: rest when t < 0.25 -> rest
        (* hi/2 certifies and hi fails: the same two probes, swapped *)
        | hi :: mid :: rest when t < 0.5 -> mid :: hi :: rest
        (* both certify: hi/2, then bisection's growth *)
        | b -> 0.25 :: b
      in
      check_bits
        (Printf.sprintf "t=%g probed radii" t)
        (Array.of_list expected) (probed ());
      same_float (Printf.sprintf "t=%g radius" t) good seq.P.radius;
      same_float (Printf.sprintf "t=%g good" t) good seq.P.good;
      same_float (Printf.sprintf "t=%g bad" t) bad seq.P.bad)
    thresholds

(* --- the margin-guided search against bisection ----------------------- *)

(* The documented worst case of the search. *)
let within_bound ~iters (r : P.result) =
  r.P.stats.P.bracket_probes <= 4
  && r.P.stats.P.bisect_probes <= max 0 ((3 * iters) - 1)

let test_sequential_vs_bisection () =
  List.iter
    (fun (name, margin) ->
      List.iter
        (fun iters ->
          let seq_total = ref 0 and bis_total = ref 0 in
          List.iter
            (fun t ->
              let case = Printf.sprintf "%s iters=%d t=%g" name iters t in
              let probe, probed = traced (threshold ~margin t) in
              let seq = P.search ~iters probe in
              let bis_probe, bis_probed = traced (fun r -> r <= t) in
              let good, bad = bisection ~iters bis_probe in
              same_float (case ^ " radius") good seq.P.radius;
              same_float (case ^ " good") good seq.P.good;
              same_float (case ^ " bad") bad seq.P.bad;
              if not (within_bound ~iters seq) then
                Alcotest.failf "%s: %d + %d probes over the bound" case
                  seq.P.stats.P.bracket_probes seq.P.stats.P.bisect_probes;
              (* every probe lies on bisection's grid (multiples of
                 2^-11 at iters = 10) *)
              if iters = 10 then
                Array.iter
                  (fun r ->
                    if not (Float.is_integer (r *. 2048.0)) then
                      Alcotest.failf "%s: probe %h is off the grid" case r)
                  (probed ());
              seq_total := !seq_total + probes seq;
              bis_total := !bis_total + Array.length (bis_probed ()))
            thresholds;
          (* a margin that tracks the distance to the edge saves probes *)
          if iters = 10 && (name = "linear" || name = "saturating") then
            if !seq_total >= !bis_total then
              Alcotest.failf "%s: %d sequential probes, not fewer than %d" name
                !seq_total !bis_total)
        [ 0; 1; 2; 5; 10 ])
    margin_models

(* Certified, failed, certified, failed at grid points 300..303 of the
   1024-step grid over [0, 0.5]: whatever the search returns must be a
   probed certified point whose grid successor was probed and failed. *)
let test_non_monotone () =
  let index r = int_of_float (r *. 2048.0) in
  List.iter
    (fun (name, margin) ->
      let probed = ref [] in
      let probe r =
        let k = index r in
        let ok = k <= 300 || k = 302 in
        let t = if ok then r +. 1e-4 else r -. 1e-4 in
        probed := (r, ok) :: !probed;
        if ok then P.Good (margin t r) else P.Bad (margin t r)
      in
      let res = P.search ~iters:10 probe in
      let was r ok = List.mem (r, ok) !probed in
      Helpers.check_true (name ^ ": radius probed Good")
        (was res.P.radius true);
      Helpers.check_true (name ^ ": bad probed Bad") (was res.P.bad false);
      Helpers.check_true (name ^ ": bad is the next grid point")
        (index res.P.bad = index res.P.radius + 1);
      Helpers.check_true (name ^ ": radius at an edge")
        (List.mem (index res.P.radius) [ 300; 302 ]))
    margin_models

(* A faulted probe carries no margin: the search takes the same steps as
   when those probes report Bad with an unknown margin. *)
let test_faulted_margins_ignored () =
  let faulty r = r > 0.2 && r < 0.35 in
  let run as_fault =
    let probe, probed =
      traced (fun r ->
          if faulty r then as_fault r else threshold ~margin:linear 0.3 r)
    in
    let res = P.search ~iters:10 probe in
    (res, probed ())
  in
  let f, f_probed = run (fun _ -> P.Faulted Deept.Verdict.Timeout) in
  let b, b_probed = run (fun _ -> P.Bad nan) in
  check_bits "same probes" b_probed f_probed;
  same_float "same radius" b.P.radius f.P.radius;
  Helpers.check_true "faults recorded" (f.P.stats.P.faulted <> []);
  Helpers.check_true "radius below the fault zone" (f.P.radius <= 0.2)

(* --- probe accounting: bracket vs refinement split ------------------- *)

let test_probe_accounting () =
  (* t = 0.3 with no margins: the midpoint 0.25 certifies, hi = 0.5
     fails (1 bracket probe), then 9 bisections: 1 + 10 *)
  let seq = P.search ~iters:10 (threshold 0.3) in
  Helpers.check_true "seq bracket probes"
    (seq.P.stats.P.bracket_probes = 1);
  Helpers.check_true "seq bisect probes" (seq.P.stats.P.bisect_probes = 10);
  Helpers.check_true "seq no faults" (seq.P.stats.P.faulted = []);
  (* t = 0.2: the midpoint fails, so hi is never probed *)
  let lazy_hi = P.search ~iters:10 (threshold 0.2) in
  Helpers.check_true "lazy hi bracket probes"
    (lazy_hi.P.stats.P.bracket_probes = 0);
  Helpers.check_true "lazy hi bisect probes"
    (lazy_hi.P.stats.P.bisect_probes = 10);
  (* t = 0.3 with margin t - r: 0.25 (+0.05) and 0.5 (-0.2) interpolate
     to grid point 614.4 -> 614 = 0.2998046875 (certified); the next
     estimate rounds back to 614 and is clamped to 615 (failed) *)
  let lin = P.search ~iters:10 (threshold ~margin:linear 0.3) in
  Helpers.check_true "linear bracket probes"
    (lin.P.stats.P.bracket_probes = 1);
  Helpers.check_true "linear bisect probes" (lin.P.stats.P.bisect_probes = 3);
  same_float "linear radius" 0.2998046875 lin.P.radius;
  same_float "linear bad" 0.30029296875 lin.P.bad;
  (* bisection at t = 0.3 probes hi = 0.5 and then 10 midpoints *)
  let bis_probe, bis_probed = traced (fun r -> r <= 0.3) in
  let good, _ = bisection ~iters:10 bis_probe in
  Helpers.check_true "bisection probes" (Array.length (bis_probed ()) = 11);
  same_float "bisection radius" good seq.P.radius;
  (* all-Good predicate: bisection grows to 8 * hi = 4 in 4 probes *)
  let unb_probe, unb_probed = traced (fun _ -> true) in
  let unb_good, unb_bad = bisection ~iters:10 unb_probe in
  same_float "bisection unbounded radius = 8 * hi" 4.0 unb_good;
  Helpers.check_true "bisection unbounded bad" (unb_bad = infinity);
  Helpers.check_true "bisection unbounded probes"
    (Array.length (unb_probed ()) = 4);
  (* the sequential search probes the midpoint before growing: 1 + 4 *)
  let unb_seq = P.search ~iters:10 (fun _ -> P.Good nan) in
  same_float "seq unbounded radius = 8 * hi" 4.0 unb_seq.P.radius;
  Helpers.check_true "seq unbounded bad" (unb_seq.P.bad = infinity);
  Helpers.check_true "seq unbounded probes"
    (unb_seq.P.stats.P.bracket_probes = 4
    && unb_seq.P.stats.P.bisect_probes = 1)

(* --- faulted probes count "bad" and are reported ---------------------- *)

let test_faulted_probes () =
  (* probes above 0.2 abort: the bracket converges below the fault zone
     and the radius still comes from a probe that genuinely certified *)
  let flaky r =
    if r > 0.2 then raise (Deept.Verdict.Abort Deept.Verdict.Timeout)
    else r <= 0.4
  in
  List.iter
    (fun iters ->
      let res = P.search ~iters (P.probe_of flaky) in
      Helpers.check_true "faults reported" (res.P.stats.P.faulted <> []);
      Helpers.check_true "radius below fault zone" (res.P.radius <= 0.2);
      Helpers.check_true "radius certified" (res.P.radius <= 0.4);
      List.iter
        (fun (r, reason) ->
          Helpers.check_true "faulted radius in fault zone" (r > 0.2);
          Helpers.check_true "reason preserved"
            (Deept.Verdict.equal
               (Deept.Verdict.Unknown reason)
               (Deept.Verdict.Unknown Deept.Verdict.Timeout)))
        res.P.stats.P.faulted)
    [ 0; 1; 2; 5; 10 ];
  (* every probe faults: the search terminates at lo with nothing certified *)
  let all_fault _ = raise (Deept.Verdict.Abort Deept.Verdict.Timeout) in
  let res = P.search ~iters:10 (P.probe_of all_fault) in
  same_float "all faults -> lo" 0.0 res.P.radius;
  Helpers.check_true "all faults recorded" (res.P.stats.P.faulted <> [])

(* --- radius reports ------------------------------------------------- *)

(* under an injected fault every probe aborts: the reported radius is 0
   and the faults surface in the report instead of crashing the search *)
let test_fault_injection_radius () =
  let program = Helpers.tiny_program ~layers:1 72 in
  let rng = Rng.create 73 in
  let x = Mat.random_gaussian rng 3 (Ir.out_dim program 0) 0.7 in
  let true_class = Nn.Forward.predict program x in
  let cfg =
    { Deept.Config.fast with
      Deept.Config.fault = Some (Deept.Config.fault 0 Deept.Config.Inject_nan)
    }
  in
  let rep =
    C.certified_radius_v cfg program ~p:Lp.L2 x ~word:1 ~true_class ()
  in
  same_float "all probes fault -> 0" 0.0 rep.C.radius;
  Helpers.check_true "faults reported" (rep.C.faulted_probes <> [])

(* --- committed small_3 pins (skips when the model is absent) ---------- *)

let test_small3_pins () =
  if not (Sys.file_exists "../data/small_3.model") then ()
  else begin
    Zoo.data_dir := "../data";
    let entry = Zoo.entry "small_3" in
    let model = Zoo.load_or_train ~log:(fun _ -> ()) "small_3" in
    let c = Zoo.corpus_of entry.Zoo.corpus in
    let program = Nn.Model.to_ir model in
    let toks, label = List.nth c.Text.Corpus.test 0 in
    let x = Nn.Model.embed_tokens model toks in
    let certifies r =
      r > 0.0
      && C.certify Deept.Config.fast program
           (Deept.Region.lp_ball ~p:Lp.L2 x ~word:1 ~radius:r)
           ~true_class:label
    in
    (* the margin-guided search reproduces the seed pin *)
    Helpers.check_float ~tol:0.0 "sequential pin" 0.181640625
      (C.certified_radius Deept.Config.fast program ~p:Lp.L2 x ~word:1
         ~true_class:label ());
    (* and so does the literal bisection, bit for bit *)
    let good, _ = bisection ~iters:10 certifies in
    Helpers.check_float ~tol:0.0 "bisection pin" 0.181640625 good
  end

(* --- satellite: contains_sample early exit = full scan ---------------- *)

let contains_reference ?(tol = 1e-7) (z : Z.t) (m : Mat.t) =
  Mat.dims m = (z.Z.vrows, z.Z.vcols)
  && begin
       let ok = ref true in
       for v = 0 to Z.num_vars z - 1 do
         let itv = Z.bounds_var z v in
         let x = m.Mat.data.(v) in
         if x < itv.Interval.Itv.lo -. tol || x > itv.Interval.Itv.hi +. tol
         then ok := false
       done;
       !ok
     end

let test_contains_sample_equiv () =
  let rng = Rng.create 80 in
  for trial = 1 to 40 do
    let z = Helpers.random_zonotope ~vrows:3 ~vcols:4 ~ep:2 ~ee:3 rng in
    (* genuine samples, near-boundary perturbations and far outliers *)
    let s = Z.sample rng z in
    let candidates =
      [
        s;
        Mat.mapi (fun _ _ v -> v +. Rng.uniform rng (-0.5) 0.5) s;
        Mat.mapi (fun _ _ v -> v +. 100.0) s;
        Mat.create 1 1;
      ]
    in
    List.iter
      (fun m ->
        if Z.contains_sample z m <> contains_reference z m then
          Alcotest.failf "trial %d: early-exit disagrees with full scan"
            trial)
      candidates;
    Helpers.check_true "sample contained" (Z.contains_sample z s)
  done

let () =
  Alcotest.run "psearch"
    [
      ( "engine",
        [
          Alcotest.test_case "sequential = bisection" `Quick
            test_sequential_is_bisection;
          Alcotest.test_case "sequential vs bisection under margins" `Quick
            test_sequential_vs_bisection;
          Alcotest.test_case "non-monotone predicate" `Quick test_non_monotone;
          Alcotest.test_case "faulted margins ignored" `Quick
            test_faulted_margins_ignored;
          Alcotest.test_case "probe accounting" `Quick test_probe_accounting;
          Alcotest.test_case "faulted probes" `Quick test_faulted_probes;
        ] );
      ( "radius",
        [
          Alcotest.test_case "fault injection" `Quick
            test_fault_injection_radius;
        ] );
      ("pins", [ Alcotest.test_case "small_3" `Quick test_small3_pins ]);
      ( "satellites",
        [
          Alcotest.test_case "contains_sample early exit" `Quick
            test_contains_sample_equiv;
        ] );
    ]
