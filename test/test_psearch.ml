(* Speculative parallel radius search (Psearch) and its satellites: the
   margin-guided sequential search against Grid 1 (bisection), runner
   agreement (serial / fork, and fork's fallback while domains are
   live), probe accounting, fault containment, affine-prefix
   amortization and the early-exit contains_sample. *)

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

(* --- grid n = 1 is bisection, probe-for-probe; sequential agrees ----- *)

let test_grid1_bit_identical () =
  List.iter
    (fun t ->
      let bis_probe, bis_probes = traced (fun r -> r <= t) in
      let good, bad = bisection ~iters:10 bis_probe in
      let grid_probe, grid_probes = traced (threshold t) in
      let grid = P.search ~iters:10 ~exec:(P.Grid 1) grid_probe in
      check_bits
        (Printf.sprintf "t=%g probed radii" t)
        (bis_probes ()) (grid_probes ());
      same_float (Printf.sprintf "t=%g grid good" t) good grid.P.good;
      same_float (Printf.sprintf "t=%g grid bad" t) bad grid.P.bad;
      let seq = P.search ~iters:10 ~exec:P.Sequential (threshold t) in
      same_float (Printf.sprintf "t=%g radius" t) grid.P.radius seq.P.radius;
      same_float (Printf.sprintf "t=%g good" t) grid.P.good seq.P.good;
      same_float (Printf.sprintf "t=%g bad" t) grid.P.bad seq.P.bad)
    thresholds

(* --- the margin-guided search against Grid 1 -------------------------- *)

(* The documented worst case of the sequential search. *)
let within_bound ~iters (r : P.result) =
  r.P.stats.P.bracket_probes <= 4
  && r.P.stats.P.bisect_probes <= max 0 ((3 * iters) - 1)

let test_sequential_vs_grid1 () =
  List.iter
    (fun (name, margin) ->
      List.iter
        (fun iters ->
          let seq_total = ref 0 and grid_total = ref 0 in
          List.iter
            (fun t ->
              let case = Printf.sprintf "%s iters=%d t=%g" name iters t in
              let probe, probed = traced (threshold ~margin t) in
              let seq = P.search ~iters ~exec:P.Sequential probe in
              let grid = P.search ~iters ~exec:(P.Grid 1) (threshold t) in
              same_float (case ^ " radius") grid.P.radius seq.P.radius;
              same_float (case ^ " good") grid.P.good seq.P.good;
              same_float (case ^ " bad") grid.P.bad seq.P.bad;
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
              grid_total := !grid_total + probes grid)
            thresholds;
          (* a margin that tracks the distance to the edge saves probes *)
          if iters = 10 && (name = "linear" || name = "saturating") then
            if !seq_total >= !grid_total then
              Alcotest.failf "%s: %d sequential probes, not fewer than %d" name
                !seq_total !grid_total)
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
      let res = P.search ~iters:10 ~exec:P.Sequential probe in
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
    let res = P.search ~iters:10 ~exec:P.Sequential probe in
    (res, probed ())
  in
  let f, f_probed = run (fun _ -> P.Faulted Deept.Verdict.Timeout) in
  let b, b_probed = run (fun _ -> P.Bad nan) in
  check_bits "same probes" b_probed f_probed;
  same_float "same radius" b.P.radius f.P.radius;
  Helpers.check_true "faults recorded" (f.P.stats.P.faulted <> []);
  Helpers.check_true "radius below the fault zone" (f.P.radius <= 0.2)

(* --- probe accounting: bracket vs refinement split, round counts ----- *)

let test_probe_accounting () =
  (* t = 0.3 with no margins: the midpoint 0.25 certifies, hi = 0.5
     fails (1 bracket probe), then 9 bisections: 1 + 10 *)
  let seq = P.search ~iters:10 ~exec:P.Sequential (threshold 0.3) in
  Helpers.check_true "seq bracket probes"
    (seq.P.stats.P.bracket_probes = 1);
  Helpers.check_true "seq bisect probes" (seq.P.stats.P.bisect_probes = 10);
  Helpers.check_true "seq rounds" (seq.P.stats.P.rounds = 0);
  Helpers.check_true "seq no faults" (seq.P.stats.P.faulted = []);
  (* t = 0.2: the midpoint fails, so hi is never probed *)
  let lazy_hi = P.search ~iters:10 ~exec:P.Sequential (threshold 0.2) in
  Helpers.check_true "lazy hi bracket probes"
    (lazy_hi.P.stats.P.bracket_probes = 0);
  Helpers.check_true "lazy hi bisect probes"
    (lazy_hi.P.stats.P.bisect_probes = 10);
  (* t = 0.3 with margin t - r: 0.25 (+0.05) and 0.5 (-0.2) interpolate
     to grid point 614.4 -> 614 = 0.2998046875 (certified); the next
     estimate rounds back to 614 and is clamped to 615 (failed) *)
  let lin =
    P.search ~iters:10 ~exec:P.Sequential (threshold ~margin:linear 0.3)
  in
  Helpers.check_true "linear bracket probes"
    (lin.P.stats.P.bracket_probes = 1);
  Helpers.check_true "linear bisect probes" (lin.P.stats.P.bisect_probes = 3);
  same_float "linear radius" 0.2998046875 lin.P.radius;
  same_float "linear bad" 0.30029296875 lin.P.bad;
  (* grid 4, wave-0 brackets [0.25, 0.375): rounds from the width target
     2^10 with the n-times-narrower wave-0 credit: 4 * 5^4 >= 1024 *)
  let g4 = P.search ~iters:10 ~exec:(P.Grid 4) (threshold 0.3) in
  Helpers.check_true "grid4 bracket probes"
    (g4.P.stats.P.bracket_probes = 4);
  Helpers.check_true "grid4 rounds" (g4.P.stats.P.rounds = 4);
  Helpers.check_true "grid4 bisect probes" (g4.P.stats.P.bisect_probes = 16);
  (* grid 1 has no wave-0 credit: one bisection per round, iters rounds *)
  let g1 = P.search ~iters:10 ~exec:(P.Grid 1) (threshold 0.3) in
  Helpers.check_true "grid1 rounds" (g1.P.stats.P.rounds = 10);
  Helpers.check_true "grid1 bisect probes" (g1.P.stats.P.bisect_probes = 10);
  (* all-Good predicate: growth stops once [good] reaches 8 * hi, but a
     wide wave may speculate past the sequential cap (n = 4 doubles four
     times in one wave); grid 1 stops exactly where sequential does *)
  let unb = P.search ~iters:10 ~exec:(P.Grid 4) (fun _ -> P.Good nan) in
  Helpers.check_true "unbounded bad" (unb.P.bad = infinity);
  same_float "grid4 unbounded radius" 8.0 unb.P.radius;
  Helpers.check_true "unbounded rounds" (unb.P.stats.P.rounds = 0);
  let unb1 = P.search ~iters:10 ~exec:(P.Grid 1) (fun _ -> P.Good nan) in
  same_float "grid1 unbounded radius = 8 * hi" 4.0 unb1.P.radius;
  (* the sequential search probes the midpoint before growing: 1 + 4 *)
  let unb_seq =
    P.search ~iters:10 ~exec:P.Sequential (fun _ -> P.Good nan)
  in
  same_float "seq unbounded radius = 8 * hi" 4.0 unb_seq.P.radius;
  Helpers.check_true "seq unbounded probes"
    (unb_seq.P.stats.P.bracket_probes = 4
    && unb_seq.P.stats.P.bisect_probes = 1)

(* --- the grid bracket is always correct and at most sequential's ----- *)

let test_grid_bracket_dominates () =
  List.iter
    (fun t ->
      let seq = P.search ~iters:10 ~exec:P.Sequential (threshold t) in
      let g = P.search ~iters:10 ~exec:(P.Grid 4) (threshold t) in
      Helpers.check_true
        (Printf.sprintf "t=%g grid radius certifies" t)
        (g.P.radius <= t || (g.P.radius = 0.0 && t < g.P.bad));
      if g.P.bad <> infinity then begin
        Helpers.check_true
          (Printf.sprintf "t=%g bracket holds t" t)
          (g.P.good <= t && t < g.P.bad);
        Helpers.check_true
          (Printf.sprintf "t=%g grid width <= sequential" t)
          (g.P.bad -. g.P.good <= seq.P.bad -. seq.P.good +. 1e-15)
      end)
    thresholds

(* --- faulted probes count "bad" and are reported ---------------------- *)

let test_faulted_probes () =
  (* probes above 0.2 abort: the bracket converges below the fault zone
     and the radius still comes from a probe that genuinely certified *)
  let flaky r =
    if r > 0.2 then raise (Deept.Verdict.Abort Deept.Verdict.Timeout)
    else r <= 0.4
  in
  List.iter
    (fun exec ->
      let res = P.search ~iters:10 ~exec (P.probe_of flaky) in
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
    [ P.Sequential; P.Grid 1; P.Grid 4 ];
  (* every probe faults: the search terminates at lo with nothing certified *)
  let all_fault _ = raise (Deept.Verdict.Abort Deept.Verdict.Timeout) in
  let res = P.search ~iters:10 ~exec:(P.Grid 3) (P.probe_of all_fault) in
  same_float "all faults -> lo" 0.0 res.P.radius;
  Helpers.check_true "all faults recorded" (res.P.stats.P.faulted <> [])

(* --- runners agree bit-for-bit ----------------------------------------

   Ordering matters: the fork tests run before anything spawns worker
   domains (the runtime forbids fork afterwards, and fork_runner would
   silently degrade to serial — these tests must exercise real forks).
   The degraded-fork case runs last; serial is the common reference. *)

let compare_runner name runner t =
  let reference = P.search ~iters:8 ~exec:(P.Grid 3) (threshold t) in
  let res = P.search ~iters:8 ~exec:(P.Grid 3) ~runner (threshold t) in
  same_float (Printf.sprintf "t=%g %s radius" t name) reference.P.radius
    res.P.radius;
  same_float (Printf.sprintf "t=%g %s bad" t name) reference.P.bad res.P.bad;
  Helpers.check_true
    (Printf.sprintf "t=%g %s probe counts" t name)
    (res.P.stats.P.bisect_probes = reference.P.stats.P.bisect_probes)

let test_fork_runner_agrees () =
  Helpers.check_true "no domains yet" (not (Dpool.domains_active ()));
  List.iter (compare_runner "fork" P.fork_runner) [ 0.3; 0.7 ]

(* with live domains, fork_runner degrades to serial instead of the
   runtime's "fork while domains run" crash *)
let test_fork_degrades_with_live_domains () =
  let dp = Dpool.create ~force:true 4 in
  Fun.protect ~finally:(fun () -> Dpool.shutdown dp) @@ fun () ->
  Helpers.check_true "domains live" (Dpool.domains_active ());
  compare_runner "fork-degraded" P.fork_runner 0.3

(* a probe process that dies is a Faulted outcome, not a crash of the
   search: the fold treats it as "bad" and the bracket stays correct *)
let test_fork_crash_contained () =
  let crashing r = if r > 0.25 then Unix._exit 9 else r <= 0.4 in
  let res =
    P.search ~iters:6 ~exec:(P.Grid 2) ~runner:P.fork_runner
      (P.probe_of crashing)
  in
  Helpers.check_true "crashes reported as faults" (res.P.stats.P.faulted <> []);
  Helpers.check_true "radius below crash zone" (res.P.radius <= 0.25)

(* --- affine-prefix amortization --------------------------------------- *)

let tiny_vit seed =
  let rng = Rng.create seed in
  Nn.Model.create rng
    {
      Nn.Model.default_config with
      vocab_size = 16;
      max_len = 6;
      d_model = 8;
      d_hidden = 8;
      heads = 2;
      layers = 1;
      patch_dim = Some 5;
    }

let multi_probe ?(share_prefix = true) ?(probes = 2) () =
  Deept.Config.with_search
    (Deept.Config.search ~probes ~share_prefix
       ~probe_backend:Deept.Config.Serial_probes ())
    Deept.Config.fast

(* Rescaling the unit-radius prefix by r matches re-propagating at r:
   centers bit-equal (radius-independent through affine ops), generator
   coefficients within 1e-9 (float distributivity only). *)
let test_prefix_rescale_close () =
  let program = Nn.Model.to_ir (tiny_vit 70) in
  let rng = Rng.create 71 in
  let x = Mat.random_gaussian rng 4 5 0.5 in
  let cfg = multi_probe () in
  match C.search_prefix cfg program ~p:Lp.L2 x ~word:1 with
  | None -> Alcotest.fail "expected a shared prefix on the vit model"
  | Some (vals, len) ->
      List.iter
        (fun r ->
          let scaled = Array.map (Z.scale_coeffs r) vals in
          let region = Deept.Region.lp_ball ~p:Lp.L2 x ~word:1 ~radius:r in
          let direct = Deept.Propagate.run cfg program region in
          let shared =
            Deept.Propagate.run ~prefix:(scaled, len) cfg program region
          in
          check_bits "rescaled center bit-equal" direct.Z.center.Mat.data
            shared.Z.center.Mat.data;
          let close name (a : Mat.t) (b : Mat.t) =
            check_bits (name ^ " dims")
              [| float_of_int (Mat.rows a); float_of_int (Mat.cols a) |]
              [| float_of_int (Mat.rows b); float_of_int (Mat.cols b) |];
            Array.iteri
              (fun i v ->
                if Float.abs (v -. b.Mat.data.(i)) > 1e-9 then
                  Alcotest.failf "%s: index %d: %.17g vs %.17g" name i v
                    b.Mat.data.(i))
              a.Mat.data
          in
          close "phi" direct.Z.phi shared.Z.phi;
          close "eps" direct.Z.eps shared.Z.eps)
        [ 0.0371; 0.25; 1.7 ]

(* end to end: the multi-probe radius with sharing on agrees with sharing
   off, and the result still certifies from scratch *)
let test_prefix_share_end_to_end () =
  let program = Nn.Model.to_ir (tiny_vit 70) in
  let rng = Rng.create 71 in
  let x = Mat.random_gaussian rng 4 5 0.5 in
  let true_class = Nn.Forward.predict program x in
  let radius cfg =
    C.certified_radius cfg program ~p:Lp.L2 x ~word:1 ~true_class ()
  in
  let r_on = radius (multi_probe ()) in
  let r_off = radius (multi_probe ~share_prefix:false ()) in
  Helpers.check_float ~tol:1e-6 "shared = unshared radius" r_off r_on;
  if r_on > 0.0 then
    Helpers.check_true "shared radius certifies from scratch"
      (C.certify Deept.Config.fast program
         (Deept.Region.lp_ball ~p:Lp.L2 x ~word:1 ~radius:r_on)
         ~true_class)

let test_prefix_gating () =
  let vit = Nn.Model.to_ir (tiny_vit 70) in
  let text = Helpers.tiny_program ~layers:1 72 in
  let rng = Rng.create 73 in
  let xv = Mat.random_gaussian rng 4 5 0.5 in
  let xt = Mat.random_gaussian rng 3 (Ir.out_dim text 0) 0.7 in
  let some cfg = C.search_prefix cfg vit ~p:Lp.L2 xv ~word:1 <> None in
  Helpers.check_true "multi-probe vit shares" (some (multi_probe ()));
  Helpers.check_true "probes = 1 never shares"
    (not (some (multi_probe ~probes:1 ())));
  Helpers.check_true "share_prefix = false honored"
    (not (some (multi_probe ~share_prefix:false ())));
  let faulted =
    { (multi_probe ()) with
      Deept.Config.fault = Some (Deept.Config.fault 0 Deept.Config.Inject_nan)
    }
  in
  Helpers.check_true "fault injection disables sharing" (not (some faulted));
  Helpers.check_true "text model has no prefix"
    (C.search_prefix (multi_probe ()) text ~p:Lp.L2 xt ~word:1 = None)

(* under an injected fault every probe aborts: the reported radius is 0
   and the faults surface in the report instead of crashing the search *)
let test_fault_injection_radius () =
  let program = Nn.Model.to_ir (tiny_vit 70) in
  let rng = Rng.create 71 in
  let x = Mat.random_gaussian rng 4 5 0.5 in
  let true_class = Nn.Forward.predict program x in
  let cfg =
    { (multi_probe ()) with
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
    (* the default (probes = 1) search still reproduces the seed pin *)
    Helpers.check_float ~tol:0.0 "sequential pin" 0.181640625
      (C.certified_radius Deept.Config.fast program ~p:Lp.L2 x ~word:1
         ~true_class:label ());
    (* Grid 1 is bisection: the same pin, bit-for-bit *)
    let g1 = P.search ~iters:10 ~exec:(P.Grid 1) (P.probe_of certifies) in
    Helpers.check_float ~tol:0.0 "grid-1 pin" 0.181640625 g1.P.radius;
    (* a real multi-probe search: certifies, bracket at most sequential's *)
    let rep =
      C.certified_radius_v (multi_probe ()) program ~p:Lp.L2 x ~word:1
        ~true_class:label ()
    in
    let good, bad = rep.C.bracket in
    Helpers.check_true "grid radius certifies" (certifies rep.C.radius);
    Helpers.check_true "grid bracket at most sequential's"
      (bad -. good <= 0.5 /. 1024.0 +. 1e-15)
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
          Alcotest.test_case "grid 1 = sequential" `Quick
            test_grid1_bit_identical;
          Alcotest.test_case "sequential vs grid 1 under margins" `Quick
            test_sequential_vs_grid1;
          Alcotest.test_case "non-monotone predicate" `Quick test_non_monotone;
          Alcotest.test_case "faulted margins ignored" `Quick
            test_faulted_margins_ignored;
          Alcotest.test_case "probe accounting" `Quick test_probe_accounting;
          Alcotest.test_case "grid bracket dominates" `Quick
            test_grid_bracket_dominates;
          Alcotest.test_case "faulted probes" `Quick test_faulted_probes;
        ] );
      ( "runners",
        [
          Alcotest.test_case "fork agrees with serial" `Quick
            test_fork_runner_agrees;
          Alcotest.test_case "fork crash contained" `Quick
            test_fork_crash_contained;
          Alcotest.test_case "fork degrades with live domains" `Quick
            test_fork_degrades_with_live_domains;
        ] );
      ( "amortization",
        [
          Alcotest.test_case "rescale close" `Quick test_prefix_rescale_close;
          Alcotest.test_case "end to end" `Quick test_prefix_share_end_to_end;
          Alcotest.test_case "gating" `Quick test_prefix_gating;
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
