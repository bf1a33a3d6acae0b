open Tensor

let margin (out : Zonotope.t) ~true_class =
  if out.Zonotope.vrows <> 1 then invalid_arg "Certify.margin: output not 1 x C";
  let c = out.Zonotope.vcols in
  if true_class < 0 || true_class >= c then invalid_arg "Certify.margin: class";
  let ct, at, bt = Zonotope.var_affine out true_class in
  let best = ref infinity in
  for j = 0 to c - 1 do
    if j <> true_class then begin
      let cj, aj, bj = Zonotope.var_affine out j in
      let alpha = Vecops.sub at aj in
      (* ε widths can differ between reads only through padding; var_affine
         returns rows of the same matrix, so they match. *)
      let beta = Vecops.sub bt bj in
      let q = Lp.dual out.Zonotope.p in
      let lb = ct -. cj -. Lp.norm q alpha -. Vecops.l1 beta in
      if lb < !best then best := lb
    end
  done;
  !best

(* One propagation read as the typed verdict and the margin it was
   decided on ([nan] when the propagation raised). *)
let verdict_margin ?prefix cfg program region ~true_class =
  match Propagate.run ?prefix cfg program region with
  | out ->
      let m = margin out ~true_class in
      let v =
        if Float.is_nan m then Verdict.Unknown Verdict.Numerical_fault
        else if m = neg_infinity then Verdict.Unknown Verdict.Unbounded
        else if m > 0.0 then Verdict.Certified
        else Verdict.Unknown Verdict.Imprecise
      in
      (v, m)
  | exception Zonotope.Unbounded -> (Verdict.Unknown Verdict.Unbounded, nan)
  | exception Verdict.Abort r -> (Verdict.Unknown r, nan)

let certify_margin ?prefix cfg program region ~true_class =
  (* An Unbounded abstraction (overflowed exponential at an absurd radius)
     or an aborted propagation (budget, poison) simply cannot be
     certified. *)
  let _, m = verdict_margin ?prefix cfg program region ~true_class in
  if Float.is_nan m then neg_infinity else m

let certify ?prefix cfg program region ~true_class =
  certify_margin ?prefix cfg program region ~true_class > 0.0

let certify_v ?prefix cfg program region ~true_class =
  fst (verdict_margin ?prefix cfg program region ~true_class)

(* ---------------- radius search ---------------- *)

let executor_of (s : Config.search) =
  if s.Config.probes <= 1 then Psearch.Sequential else Psearch.Grid s.Config.probes

let runner_of (s : Config.search) =
  match s.Config.probe_backend with
  | Config.Serial_probes -> Psearch.serial_runner
  | Config.Fork_probes -> Psearch.fork_runner

(* Validation kept here (with the historical messages) rather than in
   Psearch so hardening tests keep pinning the same errors. *)
let run_search ?(lo = 0.0) ?(hi = 0.5) ~iters ~(search : Config.search) probe =
  if hi <= lo then invalid_arg "Certify.max_radius: hi <= lo";
  if not (Float.is_finite hi && Float.is_finite lo) then
    invalid_arg "Certify.max_radius: bracket must be finite";
  Psearch.search ~lo ~hi ~iters ?rounds:search.Config.rounds
    ~exec:(executor_of search) ~runner:(runner_of search) probe

let max_radius ?lo ?hi ?(iters = 10) ?(search = Config.default_search) certifies
    =
  (* A probe that faults — typed abort or collapsed abstraction — counts as
     "bad": it may shrink the bracket but can never certify, so the search
     always terminates and only ever returns a radius that certified. *)
  (run_search ?lo ?hi ~iters ~search (Psearch.probe_of certifies)).Psearch.radius

(* Probe amortization: the leading affine prefix (ViT patch embedding) is
   an exact linear map, so a unit-radius input region propagated once
   yields, for every probe radius r, the prefix output by rescaling the
   generator coefficient matrices by r — the center is radius-independent
   and stays physically shared (Zonotope.scale_coeffs). Engaged only for
   multi-probe searches: float rescaling is within tolerance of, but not
   bit-identical to, re-propagation, and the probes = 1 radii are pinned
   bit-for-bit in the test suite. Disabled under fault injection (the
   fault must fire inside every probe, and Inject_nan/Inject_inf mutate
   the op output in place — unsafe on a shared center) and when
   [cfg.search.share_prefix] is off. *)
let search_prefix (cfg : Config.t) program ~p x ~word =
  let s = cfg.Config.search in
  if
    s.Config.probes <= 1
    || (not s.Config.share_prefix)
    || cfg.Config.fault <> None
  then None
  else
    match Propagate.affine_prefix_len program with
    | 0 -> None
    | len -> (
        match
          Propagate.run_prefix cfg program
            (Region.lp_ball ~p x ~word ~radius:1.0)
            ~len
        with
        | vals -> Some (vals, len)
        | exception _ -> None)

(* Rescale a shared prefix value array to probe radius [r]. Slots beyond
   the prefix all alias the input zonotope, so scaled values are memoized
   by physical equality to keep the aliasing (and the work) O(prefix). *)
let scale_vals r vals =
  let memo = ref [] in
  Array.map
    (fun z ->
      match List.assq_opt z !memo with
      | Some z' -> z'
      | None ->
          let z' = Zonotope.scale_coeffs r z in
          memo := (z, z') :: !memo;
          z')
    vals

type radius_report = {
  radius : float;
  bracket : float * float;
  bracket_probes : int;
  bisect_probes : int;
  rounds : int;
  faulted_probes : (float * Verdict.unknown_reason) list;
  refined_radius : float option;
}

(* Branch-and-bound refinement at the failing edge of the plain search's
   final bracket (good, bad). The first refined probe is [bad] itself —
   the smallest radius the *plain* config is known to fail at. Only if
   branch-and-bound certifies that edge does the search continue (a few
   bisections of [bad, 2*bad], all with the refined certifier);
   otherwise the plain radius stands. So a refined radius above the
   plain one is attributable to refinement alone, never to extra
   bisection of the plain bracket, and the refined probes — each up to
   1 + max_branches full propagations — are spent only where refinement
   has already proven it can move the edge. The probe is deterministic
   (Brefine's contract), so the refined radius is as reproducible as
   the plain one. *)
let refine_steps = 3

let refine_edge (cfg : Config.t) program ~p x ~word ~true_class (good, bad) =
  match cfg.Config.refine with
  | None -> None
  | Some _ ->
      if not (Float.is_finite bad) || bad <= good then None
      else begin
        let certifies radius =
          radius > 0.0
          && Brefine.certify cfg program
               (Region.lp_ball ~p x ~word ~radius)
               ~true_class
        in
        if not (certifies bad) then Some good
        else begin
          let g = ref bad and b = ref (2.0 *. bad) in
          for _ = 1 to refine_steps do
            let mid = 0.5 *. (!g +. !b) in
            if certifies mid then g := mid else b := mid
          done;
          Some !g
        end
      end

(* The DeepT radius search: each probe is one propagation, whose margin
   goes to the search with its verdict. *)
let radius_search cfg program ~p x ~word ~true_class ?hi ~iters () =
  let search = cfg.Config.search in
  let shared = search_prefix cfg program ~p x ~word in
  let probe radius =
    if radius <= 0.0 then Psearch.Bad nan
    else begin
      let prefix =
        Option.map (fun (vals, len) -> (scale_vals radius vals, len)) shared
      in
      match
        verdict_margin ?prefix cfg program
          (Region.lp_ball ~p x ~word ~radius)
          ~true_class
      with
      | Verdict.Certified, m -> Psearch.Good m
      | (Verdict.Falsified | Verdict.Unknown Verdict.Imprecise), m ->
          Psearch.Bad m
      | Verdict.Unknown r, _ -> Psearch.Faulted r
    end
  in
  run_search ?hi ~iters ~search probe

let certified_radius cfg program ~p x ~word ~true_class ?hi ?(iters = 10) () =
  let r = radius_search cfg program ~p x ~word ~true_class ?hi ~iters () in
  r.Psearch.radius

let certified_radius_v cfg program ~p x ~word ~true_class ?hi ?(iters = 10) ()
    =
  let r = radius_search cfg program ~p x ~word ~true_class ?hi ~iters () in
  let refined_radius =
    refine_edge cfg program ~p x ~word ~true_class
      (r.Psearch.good, r.Psearch.bad)
  in
  {
    radius = r.Psearch.radius;
    bracket = (r.Psearch.good, r.Psearch.bad);
    bracket_probes = r.Psearch.stats.Psearch.bracket_probes;
    bisect_probes = r.Psearch.stats.Psearch.bisect_probes;
    rounds = r.Psearch.stats.Psearch.rounds;
    faulted_probes = r.Psearch.stats.Psearch.faulted;
    refined_radius;
  }

let certify_synonyms cfg program x subs ~true_class =
  certify cfg program (Region.synonym_box x subs) ~true_class

let count_combinations subs =
  List.fold_left (fun acc (_, alts) -> acc * (1 + List.length alts)) 1 subs

let enumerate_synonyms ?(limit = 1_000_000) program x subs ~true_class =
  let subs = Array.of_list subs in
  let n = Array.length subs in
  let current = Mat.copy x in
  let checked = ref 0 in
  let ok = ref true in
  let d = Mat.cols x in
  let set_row pos (row : float array option) =
    match row with
    | None ->
        for j = 0 to d - 1 do
          Mat.set current pos j (Mat.get x pos j)
        done
    | Some r ->
        for j = 0 to d - 1 do
          Mat.set current pos j r.(j)
        done
  in
  let rec go i =
    if not !ok || !checked >= limit then ()
    else if i = n then begin
      incr checked;
      if Nn.Forward.predict program current <> true_class then ok := false
    end
    else begin
      let pos, alts = subs.(i) in
      set_row pos None;
      go (i + 1);
      List.iter
        (fun alt ->
          if !ok && !checked < limit then begin
            set_row pos (Some alt);
            go (i + 1)
          end)
        alts;
      set_row pos None
    end
  in
  go 0;
  (!ok, !checked)
