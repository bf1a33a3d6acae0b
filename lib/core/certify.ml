open Tensor

let margin out ~true_class = fst (Brefine.losing_margin out ~true_class)

(* One propagation read as the typed verdict, the margin it was decided
   on ([nan] when the propagation raised) and, when it completed, the
   output zonotope. *)
let propagation ?from ?on_budget cfg program region ~true_class =
  match Propagate.run ?from ?on_budget cfg program region with
  | out ->
      let m = margin out ~true_class in
      (Brefine.verdict_of_margin m, m, Some out)
  | exception Zonotope.Unbounded -> (Verdict.Unknown Verdict.Unbounded, nan, None)
  | exception Verdict.Abort r -> (Verdict.Unknown r, nan, None)

let certify_margin cfg program region ~true_class =
  (* An Unbounded abstraction (overflowed exponential at an absurd radius)
     or an aborted propagation (budget, poison) simply cannot be
     certified. *)
  let _, m, _ = propagation cfg program region ~true_class in
  if Float.is_nan m then neg_infinity else m

let certify cfg program region ~true_class =
  certify_margin cfg program region ~true_class > 0.0

let certify_out ?from ?on_budget cfg program region ~true_class =
  let v, _, out = propagation ?from ?on_budget cfg program region ~true_class in
  (v, out)

let certify_v cfg program region ~true_class =
  fst (certify_out cfg program region ~true_class)

(* ---------------- radius search ---------------- *)

(* Validation kept here (with the historical messages) rather than in
   Psearch so hardening tests keep pinning the same errors. *)
let run_search ?(lo = 0.0) ?(hi = 0.5) ~iters probe =
  if hi <= lo then invalid_arg "Certify.max_radius: hi <= lo";
  if not (Float.is_finite hi && Float.is_finite lo) then
    invalid_arg "Certify.max_radius: bracket must be finite";
  Psearch.search ~lo ~hi ~iters probe

let max_radius ?lo ?hi ?(iters = 10) certifies =
  (* A probe that faults — typed abort or collapsed abstraction — counts as
     "bad": it may shrink the bracket but can never certify, so the search
     always terminates and only ever returns a radius that certified. *)
  (run_search ?lo ?hi ~iters (Psearch.probe_of certifies)).Psearch.radius

type radius_report = {
  radius : float;
  bracket : float * float;
  bracket_probes : int;
  bisect_probes : int;
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

let refine_edge (cfg : Config.t) program ~p x ~word ~true_class ?edge_out
    (good, bad) =
  match cfg.Config.refine with
  | None -> None
  | Some _ ->
      if not (Float.is_finite bad) || bad <= good then None
      else begin
        let certifies ?out radius =
          radius > 0.0
          && Brefine.certify ?out cfg program
               (Region.lp_ball ~p x ~word ~radius)
               ~true_class
        in
        (* the plain search's failing probe at [bad] already propagated
           this region under this config *)
        let out =
          match edge_out with Some (r, out) when r = bad -> Some out | _ -> None
        in
        if not (certifies ?out bad) then Some good
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
   goes to the search with its verdict. With [cfg.refine] set it also
   returns the output of the last probe that failed cleanly, with its
   radius: the bracket's [bad] end is always the last failed probe, so
   {!refine_edge} starts from it instead of propagating that region
   again. *)
let radius_search (cfg : Config.t) program ~p x ~word ~true_class ?hi ~iters ()
    =
  let keep = cfg.Config.refine <> None in
  let edge_out = ref None in
  let probe radius =
    if radius <= 0.0 then Psearch.Bad nan
    else
      let v, m, out =
        propagation cfg program (Region.lp_ball ~p x ~word ~radius) ~true_class
      in
      if keep && v <> Verdict.Certified then
        edge_out := Option.map (fun o -> (radius, o)) out;
      match v with
      | Verdict.Certified -> Psearch.Good m
      | Verdict.Falsified | Verdict.Unknown Verdict.Imprecise -> Psearch.Bad m
      | Verdict.Unknown r -> Psearch.Faulted r
  in
  let r = run_search ?hi ~iters probe in
  (r, !edge_out)

let certified_radius cfg program ~p x ~word ~true_class ?hi ?(iters = 10) () =
  let r, _ = radius_search cfg program ~p x ~word ~true_class ?hi ~iters () in
  r.Psearch.radius

let certified_radius_v cfg program ~p x ~word ~true_class ?hi ?(iters = 10) ()
    =
  let r, edge_out =
    radius_search cfg program ~p x ~word ~true_class ?hi ~iters ()
  in
  let refined_radius =
    refine_edge cfg program ~p x ~word ~true_class ?edge_out
      (r.Psearch.good, r.Psearch.bad)
  in
  {
    radius = r.Psearch.radius;
    bracket = (r.Psearch.good, r.Psearch.bad);
    bracket_probes = r.Psearch.stats.Psearch.bracket_probes;
    bisect_probes = r.Psearch.stats.Psearch.bisect_probes;
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
