open Tensor

(* Branch-and-bound refinement: the ladder's upward direction.

   When a propagation is clean but the margin lower bound is not
   positive (Unknown Imprecise), the final zonotope says exactly which
   noise symbols lost the margin: the losing logit difference
   [logit_t - logit_j*] is an affine form over the symbols, and a
   symbol's |coefficient| in that form is its contribution to the bound
   gap. Splitting a strong symbol's range in half and re-certifying both
   halves tightens every downstream nonlinear transformer (their
   over-approximation error shrinks with input width), so a query the
   abstraction just barely lost can be recovered.

   Soundness is by branch coverage, not by ranking: the branches of one
   split jointly cover the parent region (Zonotope.restrict_symbol), so
   "every branch certifies" proves the parent. The ranking only decides
   *which* symbol to split — a mis-attributed coefficient (possible for
   ε symbols once Reduction has compacted columns mid-network) wastes
   budget but can never unsound the answer. Falsification is out of
   scope here: a branch verdict is margin-only, so refinement can prove
   Certified or report Unknown, never flip to Falsified. *)

type branch_eval = { bverdict : Verdict.t; props : int; bdepth : int }
type wave = (int -> branch_eval) -> int -> branch_eval array

type report = {
  verdict : Verdict.t;
  split : Zonotope.symbol list;
  branches : int;
  depth : int;
}

let no_split verdict = { verdict; split = []; branches = 0; depth = 0 }

(* ---------------- the wave runner ---------------- *)

(* A wave evaluates branches [f 0 .. f (n-1)] and returns the results in
   branch order. Every wave runs in the calling process; [certify_v
   ?wave] is only the seam the union tests use to fake branch results. *)

let serial_wave f n =
  if n = 0 then [||]
  else begin
    (* explicit ascending loop: the evaluation order is part of the
       determinism contract, not an Array.init implementation detail *)
    let out = Array.make n (f 0) in
    for i = 1 to n - 1 do
      out.(i) <- f i
    done;
    out
  end

(* Certify.margin with the adversary remembered: the smallest margin
   lower bound over classes j ≠ t, and that argmin class (the losing
   logit). Ties keep the smaller class index — the scan order — so the
   choice is deterministic. *)
let losing_margin (out : Zonotope.t) ~true_class =
  if out.Zonotope.vrows <> 1 then
    invalid_arg "Brefine.losing_margin: output not 1 x C";
  let c = out.Zonotope.vcols in
  if true_class < 0 || true_class >= c then
    invalid_arg "Brefine.losing_margin: class out of range";
  let ct, at, bt = Zonotope.var_affine out true_class in
  let q = Lp.dual out.Zonotope.p in
  let best = ref infinity and best_j = ref (-1) in
  for j = 0 to c - 1 do
    if j <> true_class then begin
      let cj, aj, bj = Zonotope.var_affine out j in
      let lb =
        ct -. cj -. Lp.norm q (Vecops.sub at aj) -. Vecops.l1 (Vecops.sub bt bj)
      in
      if lb < !best then begin
        best := lb;
        best_j := j
      end
    end
  done;
  (!best, !best_j)

(* Input symbols of [region] ranked by their |coefficient| contribution
   to the losing margin of [out], strongest first (ties: φ before ε,
   then ascending index — the construction order under a stable sort).
   Zero-contribution symbols are dropped: splitting them cannot move the
   bound. *)
let rank_symbols (out : Zonotope.t) (region : Zonotope.t) ~true_class =
  let _, j = losing_margin out ~true_class in
  if j < 0 then []
  else begin
    let _, at, bt = Zonotope.var_affine out true_class in
    let _, aj, bj = Zonotope.var_affine out j in
    let alpha = Vecops.sub at aj and beta = Vecops.sub bt bj in
    let weight (arr : float array) i =
      if i < Array.length arr then Float.abs arr.(i) else 0.0
    in
    let syms = ref [] in
    for i = Zonotope.num_eps region - 1 downto 0 do
      let w = weight beta i in
      if w > 0.0 then syms := (w, Zonotope.Eps i) :: !syms
    done;
    for i = Zonotope.num_phi region - 1 downto 0 do
      let w = weight alpha i in
      if w > 0.0 then syms := (w, Zonotope.Phi i) :: !syms
    done;
    List.stable_sort (fun (a, _) (b, _) -> Float.compare b a) !syms
  end

let verdict_of_margin m =
  if Float.is_nan m then Verdict.Unknown Verdict.Numerical_fault
  else if m = neg_infinity then Verdict.Unknown Verdict.Unbounded
  else if m > 0.0 then Verdict.Certified
  else Verdict.Unknown Verdict.Imprecise

(* Sound union semantics over one split wave: the branches jointly cover
   the parent, so all-Certified proves it; any faulted branch (abort,
   collapse) makes the union unsound to trust and the whole refinement
   answers with that branch's fault — the first one in branch order, a
   deterministic choice; otherwise some branch was merely imprecise and
   the parent stays Unknown Imprecise. *)
let combine (evals : branch_eval array) =
  if Array.for_all (fun e -> e.bverdict = Verdict.Certified) evals then
    Verdict.Certified
  else
    match Array.find_opt (fun e -> Verdict.is_fault e.bverdict) evals with
    | Some e -> e.bverdict
    | None -> Verdict.Unknown Verdict.Imprecise

(* Largest k with [1 <= k <= cap] and [2^k <= budget]; 0 if none. *)
let fit_k cap budget =
  let k = ref 0 in
  while !k < cap && 1 lsl (!k + 1) <= budget do
    incr k
  done;
  !k

(* Evaluate one branch region: propagate, settle on the margin, and —
   when still imprecise with depth and budget to spare — re-split it in
   branch order. A branch's result (and therefore the whole tree's) is
   a pure function of (cfg, program, region). *)
let rec eval_branch (cfg : Config.t) program ~true_class region ~budget
    ~depth_left =
  match Propagate.run cfg program region with
  | exception Zonotope.Unbounded ->
      { bverdict = Verdict.Unknown Verdict.Unbounded; props = 1; bdepth = 0 }
  | exception Verdict.Abort r ->
      { bverdict = Verdict.Unknown r; props = 1; bdepth = 0 }
  | out -> (
      let m, _ = losing_margin out ~true_class in
      match verdict_of_margin m with
      | Verdict.Unknown Verdict.Imprecise when depth_left > 0 && budget >= 2
        -> (
          match
            split_node cfg program ~true_class region out ~budget ~depth_left
              ~wave:serial_wave
          with
          | None ->
              {
                bverdict = Verdict.Unknown Verdict.Imprecise;
                props = 1;
                bdepth = 0;
              }
          | Some (v, props, d, _) ->
              { bverdict = v; props = 1 + props; bdepth = d })
      | v -> { bverdict = v; props = 1; bdepth = 0 })

(* Split an imprecise node: rank, choose k, evaluate the 2^k half
   combinations on [wave], combine. Returns [None] when no split fits
   (nothing splittable, or the budget cannot afford even one 2-way
   split). The remaining budget is shared evenly between the branches
   ((budget - n) / n each) *before* any branch runs, so a branch's
   recursion allowance never depends on sibling results. *)
and split_node (cfg : Config.t) program ~true_class region out ~budget
    ~depth_left ~wave =
  let r =
    match cfg.Config.refine with
    | Some r -> r
    | None -> invalid_arg "Brefine: cfg.refine is None"
  in
  let syms = rank_symbols out region ~true_class in
  let k = fit_k (min r.Config.top_k (List.length syms)) budget in
  if k < 1 then None
  else begin
    let chosen = List.filteri (fun i _ -> i < k) (List.map snd syms) in
    let n = 1 lsl k in
    let sub_budget = (budget - n) / n in
    let evals =
      wave
        (fun b ->
          (* Compact before propagating: splits re-center and append
             one-hot columns, leaving coverage-empty ones behind; a
             dropped column is ±0.0 in every row, so branch margins —
             and hence verdicts — are unchanged (zero-weight symbols are
             never ranked, so the split choice below is also immune).
             [Propagate.run] seeds its ctx from the region's ε width,
             keeping downstream symbol ids coherent. *)
          let region_b =
            List.fold_left
              (fun (z, i) sym ->
                let half =
                  if b land (1 lsl i) <> 0 then Zonotope.Upper
                  else Zonotope.Lower
                in
                (Zonotope.restrict_symbol z sym half, i + 1))
              (region, 0) chosen
            |> fst |> Zonotope.compact
          in
          eval_branch cfg program ~true_class region_b ~budget:sub_budget
            ~depth_left:(depth_left - 1))
        n
    in
    let verdict = combine evals in
    let props = Array.fold_left (fun a e -> a + e.props) 0 evals in
    let d = 1 + Array.fold_left (fun a e -> max a e.bdepth) 0 evals in
    Some (verdict, props, d, chosen)
  end

let certify_v ?(wave = serial_wave) ?out (cfg : Config.t) program region
    ~true_class =
  let rcfg =
    match cfg.Config.refine with
    | Some r -> r
    | None -> invalid_arg "Brefine.certify_v: cfg.refine is None"
  in
  let propagated =
    match out with
    | Some out -> Ok out
    | None -> (
        match Propagate.run cfg program region with
        | out -> Ok out
        | exception Zonotope.Unbounded -> Error Verdict.Unbounded
        | exception Verdict.Abort r -> Error r)
  in
  match propagated with
  | Error r -> no_split (Verdict.Unknown r)
  | Ok out -> (
      let m, _ = losing_margin out ~true_class in
      match verdict_of_margin m with
      | Verdict.Unknown Verdict.Imprecise -> (
          match
            split_node cfg program ~true_class region out
              ~budget:rcfg.Config.max_branches ~depth_left:rcfg.Config.depth
              ~wave
          with
          | None -> no_split (Verdict.Unknown Verdict.Imprecise)
          | Some (v, props, d, chosen) ->
              { verdict = v; split = chosen; branches = props; depth = d })
      | v -> no_split v)

let certify ?wave ?out cfg program region ~true_class =
  (certify_v ?wave ?out cfg program region ~true_class).verdict
  = Verdict.Certified
