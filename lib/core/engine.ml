open Tensor

type rung =
  | Abstract of { rname : string; cfg : Config.t }
  | Box
  | Refine of { rname : string; cfg : Config.t }

type direction = Down | Up

type attempt = { rung_name : string; verdict : Verdict.t; direction : direction }

type outcome = {
  verdict : Verdict.t;
  rung_name : string;
  attempts : attempt list;
}

type ladder = { down : rung list; up : rung list }

let rung_name = function
  | Abstract { rname; _ } -> rname
  | Box -> "interval"
  | Refine { rname; _ } -> rname

let ladder ?(up = []) down =
  if down = [] then invalid_arg "Engine.ladder: empty down walk";
  { down; up }

let default_ladder (cfg : Config.t) =
  let base = Abstract { rname = Config.variant_name cfg.Config.variant; cfg } in
  let fast =
    if cfg.Config.variant = Config.Fast then []
    else
      [ Abstract { rname = "fast"; cfg = { cfg with Config.variant = Config.Fast } } ]
  in
  let small_k =
    if cfg.Config.reduction_k > 0 then max 8 (cfg.Config.reduction_k / 4) else 32
  in
  let reduced =
    if cfg.Config.reduction_k = 0 || small_k < cfg.Config.reduction_k then
      [
        Abstract
          {
            rname = Printf.sprintf "fast-k%d" small_k;
            cfg = { cfg with Config.variant = Config.Fast; reduction_k = small_k };
          };
      ]
    else []
  in
  (base :: fast) @ reduced @ [ Box ]

(* The upward walk: one branch-and-bound refinement rung, present only
   when the config opts into refinement — with [refine = None] the
   ladder is exactly the pre-refinement one-directional walk,
   bit-for-bit. *)
let refine_rungs (cfg : Config.t) =
  match cfg.Config.refine with
  | None -> []
  | Some _ -> [ Refine { rname = "refine"; cfg } ]

let ladder_of cfg = { down = default_ladder cfg; up = refine_rungs cfg }

(* The fault stays active for [persist] ladder attempts, then the rung
   configs run clean — this is what lets tests exercise "rung N faults,
   rung N+1 rescues" deterministically. *)
let fault_for attempt_idx = function
  | Some (f : Config.fault_spec) when attempt_idx < f.Config.persist -> Some f
  | _ -> None

(* ---------------- concrete falsification ---------------- *)

let falsify ~samples program (region : Zonotope.t) ~true_class =
  let bad x =
    match Nn.Forward.predict program x with
    | c -> c <> true_class
    | exception _ -> false
  in
  if bad region.Zonotope.center then true
  else begin
    let rng = Rng.create 0x7a11 in
    let found = ref false in
    (try
       for _ = 1 to samples do
         if (not !found) && bad (Zonotope.sample rng region) then found := true
       done
     with _ -> ());
    !found
  end

(* ---------------- the interval box rung ---------------- *)

(* Cheapest sound fallback: concretize the region to its interval hull and
   run IBP. Honors the same budget/fault discipline as the zonotope rungs
   so the whole ladder can be driven to any Unknown reason in tests.

   The interval walk runs on the shared interpreter with the deadline
   armed, so since PR 4 this rung is cooperatively preemptible: a slow
   interval propagation aborts mid-walk with Verdict.Abort Timeout
   (caught by the ladder and recorded against the "interval" rung)
   instead of only being noticed after the fact. The post-hoc timeout
   check is kept for overruns inside the final ops. The poison scan
   stays off — interval bounds routinely pass through infinities (e.g.
   saturated exponentials) and still concretize to a usable margin, and
   poisoned results are already mapped to Unknown below. *)
let run_box ~fault ~(budget : Config.budget) program region ~true_class =
  let t0 = Unix.gettimeofday () in
  let checks =
    {
      Interp.no_checks with
      Interp.deadline =
        Option.map (fun l -> t0 +. l) budget.Config.time_limit_s;
      abort = Propagate.abort_of;
    }
  in
  (match fault with
  | Some { Config.action = Config.Stall s; _ } -> if s > 0.0 then Unix.sleepf s
  | _ -> ());
  match fault with
  | Some { Config.action = Config.Raise_unbounded; _ } ->
      Verdict.Unknown Verdict.Unbounded
  | _ -> (
      match Zonotope.bounds region with
      | exception Zonotope.Unbounded -> Verdict.Unknown Verdict.Numerical_fault
      | b -> (
          match Interval.Ibp.margin ~checks program b ~true_class with
          | exception Zonotope.Unbounded -> Verdict.Unknown Verdict.Unbounded
          | m -> (
              let timed_out =
                match budget.Config.time_limit_s with
                | Some limit -> Unix.gettimeofday () -. t0 > limit
                | None -> false
              in
              if timed_out then Verdict.Unknown Verdict.Timeout
              else
                match fault with
                | Some
                    { Config.action = Config.Inject_nan | Config.Inject_inf; _ }
                  ->
                    (* An injected poison is what this attempt actually
                       dies with: both poisons read as Numerical_fault,
                       matching the zonotope rungs' poison scan.
                       (Inject_inf used to be funneled through
                       [m = -inf] and mislabeled Unbounded, so a ladder
                       exhausted under a persistent inf fault recorded
                       the wrong reason on its interval attempt.) *)
                    Verdict.Unknown Verdict.Numerical_fault
                | _ -> Brefine.verdict_of_margin m)))

(* ---------------- the ladder ---------------- *)

(* The leading affine ops (ViT patch embedding: Linear + Positional) are
   deterministic, config-independent exact maps — propagate them once and
   let the zonotope rungs resume from their checkpoint instead of
   re-propagating from the program input, bit-identically. Abandoned on
   any prefix failure, in which case the rungs run in full and abort
   individually exactly as they did before the hoist. *)
let prefix_checkpoint (cfg : Config.t) program region =
  match Propagate.affine_prefix_len program with
  | 0 -> None
  | len -> (
      match Propagate.run_prefix cfg program region ~len with
      | c -> Some c
      | exception _ -> None)

(* [policy_key] without the refine part: what decides a propagation. *)
let propagation_key (cfg : Config.t) =
  Config.policy_key { cfg with Config.refine = None }

let certify ?ladder:l ?(falsify_samples = 8) (cfg : Config.t) program region
    ~true_class =
  let l =
    match l with
    | Some { down = []; _ } -> invalid_arg "Engine.certify: empty ladder"
    | Some l -> l
    | None -> ladder_of cfg
  in
  if falsify_samples > 0 && falsify ~samples:falsify_samples program region ~true_class
  then begin
    let a = { rung_name = "concrete"; verdict = Verdict.Falsified; direction = Down } in
    { verdict = Verdict.Falsified; rung_name = "concrete"; attempts = [ a ] }
  end
  else begin
    (* Rungs resume instead of starting over. [resume] is where the next
       zonotope rung starts: the affine prefix's end, then the input of
       the last layer a rung entered before a Symbol_budget abort (a
       symbol count depends only on the config and the input, so the
       point is deterministic; a deadline's would not be). [first] is the
       first rung's config and output, which an up walk under the same
       propagation ranks on instead of propagating again. Under fault
       injection neither is used: fault sites address op indices within
       each rung, so every rung runs from op 0. *)
    let shared = cfg.Config.fault = None in
    let resume = ref (if shared then prefix_checkpoint cfg program region else None) in
    let first = ref None in
    let armed idx (c : Config.t) = { c with Config.fault = fault_for idx c.Config.fault } in
    let run_rung idx = function
      | Abstract { cfg = rcfg; _ } ->
          let rcfg = armed idx rcfg in
          if shared && rcfg.Config.fault = None then begin
            let v, out =
              Certify.certify_out ?from:!resume
                ~on_budget:(fun c -> resume := Some c)
                rcfg program region ~true_class
            in
            if idx = 0 then first := Option.map (fun o -> (rcfg, o)) out;
            v
          end
          else Certify.certify_v rcfg program region ~true_class
      | Box ->
          run_box
            ~fault:(fault_for idx cfg.Config.fault)
            ~budget:cfg.Config.budget program region ~true_class
      | Refine { cfg = rcfg; _ } ->
          (* Branch regions differ from the input region, so the branches
             re-propagate in full; only the unsplit region's propagation
             can be the first rung's. *)
          let rcfg = armed idx rcfg in
          let out =
            match !first with
            | Some (c0, out)
              when rcfg.Config.fault = None
                   && c0.Config.budget = rcfg.Config.budget
                   && propagation_key c0 = propagation_key rcfg ->
                Some out
            | _ -> None
          in
          (Brefine.certify_v ?out rcfg program region ~true_class).Brefine.verdict
    in
    let attempts = ref [] in
    let run idx rung =
      match run_rung idx rung with
      | v -> v
      | exception Verdict.Abort r -> Verdict.Unknown r
      | exception Zonotope.Unbounded -> Verdict.Unknown Verdict.Unbounded
    in
    let record rung direction v =
      attempts := { rung_name = rung_name rung; verdict = v; direction } :: !attempts
    in
    let final v rung =
      { verdict = v; rung_name = rung_name rung; attempts = List.rev !attempts }
    in
    (* Upward walk: refine-and-retry rungs, entered only when the
       requested rung failed cleanly on precision. A decisive answer
       (Certified — refinement cannot falsify) ends the walk; anything
       else falls through to the next up rung, and the last attempt's
       verdict stands when the walk is exhausted. The attempt index
       keeps counting so a fault spec's [persist] spans both
       directions. *)
    let rec go_up idx = function
      | [] -> assert false
      | rung :: rest ->
          let v = run idx rung in
          record rung Up v;
          if v = Verdict.Certified || v = Verdict.Falsified || rest = [] then
            final v rung
          else go_up (idx + 1) rest
    in
    (* Downward walk: the pre-refinement degradation ladder. The up walk
       fires only off the *first* rung — the configuration the caller
       asked for — and only on Unknown Imprecise: cheaper rungs are
       coarser, so refining one of them when the requested rung already
       failed on precision could not prove anything the requested rung's
       refinement would not. *)
    let rec go_down idx = function
      | [] -> assert false
      | rung :: rest ->
          let v = run idx rung in
          record rung Down v;
          if idx = 0 && v = Verdict.Unknown Verdict.Imprecise && l.up <> []
          then go_up (idx + 1) l.up
          else if Verdict.is_fault v && rest <> [] then go_down (idx + 1) rest
          else final v rung
    in
    go_down 0 l.down
  end

let pp_outcome ppf o =
  Format.fprintf ppf "%s@%s" (Verdict.to_string o.verdict) o.rung_name;
  match o.attempts with
  | [] | [ _ ] -> ()
  | att ->
      Format.fprintf ppf " (ladder:";
      List.iter
        (fun (a : attempt) ->
          Format.fprintf ppf " %s=%s" a.rung_name (Verdict.to_string a.verdict))
        att;
      Format.fprintf ppf ")"
