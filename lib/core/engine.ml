open Tensor

type rung = Abstract of { rname : string; cfg : Config.t } | Box

type direction = Down | Up

type attempt = { rung_name : string; verdict : Verdict.t; direction : direction }

type outcome = {
  verdict : Verdict.t;
  rung_name : string;
  attempts : attempt list;
}

let rung_name = function Abstract { rname; _ } -> rname | Box -> "interval"

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

(* ---------------- the walk ---------------- *)

let certify ?(falsify_samples = 8) (cfg : Config.t) program region ~true_class =
  if falsify_samples > 0 && falsify ~samples:falsify_samples program region ~true_class
  then begin
    let a = { rung_name = "concrete"; verdict = Verdict.Falsified; direction = Down } in
    { verdict = Verdict.Falsified; rung_name = "concrete"; attempts = [ a ] }
  end
  else begin
    (* Attempts reuse what earlier ones computed instead of starting
       over. [resume] is where the next zonotope rung starts after a
       Symbol_budget abort: the input of the last layer the aborted rung
       entered (a symbol count depends only on the config and the input,
       so the point is deterministic; a deadline's would not be).
       [first] is the first rung's output, which the refine step ranks
       and splits on instead of propagating the region again. Under
       fault injection neither is used: fault sites address op indices
       within each attempt, so every attempt runs from op 0. *)
    let shared = cfg.Config.fault = None in
    let resume = ref None and first = ref None in
    let run_rung idx rung fault =
      match rung with
      | Abstract { cfg = rcfg; _ } ->
          let rcfg = { rcfg with Config.fault } in
          if shared then begin
            let v, out =
              Certify.certify_out ?from:!resume
                ~on_budget:(fun c -> resume := Some c)
                rcfg program region ~true_class
            in
            if idx = 0 then first := out;
            v
          end
          else Certify.certify_v rcfg program region ~true_class
      | Box -> run_box ~fault ~budget:cfg.Config.budget program region ~true_class
    in
    (* Branch regions differ from the input region, so the branches
       re-propagate in full; only the unsplit region's propagation can
       be the first rung's. *)
    let refine fault =
      (Brefine.certify_v ?out:!first { cfg with Config.fault } program region
         ~true_class)
        .Brefine.verdict
    in
    let attempts = ref [] in
    (* The fault is armed for the attempt's index, which counts across
       both directions, so a fault spec's [persist] spans the up step. *)
    let attempt idx rung_name direction run =
      let v =
        match run (fault_for idx cfg.Config.fault) with
        | v -> v
        | exception Verdict.Abort r -> Verdict.Unknown r
        | exception Zonotope.Unbounded -> Verdict.Unknown Verdict.Unbounded
      in
      attempts := { rung_name; verdict = v; direction } :: !attempts;
      v
    in
    let final v rung_name = { verdict = v; rung_name; attempts = List.rev !attempts } in
    (* Down the ladder while a rung faults. The up step fires only off
       the first rung, the configuration the caller asked for, and only
       on Unknown Imprecise: cheaper rungs are coarser, so refining one
       of them could not prove anything the first rung's refinement
       would not. *)
    let rec down idx = function
      | [] -> assert false
      | rung :: rest ->
          let name = rung_name rung in
          let v = attempt idx name Down (run_rung idx rung) in
          if idx = 0 && v = Verdict.Unknown Verdict.Imprecise && cfg.Config.refine <> None
          then final (attempt (idx + 1) "refine" Up refine) "refine"
          else if Verdict.is_fault v && rest <> [] then down (idx + 1) rest
          else final v name
    in
    down 0 (default_ladder cfg)
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
