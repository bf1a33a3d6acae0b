open Tensor

type verifier = Backward | Baf

(* About two Transformer layers' worth of relaxation nodes (one layer with
   4 heads is ~42 nodes: QKV, per-head score/exp/sum/recip/P/Z chains,
   concatenation, residuals, normalization, feed-forward). Tuned so BaF is
   close to full backsubstitution on shallow stacks while degrading with
   depth — the trade-off the paper reports for CROWN-BaF. *)
let default_baf_steps = 96

type compiled = { program : Ir.program; seq_len : int; lg : Lgraph.compiled }

let compile program ~seq_len = { program; seq_len; lg = Lgraph.compile program ~seq_len }
let graph_of p ~seq_len = compile p ~seq_len
let approx_bytes c = Lgraph.approx_bytes c.lg.Lgraph.graph
let pp_stats ppf c = Lgraph.pp_stats ppf c.lg.Lgraph.graph

let flat (m : Mat.t) = Array.copy m.Mat.data

let region_word_ball ~p x ~word ~radius : Engine.region =
  let n = Mat.rows x and d = Mat.cols x in
  if word < 0 || word >= n then invalid_arg "Verify.region_word_ball";
  let scale = Array.make (n * d) 0.0 in
  for j = 0 to d - 1 do
    scale.((word * d) + j) <- radius
  done;
  { center = flat x; p; scale }

let region_all_ball ~p x ~radius : Engine.region =
  { center = flat x; p; scale = Array.make (Mat.rows x * Mat.cols x) radius }

let region_box lo hi : Engine.region =
  if Mat.dims lo <> Mat.dims hi then invalid_arg "Verify.region_box";
  let n = Mat.rows lo * Mat.cols lo in
  let center = Array.init n (fun v -> 0.5 *. (lo.Mat.data.(v) +. hi.Mat.data.(v))) in
  let scale = Array.init n (fun v -> 0.5 *. (hi.Mat.data.(v) -. lo.Mat.data.(v))) in
  Array.iter (fun s -> if s < 0.0 then invalid_arg "Verify.region_box: lo > hi") scale;
  { center; p = Deept.Lp.Linf; scale }

let region_synonym_box x subs =
  let d = Mat.cols x in
  let lo = Mat.copy x and hi = Mat.copy x in
  List.iter
    (fun (pos, alts) ->
      List.iter
        (fun (alt : float array) ->
          if Array.length alt <> d then invalid_arg "Verify.region_synonym_box";
          for j = 0 to d - 1 do
            Mat.set lo pos j (Float.min (Mat.get lo pos j) alt.(j));
            Mat.set hi pos j (Float.max (Mat.get hi pos j) alt.(j))
          done)
        alts)
    subs;
  region_box lo hi

let mode_of verifier baf_steps : Engine.mode =
  match verifier with Backward -> Engine.Backward | Baf -> Engine.Baf baf_steps

(* The CROWN relaxation pass as a DOMAIN instance: the abstract "value"
   of an Ir op is the id of the last relaxation node it expanded into;
   the transfer analyzes the op's node range in id order — exactly the
   sequence Engine.analyze used to run, so results are bit-identical.
   Running it through Interp is what gives the baseline deadline/budget
   checkpoints with typed Verdict aborts and per-op tracing. *)
module Domain = struct
  type state = {
    st : Engine.t;
    ranges : (int * int) array;
    mutable scalars : int;  (* cumulative relaxation scalars analyzed *)
  }

  type value = int

  let name = "linrelax"

  let transfer d ~op_index (_ : Ir.op) ~get:_ ~set:_ =
    let lo, hi = d.ranges.(op_index) in
    for id = lo to hi - 1 do
      Engine.analyze_node d.st id;
      d.scalars <- d.scalars + Engine.node_size d.st id
    done;
    hi - 1

  let transfer_pair _ ~op_index:_ _ _ ~get:_ = None
  (* Engine.clean_bounds already widens NaN to the trivial bound; a
     poison scan would re-flag those sound infinities, so leave it to
     the caller to keep checks.poison off (checks_of below does). *)
  let is_poisoned _ = `Finite
  let size d _ = d.scalars
  let width d id = Engine.interval_width d.st id

  (* Dense storage, no sparsity tracking. *)
  let density _ _ = 1.0
end

module I = Interp.Make (Domain)

(* Interp checks from a Deept budget: deadline and size cap (max_eps is
   read as a cap on cumulative relaxation scalars — the linrelax
   equivalent of the zonotope's ε-symbol count), aborting with the same
   typed Verdict.Abort exceptions as the zonotope engine. *)
let checks_of ?trace budget : int Interp.checks option =
  match (budget, trace) with
  | None, None -> None
  | _ ->
      let b = Option.value budget ~default:Deept.Config.no_budget in
      let t0 = Unix.gettimeofday () in
      Some
        {
          Interp.deadline =
            Option.map (fun l -> t0 +. l) b.Deept.Config.time_limit_s;
          max_size = b.Deept.Config.max_eps;
          poison = false;
          fault = None;
          trace;
          abort = Deept.Propagate.abort_of;
        }

let analyze ~mode ?checks (c : compiled) region =
  let st = Engine.init ~mode c.lg.Lgraph.graph region in
  (* Node 0 (Input) precedes every op's node range. *)
  Engine.analyze_node st 0;
  let d =
    { Domain.st; ranges = c.lg.Lgraph.op_ranges; scalars = Engine.node_size st 0 }
  in
  ignore (I.run ?checks d c.program 0);
  st

let rec margin ~verifier ?(baf_steps = default_baf_steps) ?budget ?trace c
    region ~true_class =
  try margin_exn ~verifier ~baf_steps ~budget ~trace c region ~true_class
  with Deept.Zonotope.Unbounded -> neg_infinity

and margin_exn ~verifier ~baf_steps ~budget ~trace c region ~true_class =
  let checks = checks_of ?trace budget in
  let st = analyze ~mode:(mode_of verifier baf_steps) ?checks c region in
  let g = c.lg.Lgraph.graph in
  let n_out = g.Lgraph.sizes.(g.Lgraph.output) in
  if true_class < 0 || true_class >= n_out then invalid_arg "Verify.margin: class";
  let best = ref infinity in
  for j = 0 to n_out - 1 do
    if j <> true_class then begin
      let coeffs = Array.make n_out 0.0 in
      coeffs.(true_class) <- 1.0;
      coeffs.(j) <- -1.0;
      let lb = Engine.linear_lower_bound st ~node:g.Lgraph.output ~coeffs in
      if lb < !best then best := lb
    end
  done;
  !best

let certify ~verifier ?baf_steps ?budget ?trace c region ~true_class =
  margin ~verifier ?baf_steps ?budget ?trace c region ~true_class > 0.0

let certified_radius ~verifier ?baf_steps ?budget ?trace ?hi ?(iters = 10)
    program ~p x ~word ~true_class () =
  let c = compile program ~seq_len:(Mat.rows x) in
  Deept.Certify.max_radius ?hi ~iters (fun radius ->
      radius > 0.0
      && certify ~verifier ?baf_steps ?budget ?trace c
           (region_word_ball ~p x ~word ~radius)
           ~true_class)
