(* Branch-and-bound symbol-splitting refinement: the restrict_symbol
   primitive (exact ε partition, sound φ decoupling), the symbol
   ranking, the union semantics of a split wave (certified iff every
   branch certifies; any faulted branch poisons the whole refinement),
   the engine integration (refinement never flips Falsified, the up
   walk fires only on a clean precision failure), and the in-process
   waves: a faulted branch propagation and a traced refinement. *)

open Tensor
module C = Deept.Config
module V = Deept.Verdict
module Z = Deept.Zonotope
module B = Deept.Brefine
module E = Deept.Engine
module Lp = Deept.Lp

let refine_cfg base = C.with_refine (Some C.default_refine) base

(* ---------------- restrict_symbol ---------------- *)

let test_restrict_eps_partition () =
  let rng = Rng.create 7 in
  let x = Mat.random_gaussian rng 3 4 0.7 in
  let parent = Deept.Region.lp_ball ~p:Lp.Linf x ~word:1 ~radius:0.1 in
  let ne = Z.num_eps parent in
  Helpers.check_true "linf ball has eps symbols" (ne > 0);
  let k = min 2 (ne - 1) in
  let lower = Z.restrict_symbol parent (Z.Eps k) Z.Lower in
  let upper = Z.restrict_symbol parent (Z.Eps k) Z.Upper in
  (* the split does not change the symbol layout *)
  Helpers.check_true "eps split keeps widths"
    (Z.num_eps lower = ne && Z.num_phi lower = Z.num_phi parent);
  (* child points are parent points *)
  for _ = 1 to 50 do
    let pt = Z.sample rng lower in
    Helpers.check_true "lower sample inside parent" (Z.contains_sample parent pt);
    let pt = Z.sample rng upper in
    Helpers.check_true "upper sample inside parent" (Z.contains_sample parent pt)
  done;
  (* a parent point with eps_k < 0 lies in the Lower half, > 0 in Upper:
     the split is a partition of the parent's eps_k range, not just a
     pair of subsets *)
  let np = Z.num_phi parent in
  let point sign =
    let eps = Array.make ne 0.0 in
    eps.(k) <- sign *. 0.4;
    Z.instantiate parent ~phi:(Array.make np 0.0) ~eps
  in
  Helpers.check_true "eps_k=-0.4 lands in Lower"
    (Z.contains_sample lower (point (-1.0)));
  Helpers.check_true "eps_k=+0.4 lands in Upper"
    (Z.contains_sample upper (point 1.0))

let test_restrict_phi_covers () =
  let rng = Rng.create 11 in
  let x = Mat.random_gaussian rng 3 4 0.7 in
  let parent = Deept.Region.lp_ball ~p:Lp.L2 x ~word:1 ~radius:0.05 in
  let np = Z.num_phi parent in
  Helpers.check_true "l2 ball has phi symbols" (np > 0);
  let k = min 1 (np - 1) in
  let lower = Z.restrict_symbol parent (Z.Phi k) Z.Lower in
  let upper = Z.restrict_symbol parent (Z.Phi k) Z.Upper in
  (* the decoupling appends one fresh eps column *)
  Helpers.check_true "phi split appends an eps symbol"
    (Z.num_eps lower = Z.num_eps parent + 1 && Z.num_phi lower = np);
  for _ = 1 to 50 do
    let pt = Z.sample rng lower in
    Helpers.check_true "lower sample inside parent" (Z.contains_sample parent pt);
    let pt = Z.sample rng upper in
    Helpers.check_true "upper sample inside parent" (Z.contains_sample parent pt)
  done;
  (* sign coverage: a parent point with phi_k of either sign lies in the
     matching half (the branches jointly cover the parent) *)
  let point sign =
    let phi = Array.make np 0.0 in
    phi.(k) <- sign *. 0.6;
    Z.instantiate parent ~phi ~eps:(Array.make (Z.num_eps parent) 0.0)
  in
  Helpers.check_true "phi_k<0 covered by Lower"
    (Z.contains_sample lower (point (-1.0)));
  Helpers.check_true "phi_k>0 covered by Upper"
    (Z.contains_sample upper (point 1.0))

let test_restrict_deterministic () =
  let rng = Rng.create 13 in
  let x = Mat.random_gaussian rng 3 4 0.7 in
  List.iter
    (fun (p, sym) ->
      let parent = Deept.Region.lp_ball ~p x ~word:1 ~radius:0.1 in
      let a = Z.restrict_symbol parent sym Z.Upper in
      let b = Z.restrict_symbol parent sym Z.Upper in
      Helpers.check_true "center bit-equal"
        (a.Z.center.Mat.data = b.Z.center.Mat.data);
      Helpers.check_true "phi bit-equal" (a.Z.phi.Mat.data = b.Z.phi.Mat.data);
      Helpers.check_true "eps bit-equal" (a.Z.eps.Mat.data = b.Z.eps.Mat.data))
    [ (Lp.Linf, Z.Eps 1); (Lp.L2, Z.Phi 1) ]

let test_restrict_bad_index () =
  let rng = Rng.create 17 in
  let x = Mat.random_gaussian rng 3 4 0.7 in
  let parent = Deept.Region.lp_ball ~p:Lp.Linf x ~word:1 ~radius:0.1 in
  List.iter
    (fun sym ->
      match Z.restrict_symbol parent sym Z.Lower with
      | _ -> Alcotest.fail "bad symbol index accepted"
      | exception Invalid_argument _ -> ())
    [ Z.Eps (-1); Z.Eps (Z.num_eps parent); Z.Phi 0 ]

(* ---------------- ranking ---------------- *)

let test_rank_symbols () =
  (* Hand-built 1 x 2 output: alpha = at - aj = [0.8; 0], beta = [0; 0.5].
     Expect Phi 0 then Eps 1, zero-weight symbols dropped. *)
  let out =
    Z.make ~p:Lp.L2
      ~center:(Mat.of_array ~rows:1 ~cols:2 [| 2.0; 1.0 |])
      ~phi:(Mat.of_array ~rows:2 ~cols:2 [| 1.0; 0.25; 0.2; 0.25 |])
      ~eps:(Mat.of_array ~rows:2 ~cols:2 [| 0.1; 0.5; 0.1; 0.0 |])
  in
  let m, j = B.losing_margin out ~true_class:0 in
  Helpers.check_true "two classes: adversary is 1" (j = 1);
  (* 2 - 1 - ||[0.8;0]||_2 - |0.5| = -0.3 *)
  Helpers.check_float "losing margin" (-0.3) m;
  (match B.rank_symbols out out ~true_class:0 with
  | [ (w1, Z.Phi 0); (w2, Z.Eps 1) ] ->
      Helpers.check_float "phi0 weight" 0.8 w1;
      Helpers.check_float "eps1 weight" 0.5 w2
  | l -> Alcotest.failf "unexpected ranking (%d entries)" (List.length l));
  (* the ranking agrees with Certify.margin on the bound *)
  Helpers.check_float "losing_margin agrees with Certify.margin"
    (Deept.Certify.margin out ~true_class:0)
    m

(* ---------------- union semantics (via the wave hook) ---------------- *)

(* A query that certifies at tiny radius but goes Unknown Imprecise at
   some radius on the sweep — the precondition for any split to fire. *)
let imprecise_query () =
  let program = Helpers.tiny_program ~layers:2 43 in
  let x = Mat.random_gaussian (Rng.create 143) 3 (Ir.out_dim program 0) 0.7 in
  let pred = Nn.Forward.predict program x in
  let found = ref None in
  List.iter
    (fun radius ->
      if !found = None then begin
        let region = Deept.Region.lp_ball ~p:Lp.Linf x ~word:1 ~radius in
        if
          Deept.Certify.certify_v C.fast program region ~true_class:pred
          = V.Unknown V.Imprecise
        then found := Some region
      end)
    [ 0.02; 0.05; 0.1; 0.2; 0.5; 1.0; 2.0 ];
  match !found with
  | Some region -> (program, region, pred)
  | None -> Alcotest.fail "no imprecise radius found on the sweep"

let const_wave e : B.wave = fun _f n -> Array.init n (fun _ -> e)

let test_union_all_certified () =
  let program, region, pred = imprecise_query () in
  let wave = const_wave { B.bverdict = V.Certified; props = 1; bdepth = 0 } in
  let r = B.certify_v ~wave (refine_cfg C.fast) program region ~true_class:pred in
  Helpers.check_true "every branch certified -> certified"
    (r.B.verdict = V.Certified);
  Helpers.check_true "split symbols recorded" (r.B.split <> []);
  Helpers.check_true "branch count recorded" (r.B.branches >= 2)

let test_union_faulted_branch () =
  let program, region, pred = imprecise_query () in
  (* one faulted branch poisons the union, whatever the others said *)
  let wave : B.wave =
   fun _f n ->
    Array.init n (fun i ->
        if i = n - 1 then
          { B.bverdict = V.Unknown V.Timeout; props = 1; bdepth = 0 }
        else { B.bverdict = V.Certified; props = 1; bdepth = 0 })
  in
  let r = B.certify_v ~wave (refine_cfg C.fast) program region ~true_class:pred in
  Helpers.check_true "faulted branch -> that fault, not certified"
    (r.B.verdict = V.Unknown V.Timeout)

let test_union_imprecise_branch () =
  let program, region, pred = imprecise_query () in
  let wave : B.wave =
   fun _f n ->
    Array.init n (fun i ->
        if i = 0 then
          { B.bverdict = V.Unknown V.Imprecise; props = 1; bdepth = 0 }
        else { B.bverdict = V.Certified; props = 1; bdepth = 0 })
  in
  let r = B.certify_v ~wave (refine_cfg C.fast) program region ~true_class:pred in
  Helpers.check_true "imprecise branch -> parent stays imprecise"
    (r.B.verdict = V.Unknown V.Imprecise)

let test_refine_requires_config () =
  let program, region, pred = imprecise_query () in
  match B.certify_v C.fast program region ~true_class:pred with
  | _ -> Alcotest.fail "refine without cfg.refine accepted"
  | exception Invalid_argument _ -> ()

(* ---------------- real branch waves ---------------- *)

(* A branch whose propagation aborts is a faulted branch, and the union
   answers with its fault. [~out] is a clean propagation's output, so
   only the branch propagations run with the fault armed. *)
let test_faulted_branch_propagation () =
  let program, region, pred = imprecise_query () in
  let cfg = refine_cfg C.fast in
  let out = Deept.Propagate.run cfg program region in
  let mid = Array.length program.Ir.ops / 2 in
  let faulted = { cfg with C.fault = Some (C.fault mid C.Inject_nan) } in
  let r = B.certify_v ~out faulted program region ~true_class:pred in
  Helpers.check_true "the branch fault is the verdict"
    (r.B.verdict = V.Unknown V.Numerical_fault);
  Helpers.check_true "split recorded" (r.B.split <> []);
  Helpers.check_true "branches propagated" (r.B.branches >= 2)

(* A traced refinement's sink sees every op of the ranking propagation
   and of every branch propagation. *)
let test_traced_waves_count_every_branch () =
  let program, region, pred = imprecise_query () in
  let events = ref 0 in
  let cfg = C.with_trace (Some (fun _ -> incr events)) (refine_cfg C.fast) in
  let r = B.certify_v cfg program region ~true_class:pred in
  Helpers.check_true "branches ran" (r.B.branches >= 2);
  Alcotest.(check int)
    "one event per op per propagation"
    ((1 + r.B.branches) * Array.length program.Ir.ops)
    !events

(* ---------------- engine integration ---------------- *)

let test_never_flips_falsified () =
  let program = Helpers.tiny_program ~layers:1 41 in
  let x = Mat.random_gaussian (Rng.create 141) 3 (Ir.out_dim program 0) 0.7 in
  let pred = Nn.Forward.predict program x in
  let region = Deept.Region.lp_ball ~p:Lp.L2 x ~word:1 ~radius:1e-9 in
  let o =
    E.certify (refine_cfg C.fast) program region ~true_class:(1 - pred)
  in
  Helpers.check_true "falsified concretely, refine never consulted"
    (o.E.verdict = V.Falsified && o.E.rung_name = "concrete");
  Helpers.check_true "single concrete attempt, direction Down"
    (match o.E.attempts with
    | [ a ] -> a.E.direction = E.Down
    | _ -> false)

let test_up_walk_fires_on_imprecise () =
  let program, region, pred = imprecise_query () in
  (* without refinement: the engine stops at the first rung (the
     pre-refinement pin) *)
  let o0 = E.certify ~falsify_samples:0 C.fast program region ~true_class:pred in
  Helpers.check_true "refine off: single attempt, imprecise is final"
    (o0.E.verdict = V.Unknown V.Imprecise && List.length o0.E.attempts = 1);
  (* with refinement: the walk turns upward after the same first rung *)
  let o =
    E.certify ~falsify_samples:0 (refine_cfg C.fast) program region
      ~true_class:pred
  in
  (match o.E.attempts with
  | [ first; up ] ->
      Helpers.check_true "first attempt is the requested rung, Down"
        (first.E.direction = E.Down
        && first.E.verdict = V.Unknown V.Imprecise);
      Helpers.check_true "second attempt is the refine rung, Up"
        (up.E.direction = E.Up && up.E.rung_name = "refine")
  | l -> Alcotest.failf "expected 2 attempts, got %d" (List.length l));
  Helpers.check_true "refined outcome is margin-only"
    (o.E.verdict <> V.Falsified)

(* The up walk ranks and splits on the first rung's output instead of
   propagating the same region under the same config again. A counting
   sink sees one propagation's events when nothing is ranked, and the
   first rung's plus the branches' otherwise. *)
let count_events cfg program region ~true_class =
  let events = ref 0 and starts = ref 0 in
  let sink (e : Interp.event) =
    incr events;
    if e.Interp.op_index = 0 then incr starts
  in
  let o =
    E.certify ~falsify_samples:0 (C.with_trace (Some sink) cfg) program region
      ~true_class
  in
  Helpers.check_true "the walk went up"
    (List.exists (fun (a : E.attempt) -> a.E.direction = E.Up) o.E.attempts);
  (!events, !starts)

(* imprecise_query's program and input at a radius that saturates the
   tanh head: the margin keeps no input symbol *)
let saturated_query () =
  let program, region, pred = imprecise_query () in
  let x = region.Z.center in
  let region = Deept.Region.lp_ball ~p:Lp.Linf x ~word:1 ~radius:5.0 in
  let out = Deept.Propagate.run C.fast program region in
  Helpers.check_true "imprecise, nothing to rank"
    (B.rank_symbols out region ~true_class:pred = []
    && Deept.Certify.certify_v C.fast program region ~true_class:pred
       = V.Unknown V.Imprecise);
  (program, region, pred)

let test_up_walk_reuses_first_rung () =
  let program, region, pred = saturated_query () in
  let n_ops = Array.length program.Ir.ops in
  let events, _ = count_events (refine_cfg C.fast) program region ~true_class:pred in
  Alcotest.(check int) "nothing ranked: one propagation" n_ops events;
  let program, region, pred = imprecise_query () in
  let cfg = refine_cfg C.fast in
  let r = B.certify_v ~wave:B.serial_wave cfg program region ~true_class:pred in
  Helpers.check_true "branches ran" (r.B.branches >= 2);
  let events, _ = count_events cfg program region ~true_class:pred in
  Alcotest.(check int) "split: the first rung and the branches"
    (n_ops * (1 + r.B.branches))
    events

(* A refine step whose propagation would differ from the first rung's
   propagates again: with a fault on [cfg], the first attempt ran from
   op 0 under its armed fault, so its output is not the refine step's,
   whether the fault stays armed for the refine attempt or not. *)
let test_up_walk_repropagates () =
  let program, region, pred = saturated_query () in
  let last_op = Array.length program.Ir.ops - 1 in
  List.iter
    (fun (name, persist) ->
      let fault = C.fault ~persist last_op (C.Stall 0.0) in
      let cfg = { (refine_cfg C.fast) with C.fault = Some fault } in
      let _, starts = count_events cfg program region ~true_class:pred in
      Helpers.check_true (name ^ ": the refine step propagated") (starts >= 2))
    [ ("fault armed for the first attempt", 1); ("fault armed", max_int) ]

(* ---------------- committed zoo model: real recovery ---------------- *)

(* The acceptance case: on the committed small_3 model the plain Precise
   linf search certifies 0.05712890625 and fails at the bracket edge
   0.0576171875; one 2-way split of the strongest eps symbol recovers
   that edge. Skipped when the model file is absent (fresh checkout). *)
let test_zoo_edge_recovery () =
  if not (Sys.file_exists "../data/small_3.model") then ()
  else begin
    Zoo.data_dir := "../data";
    let model = Zoo.load_or_train ~log:(fun _ -> ()) "small_3" in
    let entry = Zoo.entry "small_3" in
    let c = Zoo.corpus_of entry.Zoo.corpus in
    let program = Nn.Model.to_ir model in
    let toks, label = List.nth c.Text.Corpus.test 0 in
    let x = Nn.Model.embed_tokens model toks in
    let edge = 0.0576171875 in
    let region = Deept.Region.lp_ball ~p:Lp.Linf x ~word:1 ~radius:edge in
    Helpers.check_true "plain precise fails at the edge"
      (not (Deept.Certify.certify C.precise program region ~true_class:label));
    let cfg =
      C.with_refine (Some (C.refine ~top_k:1 ~max_branches:2 ~depth:1 ())) C.precise
    in
    let r = B.certify_v cfg program region ~true_class:label in
    Helpers.check_true "one 2-way split recovers the edge"
      (r.B.verdict = V.Certified && r.B.branches = 2 && r.B.depth = 1);
    Helpers.check_true "the split was an eps symbol (linf ball)"
      (match r.B.split with [ Z.Eps _ ] -> true | _ -> false)
  end

let () =
  Alcotest.run "brefine"
    [
      ( "restrict_symbol",
        [
          Alcotest.test_case "eps split partitions" `Quick
            test_restrict_eps_partition;
          Alcotest.test_case "phi split covers" `Quick test_restrict_phi_covers;
          Alcotest.test_case "bit-deterministic" `Quick
            test_restrict_deterministic;
          Alcotest.test_case "bad index rejected" `Quick test_restrict_bad_index;
        ] );
      ( "ranking",
        [ Alcotest.test_case "losing margin + order" `Quick test_rank_symbols ] );
      ( "union",
        [
          Alcotest.test_case "all certified" `Quick test_union_all_certified;
          Alcotest.test_case "faulted branch poisons" `Quick
            test_union_faulted_branch;
          Alcotest.test_case "imprecise branch" `Quick test_union_imprecise_branch;
          Alcotest.test_case "refine requires config" `Quick
            test_refine_requires_config;
          Alcotest.test_case "faulted branch propagation" `Quick
            test_faulted_branch_propagation;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "traced waves count every branch" `Quick
            test_traced_waves_count_every_branch;
        ] );
      ( "engine",
        [
          Alcotest.test_case "never flips falsified" `Quick
            test_never_flips_falsified;
          Alcotest.test_case "up walk on imprecise" `Quick
            test_up_walk_fires_on_imprecise;
          Alcotest.test_case "up walk reuses rung 0" `Quick
            test_up_walk_reuses_first_rung;
          Alcotest.test_case "up walk re-propagates" `Quick
            test_up_walk_repropagates;
        ] );
      ( "zoo",
        [
          Alcotest.test_case "small_3 edge recovery" `Slow
            test_zoo_edge_recovery;
        ] );
    ]
