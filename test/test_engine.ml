(* Resilient certification engine: typed verdicts, budget enforcement,
   deterministic fault injection and the graceful-degradation ladder.
   Every Unknown reason must be reachable, the ladder must fire in order
   (Precise -> Fast -> reduced-k Fast -> interval), and a ladder-rescued
   verdict must agree with running the cheaper config directly. *)

open Tensor
module C = Deept.Config
module V = Deept.Verdict
module E = Deept.Engine
module Lp = Deept.Lp

(* A tiny region that should certify on any reasonable tiny model. *)
let setup ?(layers = 1) seed =
  let program = Helpers.tiny_program ~layers seed in
  let rng = Rng.create (seed + 100) in
  let x = Mat.random_gaussian rng 3 (Ir.out_dim program 0) 0.7 in
  let pred = Nn.Forward.predict program x in
  let region = Deept.Region.lp_ball ~p:Lp.L2 x ~word:1 ~radius:1e-9 in
  (program, x, pred, region)

let certify_v cfg (program, _, pred, region) =
  Deept.Certify.certify_v cfg program region ~true_class:pred

(* ---------------- Unknown reason reachability (certify_v) -------------- *)

let test_reachable_clean () =
  let s = setup 41 in
  Helpers.check_true "tiny radius certifies"
    (certify_v C.fast s = V.Certified)

let test_reachable_numerical_fault () =
  let s = setup 41 in
  List.iter
    (fun action ->
      Helpers.check_true "injected poison -> numerical fault"
        (certify_v { C.fast with C.fault = Some (C.fault 0 action) } s
        = V.Unknown V.Numerical_fault))
    [ C.Inject_nan; C.Inject_inf ]

let test_reachable_unbounded () =
  let s = setup 41 in
  Helpers.check_true "collapsed transformer -> unbounded"
    (certify_v { C.fast with C.fault = Some (C.fault 2 C.Raise_unbounded) } s
    = V.Unknown V.Unbounded)

let test_reachable_timeout () =
  let s = setup 41 in
  let cfg =
    {
      (C.with_budget ~deadline:0.02 C.fast) with
      C.fault = Some (C.fault 0 (C.Stall 0.08));
    }
  in
  Helpers.check_true "stalled op -> timeout" (certify_v cfg s = V.Unknown V.Timeout)

let test_reachable_symbol_budget () =
  let s = setup 41 in
  let cfg = C.with_budget ~max_eps:1 C.fast in
  Helpers.check_true "symbol cap -> symbol budget"
    (certify_v cfg s = V.Unknown V.Symbol_budget)

let test_reachable_imprecise () =
  (* At some radius on the sweep the clean verdict flips to Imprecise; when
     it does, the ladder must stop at the first rung (descending the ladder
     can never improve precision). *)
  let ((program, _, pred, _) as s) = setup ~layers:2 43 in
  let _ = s in
  let x = Mat.random_gaussian (Rng.create 143) 3 (Ir.out_dim program 0) 0.7 in
  let found = ref false in
  List.iter
    (fun radius ->
      if not !found then begin
        let region = Deept.Region.lp_ball ~p:Lp.L2 x ~word:1 ~radius in
        match Deept.Certify.certify_v C.fast program region ~true_class:pred with
        | V.Unknown V.Imprecise ->
            found := true;
            let o =
              E.certify ~falsify_samples:0 C.fast program region ~true_class:pred
            in
            Helpers.check_true "imprecise is final"
              (o.E.verdict = V.Unknown V.Imprecise);
            Helpers.check_true "no pointless descent"
              (List.length o.E.attempts = 1)
        | _ -> ()
      end)
    [ 0.02; 0.05; 0.1; 0.2; 0.5; 1.0; 2.0 ];
  Helpers.check_true "imprecise radius found on sweep" !found

(* ---------------- the degradation ladder ---------------- *)

let rung_names (o : E.outcome) = List.map (fun (a : E.attempt) -> a.E.rung_name) o.E.attempts

let test_ladder_shape () =
  let names = List.map E.rung_name (E.default_ladder C.precise) in
  Helpers.check_true "precise ladder order"
    (names = [ "precise"; "fast"; "fast-k24"; "interval" ]);
  let names = List.map E.rung_name (E.default_ladder C.fast) in
  Helpers.check_true "fast ladder order" (names = [ "fast"; "fast-k32"; "interval" ]);
  let names =
    List.map E.rung_name (E.default_ladder { C.fast with C.reduction_k = 0 })
  in
  Helpers.check_true "k=0 ladder order" (names = [ "fast"; "fast-k32"; "interval" ])

let test_ladder_fires_in_order () =
  let (program, _, pred, region) = setup 41 in
  (* A fault that persists [n] rungs is rescued exactly at rung n + 1. *)
  List.iteri
    (fun n expected_rung ->
      let cfg =
        { C.precise with C.fault = Some (C.fault ~persist:(n + 1) 0 C.Inject_nan) }
      in
      let o = E.certify cfg program region ~true_class:pred in
      Helpers.check_true
        (Printf.sprintf "persist=%d rescued at %s" (n + 1) expected_rung)
        (o.E.verdict = V.Certified && o.E.rung_name = expected_rung);
      Helpers.check_true "attempts record the faulted rungs"
        (List.length o.E.attempts = n + 2);
      List.iteri
        (fun i (a : E.attempt) ->
          if i <= n then
            Helpers.check_true "faulted rung is Unknown"
              (a.E.verdict = V.Unknown V.Numerical_fault))
        o.E.attempts)
    [ "fast"; "fast-k24"; "interval" ]

let test_ladder_exhausted () =
  let (program, _, pred, region) = setup 41 in
  (* Fault active on every rung including the interval fallback: the run
     completes with a typed Unknown, never a certification. *)
  let cfg = { C.precise with C.fault = Some (C.fault 0 C.Inject_nan) } in
  let o = E.certify cfg program region ~true_class:pred in
  Helpers.check_true "exhausted ladder is a numerical fault"
    (o.E.verdict = V.Unknown V.Numerical_fault);
  Helpers.check_true "all four rungs attempted"
    (rung_names o = [ "precise"; "fast"; "fast-k24"; "interval" ]);
  Helpers.check_true "no faulted rung certified"
    (List.for_all (fun (a : E.attempt) -> a.E.verdict <> V.Certified) o.E.attempts)

let test_ladder_inf_exhausted () =
  let (program, _, pred, region) = setup 41 in
  (* Regression: an injected inf used to reach the interval fallback as
     an [m = -inf] margin and get mislabeled Unbounded, so a ladder
     exhausted under a persistent inf fault recorded the wrong death
     reason on its last attempt. Every attempt — the interval rung
     included — must record the poison it actually died with. *)
  let cfg = { C.precise with C.fault = Some (C.fault 0 C.Inject_inf) } in
  let o = E.certify cfg program region ~true_class:pred in
  Helpers.check_true "exhausted inf ladder is a numerical fault"
    (o.E.verdict = V.Unknown V.Numerical_fault);
  Helpers.check_true "all four rungs attempted"
    (rung_names o = [ "precise"; "fast"; "fast-k24"; "interval" ]);
  List.iter
    (fun (a : E.attempt) ->
      Helpers.check_true
        (Printf.sprintf "rung %s records the injected poison, not Unbounded"
           a.E.rung_name)
        (a.E.verdict = V.Unknown V.Numerical_fault && a.E.direction = E.Down))
    o.E.attempts

let test_ladder_unbounded_exhausted () =
  let (program, _, pred, region) = setup 41 in
  let cfg = { C.precise with C.fault = Some (C.fault 1 C.Raise_unbounded) } in
  let o = E.certify cfg program region ~true_class:pred in
  Helpers.check_true "unbounded everywhere"
    (o.E.verdict = V.Unknown V.Unbounded && List.length o.E.attempts = 4)

let test_ladder_timeout_rescue () =
  let (program, _, pred, region) = setup 41 in
  (* First rung stalls past its deadline; the clean second rung, which gets
     a fresh per-propagation deadline, rescues. *)
  let cfg =
    {
      (C.with_budget ~deadline:0.02 C.precise) with
      C.fault = Some (C.fault ~persist:1 0 (C.Stall 0.08));
    }
  in
  let o = E.certify cfg program region ~true_class:pred in
  Helpers.check_true "timeout rescued by fast"
    (o.E.verdict = V.Certified && o.E.rung_name = "fast");
  match o.E.attempts with
  | first :: _ ->
      Helpers.check_true "first rung timed out" (first.E.verdict = V.Unknown V.Timeout)
  | [] -> Alcotest.fail "no attempts"

let test_ladder_symbol_budget_rescue () =
  let (program, _, pred, region) = setup 41 in
  (* A symbol cap the zonotope rungs blow but the interval rung (which
     allocates no symbols) never consults. *)
  let cfg = C.with_budget ~max_eps:1 C.fast in
  let o = E.certify cfg program region ~true_class:pred in
  Helpers.check_true "interval rescues symbol budget"
    (o.E.verdict = V.Certified && o.E.rung_name = "interval");
  Helpers.check_true "zonotope rungs all hit the cap"
    (List.for_all
       (fun (a : E.attempt) ->
         a.E.rung_name = "interval" || a.E.verdict = V.Unknown V.Symbol_budget)
       o.E.attempts)

let test_rescue_agrees_with_direct () =
  let (program, _, pred, region) = setup 41 in
  let cfg =
    { C.precise with C.fault = Some (C.fault ~persist:1 0 C.Inject_nan) }
  in
  let o = E.certify cfg program region ~true_class:pred in
  Helpers.check_true "rescued at fast" (o.E.rung_name = "fast");
  let direct =
    Deept.Certify.certify_v
      { cfg with C.variant = C.Fast; C.fault = None }
      program region ~true_class:pred
  in
  Helpers.check_true "rescued verdict agrees with direct cheap run"
    (V.equal o.E.verdict direct)

let test_falsified_concrete () =
  let (program, _, pred, region) = setup 41 in
  let o = E.certify C.fast program region ~true_class:(1 - pred) in
  Helpers.check_true "wrong class is falsified concretely"
    (o.E.verdict = V.Falsified && o.E.rung_name = "concrete")

(* ---------------- rungs resume ---------------- *)

(* A two-layer query whose [fast] rung overruns max_eps 170 in layer 1
   (178 symbols at its self_attention) while [fast-k32] stays under it
   (164 at most). *)
let budget_query () =
  let program = Helpers.tiny_program ~layers:2 43 in
  let x = Mat.random_gaussian (Rng.create 143) 3 (Ir.out_dim program 0) 0.7 in
  let pred = Nn.Forward.predict program x in
  let region = Deept.Region.lp_ball ~p:Lp.Linf x ~word:1 ~radius:0.05 in
  (program, pred, region, C.with_budget ~max_eps:170 C.fast)

let attention_ops (program : Ir.program) =
  List.filter
    (fun i ->
      match program.Ir.ops.(i) with Ir.Self_attention _ -> true | _ -> false)
    (List.init (Array.length program.Ir.ops) Fun.id)

(* Engine.certify with a trace sink: the outcome, and the op each
   propagation started at (a new one starts where the op index does
   not go up). *)
let traced_starts cfg program region ~true_class =
  let starts = ref [] and last = ref max_int in
  let sink (e : Interp.event) =
    if e.Interp.op_index <= !last then starts := e.Interp.op_index :: !starts;
    last := e.Interp.op_index
  in
  let o =
    E.certify ~falsify_samples:0 (C.with_trace (Some sink) cfg) program region
      ~true_class
  in
  (o, List.rev !starts)

let test_budget_resume () =
  let program, pred, region, cfg = budget_query () in
  let layer1 = List.nth (attention_ops program) 1 in
  let o, starts = traced_starts cfg program region ~true_class:pred in
  Helpers.check_true "fast overran the budget, fast-k32 answered"
    (rung_names o = [ "fast"; "fast-k32" ]
    && (List.hd o.E.attempts).E.verdict = V.Unknown V.Symbol_budget
    && not (V.is_fault o.E.verdict));
  Helpers.check_true
    (Printf.sprintf "fast-k32 starts at layer 1's self_attention (op %d)" layer1)
    (starts = [ 0; layer1 ]);
  (* the resumed rung's output is sound, and it is what the ladder
     answered with *)
  let ck = ref None in
  (match Deept.Propagate.run ~on_budget:(fun c -> ck := Some c) cfg program region with
  | _ -> Alcotest.fail "fast did not overrun"
  | exception V.Abort V.Symbol_budget -> ());
  let ck = Option.get !ck in
  let k32 = { cfg with C.reduction_k = 32 } in
  let out = Deept.Propagate.run ~from:ck k32 program region in
  Helpers.check_propagation_sound ~samples:64 ~name:"resumed fast-k32"
    (Rng.create 17) region out (Nn.Forward.run program);
  Helpers.check_true "ladder verdict is the resumed rung's"
    (V.equal o.E.verdict
       (fst (Deept.Certify.certify_out ~from:ck k32 program region ~true_class:pred)))

(* Under a fault spec no rung resumes: fault sites address op indices
   within each rung. *)
let test_fault_rungs_start_over () =
  let program, pred, region, cfg = budget_query () in
  let last_op = Array.length program.Ir.ops - 1 in
  let cfg = { cfg with C.fault = Some (C.fault last_op (C.Stall 0.0)) } in
  let o, starts = traced_starts cfg program region ~true_class:pred in
  Helpers.check_true "fast overran the budget"
    ((List.hd o.E.attempts).E.verdict = V.Unknown V.Symbol_budget);
  Helpers.check_true "every rung starts at op 0"
    (List.length starts >= 2 && List.for_all (( = ) 0) starts)

(* ---------------- radius search under faults ---------------- *)

let test_radius_faulted_probes_reported () =
  let (program, x, pred, _) = setup 41 in
  let cfg = { C.fast with C.fault = Some (C.fault 0 C.Inject_nan) } in
  let r =
    Deept.Certify.certified_radius_v cfg program ~p:Lp.L2 x ~word:1
      ~true_class:pred ~iters:4 ()
  in
  Helpers.check_float "all probes fault -> radius 0" 0.0 r.Deept.Certify.radius;
  Helpers.check_true "faulted probes recorded"
    (List.length r.Deept.Certify.faulted_probes > 0
    && List.for_all
         (fun (_, reason) -> reason = V.Numerical_fault)
         r.Deept.Certify.faulted_probes)

let test_radius_clean_matches_bool_api () =
  let (program, x, pred, _) = setup 41 in
  let r =
    Deept.Certify.certified_radius_v C.fast program ~p:Lp.L2 x ~word:1
      ~true_class:pred ~iters:6 ()
  in
  let r_bool =
    Deept.Certify.certified_radius C.fast program ~p:Lp.L2 x ~word:1
      ~true_class:pred ~iters:6 ()
  in
  Helpers.check_float "clean search agrees with bool API" r_bool
    r.Deept.Certify.radius;
  Helpers.check_true "no faulted probes" (r.Deept.Certify.faulted_probes = [])

let test_max_radius_hardened () =
  (* Probes that abort count as "bad": the search terminates and returns a
     radius below the faulting threshold. *)
  let r =
    Deept.Certify.max_radius ~hi:0.5 ~iters:20 (fun r ->
        if r >= 0.1 then raise (V.Abort V.Numerical_fault) else true)
  in
  Helpers.check_true "terminates below the fault threshold" (r < 0.1 && r > 0.09);
  let r = Deept.Certify.max_radius ~hi:0.5 (fun _ -> raise Deept.Zonotope.Unbounded) in
  Helpers.check_float "all probes fault -> lo" 0.0 r;
  Alcotest.check_raises "infinite bracket rejected"
    (Invalid_argument "Certify.max_radius: bracket must be finite") (fun () ->
      ignore (Deept.Certify.max_radius ~hi:infinity (fun _ -> true)))

(* ---------------- zoo-architecture smoke (the @engine alias) ----------- *)

(* The fault-injection ladder on a real zoo architecture (small_3: three
   Transformer layers, the corpus the paper's CROWN-Backward comparison
   uses). Weights are freshly initialized — reachability and ladder order
   do not depend on training, and this keeps the suite hermetic. *)
let test_zoo_architecture () =
  let entry = Zoo.entry "small_3" in
  let model = Nn.Model.create (Rng.create 4242) entry.Zoo.cfg in
  let program = Nn.Model.to_ir model in
  let x = Nn.Model.embed_tokens model [| 1; 2; 3; 4 |] in
  let pred = Nn.Forward.predict program x in
  let region = Deept.Region.lp_ball ~p:Lp.L2 x ~word:1 ~radius:1e-9 in
  (* injected NaN on the first attention op, rescued one rung down *)
  let att_op =
    let idx = ref (-1) in
    Array.iteri
      (fun i (op : Ir.op) ->
        if !idx < 0 then
          match op with Ir.Self_attention _ -> idx := i | _ -> ())
      program.Ir.ops;
    !idx
  in
  let cfg =
    { C.precise with C.fault = Some (C.fault ~persist:1 att_op C.Inject_nan) }
  in
  let o = E.certify cfg program region ~true_class:pred in
  Helpers.check_true "zoo: faulted precise rung recorded"
    ((List.hd o.E.attempts).E.verdict = V.Unknown V.Numerical_fault);
  Helpers.check_true "zoo: never certified by a faulted rung"
    (match o.E.verdict with
    | V.Certified -> o.E.rung_name <> "precise"
    | V.Falsified | V.Unknown _ -> true);
  (* symbol budget: the 3-layer stack must trip a tight cap and complete *)
  let o2 =
    E.certify (C.with_budget ~max_eps:8 C.fast) program region ~true_class:pred
  in
  Helpers.check_true "zoo: symbol cap yields a complete outcome"
    (List.exists
       (fun (a : E.attempt) -> a.E.verdict = V.Unknown V.Symbol_budget)
       o2.E.attempts)

let () =
  Alcotest.run "engine"
    [
      ( "reachability",
        [
          Alcotest.test_case "clean certifies" `Quick test_reachable_clean;
          Alcotest.test_case "numerical fault" `Quick test_reachable_numerical_fault;
          Alcotest.test_case "unbounded" `Quick test_reachable_unbounded;
          Alcotest.test_case "timeout" `Quick test_reachable_timeout;
          Alcotest.test_case "symbol budget" `Quick test_reachable_symbol_budget;
          Alcotest.test_case "imprecise stops ladder" `Quick test_reachable_imprecise;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "shape" `Quick test_ladder_shape;
          Alcotest.test_case "fires in order" `Quick test_ladder_fires_in_order;
          Alcotest.test_case "exhausted" `Quick test_ladder_exhausted;
          Alcotest.test_case "inf exhausted records poison" `Quick
            test_ladder_inf_exhausted;
          Alcotest.test_case "unbounded exhausted" `Quick test_ladder_unbounded_exhausted;
          Alcotest.test_case "timeout rescue" `Quick test_ladder_timeout_rescue;
          Alcotest.test_case "symbol budget rescue" `Quick
            test_ladder_symbol_budget_rescue;
          Alcotest.test_case "rescue agrees with direct" `Quick
            test_rescue_agrees_with_direct;
          Alcotest.test_case "falsified concretely" `Quick test_falsified_concrete;
        ] );
      ( "resume",
        [
          Alcotest.test_case "budget abort resumes" `Quick test_budget_resume;
          Alcotest.test_case "fault rungs start over" `Quick
            test_fault_rungs_start_over;
        ] );
      ( "radius",
        [
          Alcotest.test_case "faulted probes reported" `Quick
            test_radius_faulted_probes_reported;
          Alcotest.test_case "clean matches bool api" `Quick
            test_radius_clean_matches_bool_api;
          Alcotest.test_case "max_radius hardened" `Quick test_max_radius_hardened;
        ] );
      ( "zoo",
        [ Alcotest.test_case "small_3 architecture" `Quick test_zoo_architecture ] );
    ]
