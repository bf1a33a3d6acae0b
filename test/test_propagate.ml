(* End-to-end zonotope propagation through full Transformer programs:
   soundness on sampled inputs, precision vs IBP, certification sanity and
   radius-search behaviour. *)

open Tensor
module Z = Deept.Zonotope
module Lp = Deept.Lp
module C = Deept.Certify

let cfg = Deept.Config.default
let cfg_precise = Deept.Config.precise

let check_program_sound ?(samples = 60) ~name cfg p region =
  let rng = Rng.create 97 in
  let out = Deept.Propagate.run cfg p region in
  Helpers.check_propagation_sound ~samples ~name rng region out (Nn.Forward.run p)

let test_sound_fast () =
  List.iter
    (fun (p_norm, name) ->
      let program = Helpers.tiny_program ~layers:2 21 in
      let rng = Rng.create 5 in
      let x = Mat.random_gaussian rng 3 (Ir.out_dim program 0) 0.7 in
      let region = Deept.Region.lp_ball ~p:p_norm x ~word:1 ~radius:0.05 in
      check_program_sound ~name cfg program region)
    [ (Lp.L1, "fast l1"); (Lp.L2, "fast l2"); (Lp.Linf, "fast linf") ]

let test_sound_precise () =
  let program = Helpers.tiny_program ~layers:1 22 in
  let rng = Rng.create 6 in
  let x = Mat.random_gaussian rng 3 (Ir.out_dim program 0) 0.7 in
  let region = Deept.Region.lp_ball ~p:Lp.Linf x ~word:0 ~radius:0.05 in
  check_program_sound ~name:"precise" cfg_precise program region

let test_sound_with_reduction () =
  let program = Helpers.tiny_program ~layers:3 23 in
  let rng = Rng.create 7 in
  let x = Mat.random_gaussian rng 4 (Ir.out_dim program 0) 0.7 in
  let region = Deept.Region.lp_ball ~p:Lp.L2 x ~word:2 ~radius:0.05 in
  check_program_sound ~name:"heavy reduction"
    { cfg with Deept.Config.reduction_k = 8 }
    program region

let test_sound_divide_std () =
  let program = Helpers.tiny_program ~layers:1 ~divide_std:true 24 in
  let rng = Rng.create 8 in
  let x = Mat.random_gaussian rng 3 (Ir.out_dim program 0) 0.7 in
  let region = Deept.Region.lp_ball ~p:Lp.L2 x ~word:1 ~radius:0.02 in
  check_program_sound ~name:"divide_std" cfg program region

let test_sound_no_refinement () =
  let program = Helpers.tiny_program ~layers:1 25 in
  let rng = Rng.create 9 in
  let x = Mat.random_gaussian rng 3 (Ir.out_dim program 0) 0.7 in
  let region = Deept.Region.lp_ball ~p:Lp.L1 x ~word:1 ~radius:0.05 in
  check_program_sound ~name:"no refinement"
    { cfg with Deept.Config.refine_softmax_sum = false }
    program region

let test_sound_direct_softmax () =
  let program = Helpers.tiny_program ~layers:1 26 in
  let rng = Rng.create 10 in
  let x = Mat.random_gaussian rng 3 (Ir.out_dim program 0) 0.7 in
  let region = Deept.Region.lp_ball ~p:Lp.Linf x ~word:1 ~radius:0.03 in
  check_program_sound ~name:"direct softmax"
    { cfg with Deept.Config.softmax = Deept.Config.Direct }
    program region

let test_sound_synonym_box () =
  let program = Helpers.tiny_program ~layers:2 27 in
  let rng = Rng.create 11 in
  let d = Ir.out_dim program 0 in
  let x = Mat.random_gaussian rng 4 d 0.7 in
  let alts pos =
    List.init 2 (fun _ ->
        Array.init d (fun j -> Mat.get x pos j +. Rng.uniform rng (-0.1) 0.1))
  in
  let region = Deept.Region.synonym_box x [ (0, alts 0); (2, alts 2) ] in
  check_program_sound ~name:"synonym box" cfg program region

(* Zonotope output is tighter than IBP on the same region. *)
let test_tighter_than_ibp () =
  let program = Helpers.tiny_program ~layers:1 28 in
  let rng = Rng.create 12 in
  let x = Mat.random_gaussian rng 3 (Ir.out_dim program 0) 0.7 in
  let radius = 0.01 in
  let zregion = Deept.Region.lp_ball ~p:Lp.Linf x ~word:1 ~radius in
  let zout = Z.bounds (Deept.Propagate.run cfg program zregion) in
  let ilo = Mat.copy x and ihi = Mat.copy x in
  let d = Mat.cols x in
  for j = 0 to d - 1 do
    Mat.set ilo 1 j (Mat.get x 1 j -. radius);
    Mat.set ihi 1 j (Mat.get x 1 j +. radius)
  done;
  let iout = Interval.Ibp.run program (Interval.Imat.make ilo ihi) in
  let zw = Mat.sum (Mat.sub zout.Interval.Imat.hi zout.Interval.Imat.lo) in
  let iw = Mat.sum (Mat.sub iout.Interval.Imat.hi iout.Interval.Imat.lo) in
  Helpers.check_true
    (Printf.sprintf "zonotope width %.4g <= ibp width %.4g" zw iw)
    (zw <= iw +. 1e-9)

(* Certification behaviour. *)
let test_certify_zero_radius () =
  let program = Helpers.tiny_program ~layers:1 29 in
  let rng = Rng.create 13 in
  let x = Mat.random_gaussian rng 3 (Ir.out_dim program 0) 0.7 in
  let pred = Nn.Forward.predict program x in
  let region = Deept.Region.lp_ball ~p:Lp.L2 x ~word:0 ~radius:0.0 in
  Helpers.check_true "certifies prediction at radius 0"
    (C.certify cfg program region ~true_class:pred);
  Helpers.check_true "refutes the wrong class"
    (not (C.certify cfg program region ~true_class:(1 - pred)))

let test_certified_radius_positive () =
  let program = Helpers.tiny_program ~layers:1 30 in
  let rng = Rng.create 14 in
  let x = Mat.random_gaussian rng 3 (Ir.out_dim program 0) 0.7 in
  let pred = Nn.Forward.predict program x in
  let r =
    C.certified_radius cfg program ~p:Lp.L2 x ~word:1 ~true_class:pred ~iters:8 ()
  in
  Helpers.check_true (Printf.sprintf "radius %.4g > 0" r) (r > 0.0);
  (* The certified region at that radius indeed certifies. *)
  Helpers.check_true "radius certifies"
    (C.certify cfg program (Deept.Region.lp_ball ~p:Lp.L2 x ~word:1 ~radius:r)
       ~true_class:pred)

let test_radius_ordering_l1_l2_linf () =
  (* For the same network/input, certified radii must satisfy
     r(l1) >= r(l2) >= r(linf), because the balls are nested the other way. *)
  let program = Helpers.tiny_program ~layers:1 31 in
  let rng = Rng.create 15 in
  let x = Mat.random_gaussian rng 3 (Ir.out_dim program 0) 0.7 in
  let pred = Nn.Forward.predict program x in
  let radius p =
    C.certified_radius cfg program ~p x ~word:1 ~true_class:pred ~iters:10 ()
  in
  let r1 = radius Lp.L1 and r2 = radius Lp.L2 and ri = radius Lp.Linf in
  Helpers.check_true
    (Printf.sprintf "r1 %.4g >= r2 %.4g >= rinf %.4g" r1 r2 ri)
    (r1 >= r2 -. 1e-9 && r2 >= ri -. 1e-9)

let test_max_radius_bracketing () =
  (* max_radius on a crisp threshold predicate converges to it. *)
  let threshold = 0.37 in
  let r = C.max_radius ~iters:20 (fun x -> x <= threshold) in
  Helpers.check_float ~tol:1e-3 "binary search converges" threshold r

let test_enumeration_agrees () =
  let program = Helpers.tiny_program ~layers:1 33 in
  let rng = Rng.create 16 in
  let d = Ir.out_dim program 0 in
  let x = Mat.random_gaussian rng 3 d 0.7 in
  let pred = Nn.Forward.predict program x in
  let alts pos =
    List.init 2 (fun _ ->
        Array.init d (fun j -> Mat.get x pos j +. Rng.uniform rng (-0.01) 0.01))
  in
  let subs = [ (0, alts 0); (1, alts 1); (2, alts 2) ] in
  Helpers.check_true "combination count" (C.count_combinations subs = 27);
  let ok, checked = C.enumerate_synonyms program x subs ~true_class:pred in
  Helpers.check_true "enumeration covers all combos" (checked = 27);
  (* Certification implies enumeration success (soundness direction). *)
  if C.certify_synonyms cfg program x subs ~true_class:pred then
    Helpers.check_true "certified => enumeration clean" ok

let test_combined_variant_runs () =
  let program = Helpers.tiny_program ~layers:2 34 in
  let rng = Rng.create 18 in
  let x = Mat.random_gaussian rng 3 (Ir.out_dim program 0) 0.7 in
  let region = Deept.Region.lp_ball ~p:Lp.Linf x ~word:1 ~radius:0.02 in
  check_program_sound ~name:"combined" Deept.Config.combined program region

(* Vision-mode program (patch linear + positional) propagates soundly. *)
let test_vision_mode_sound () =
  let rng = Rng.create 41 in
  let cfg_m =
    { Nn.Model.default_config with vocab_size = 1; max_len = 4; d_model = 8;
      d_hidden = 8; heads = 2; layers = 1; patch_dim = Some 6 }
  in
  let m = Nn.Model.create rng cfg_m in
  let program = Nn.Model.to_ir m in
  let x = Mat.random_gaussian rng 4 6 0.5 in
  let region = Deept.Region.lp_ball_all ~p:Lp.L2 x ~radius:0.05 in
  check_program_sound ~name:"vision" cfg program region

(* Reduction trades precision for memory: output widths with an
   aggressive budget are never smaller than with no reduction. *)
let test_reduction_only_loosens () =
  let program = Helpers.tiny_program ~layers:2 35 in
  let rng = Rng.create 19 in
  let x = Mat.random_gaussian rng 3 (Ir.out_dim program 0) 0.7 in
  let region = Deept.Region.lp_ball ~p:Lp.L2 x ~word:1 ~radius:0.02 in
  let widths k =
    let out =
      Deept.Propagate.run { cfg with Deept.Config.reduction_k = k } program region
    in
    let b = Z.bounds out in
    Mat.sum (Mat.sub b.Interval.Imat.hi b.Interval.Imat.lo)
  in
  let exact = widths 0 and reduced = widths 4 in
  Helpers.check_true
    (Printf.sprintf "reduced %.4g >= exact %.4g" reduced exact)
    (reduced >= exact -. 1e-9)

(* The margin at radius 0 equals the concrete logit difference. *)
let test_zero_radius_margin_exact () =
  let program = Helpers.tiny_program ~layers:2 36 in
  let rng = Rng.create 20 in
  let x = Mat.random_gaussian rng 3 (Ir.out_dim program 0) 0.7 in
  let logits = Nn.Forward.logits program x in
  let pred = Vecops.argmax logits in
  let m =
    C.certify_margin cfg program
      (Deept.Region.lp_ball ~p:Lp.L2 x ~word:0 ~radius:0.0)
      ~true_class:pred
  in
  Helpers.check_float ~tol:1e-9 "margin = logit gap"
    (logits.(pred) -. logits.(1 - pred))
    m

(* --- intra-op deadline preemption (regression) ------------------------ *)

(* Budget checkpoints in Propagate fire only between ops, so before the
   intra-op poll was added a single large dot product could overrun the
   deadline unboundedly. The dot transformer now polls
   Zonotope.check_deadline in its outer row loop: an expired deadline must
   abort inside the op with the typed timeout, not run to completion. *)
let test_dot_preempted_mid_op () =
  let rng = Rng.create 55 in
  let mk () = Helpers.random_zonotope ~vrows:4 ~vcols:5 ~ep:3 ~ee:4 rng in
  let a = mk () in
  let b = Helpers.random_zonotope ~vrows:5 ~vcols:3 ~ep:3 ~ee:4 rng in
  (* sanity: with no deadline armed the very same op completes *)
  let ctx = Z.ctx () in
  ignore (Z.alloc_eps ctx 4);
  ignore (Deept.Dot.matmul_zz ctx a b);
  let expired ctx = Z.set_deadline ctx (Some (Unix.gettimeofday () -. 1.0)) in
  let ctx = Z.ctx () in
  ignore (Z.alloc_eps ctx 4);
  expired ctx;
  Alcotest.check_raises "matmul preempted mid-op"
    (Deept.Verdict.Abort Deept.Verdict.Timeout) (fun () ->
      ignore (Deept.Dot.matmul_zz ctx a b));
  let ctx = Z.ctx () in
  ignore (Z.alloc_eps ctx 4);
  expired ctx;
  Alcotest.check_raises "elementwise mul preempted mid-op"
    (Deept.Verdict.Abort Deept.Verdict.Timeout) (fun () ->
      ignore (Deept.Dot.mul_zz ctx (mk ()) (mk ())))

(* End-to-end: an already-expired budget surfaces as the typed timeout
   verdict the moment the first dot product starts, via the same poll. *)
let test_deadline_mid_op_typed_verdict () =
  let program = Helpers.tiny_program ~layers:1 56 in
  let rng = Rng.create 57 in
  let x = Mat.random_gaussian rng 3 (Ir.out_dim program 0) 0.7 in
  let pred = Nn.Forward.predict program x in
  let region = Deept.Region.lp_ball ~p:Lp.L2 x ~word:1 ~radius:0.01 in
  let cfg = Deept.Config.with_budget ~deadline:0.0 Deept.Config.fast in
  Helpers.check_true "expired deadline -> Unknown Timeout"
    (C.certify_v cfg program region ~true_class:pred
    = Deept.Verdict.Unknown Deept.Verdict.Timeout)

(* ---------------- checkpoints ---------------- *)

let check_bits msg (a : Mat.t) (b : Mat.t) =
  Helpers.check_true (msg ^ ": dims") (Mat.dims a = Mat.dims b);
  Array.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float b.Mat.data.(i) then
        Alcotest.failf "%s: element %d: %h <> %h" msg i x b.Mat.data.(i))
    a.Mat.data

(* A run that overruns its symbol budget hands on the input of the last
   layer it entered. Where the reduction there only drops dead columns,
   resuming under the config that took it (budget lifted) is
   bit-identical to a full run: Combined's Precise last layer is found
   from the op index, and with reduction off the symbol context is
   seeded from the live values' width. *)
let test_resume_bit_identity () =
  let program = Helpers.tiny_program ~layers:2 43 in
  let x = Mat.random_gaussian (Rng.create 143) 3 (Ir.out_dim program 0) 0.7 in
  let region = Deept.Region.lp_ball ~p:Lp.Linf x ~word:1 ~radius:0.05 in
  let layer_op = [| 0; 8 |] in
  Helpers.check_true "layer inputs at ops 0 and 8"
    (Array.for_all
       (fun i ->
         match program.Ir.ops.(i) with Ir.Self_attention _ -> true | _ -> false)
       layer_op);
  List.iter
    (fun (name, cfg, max_eps, layer) ->
      let ck = ref None in
      (match
         Deept.Propagate.run
           ~on_budget:(fun c -> ck := Some c)
           (Deept.Config.with_budget ~max_eps cfg)
           program region
       with
      | _ -> Alcotest.failf "%s: budget %d not overrun" name max_eps
      | exception Deept.Verdict.Abort Deept.Verdict.Symbol_budget -> ());
      match !ck with
      | None -> Alcotest.failf "%s: no checkpoint" name
      | Some c ->
          Alcotest.(check int) (name ^ ": resume op") layer_op.(layer)
            (Deept.Propagate.checkpoint_op c);
          let full = Deept.Propagate.run cfg program region in
          let resumed = Deept.Propagate.run ~from:c cfg program region in
          check_bits (name ^ " center") full.Z.center resumed.Z.center;
          check_bits (name ^ " phi") full.Z.phi resumed.Z.phi;
          check_bits (name ^ " eps") full.Z.eps resumed.Z.eps)
    [
      ("fast layer 0", Deept.Config.fast, 50, 0);
      ("fast layer 1", Deept.Config.fast, 100, 1);
      ("combined layer 1", Deept.Config.combined, 100, 1);
      ("k=0 layer 1", { Deept.Config.fast with Deept.Config.reduction_k = 0 }, 100, 1);
    ]

(* ---------------- fused pairs ---------------- *)

(* A domain whose value is the index of the op that produced it (-1 for
   the input) and which fuses every [Add] -> mean-only [Center_norm]
   pair, logging each transfer: it shows which ops the interpreter runs
   alone, which as a pair, and whose output a fault sees. [scans] counts
   the poison scans. *)
module Recorder = struct
  type state = { mutable log : string list }
  type value = int

  let scans = ref 0

  let name = "recorder"

  let transfer st ~op_index _ ~get:_ ~set:_ =
    st.log <- Printf.sprintf "op %d" op_index :: st.log;
    op_index

  let transfer_pair st ~op_index (op : Ir.op) (next : Ir.op) ~get:_ =
    match (op, next) with
    | Ir.Add _, Ir.Center_norm { divide_std = false; _ } ->
        st.log <- Printf.sprintf "pair %d" op_index :: st.log;
        Some (op_index + 1)
    | _ -> None

  let is_poisoned _ =
    incr scans;
    `Finite

  let size _ _ = 0
  let width _ _ = 0.0
  let density _ _ = 1.0
end

module RI = Interp.Make (Recorder)

exception Fired of int

let test_pair_rules () =
  let program = Helpers.tiny_program ~layers:1 44 in
  let run ?(checks = Interp.no_checks) p =
    let st = { Recorder.log = [] } in
    let out = RI.run ~checks st p (-1) in
    (out, List.rev st.Recorder.log)
  in
  let n = Array.length program.Ir.ops in
  let alone = List.init n (Printf.sprintf "op %d") in
  (* ops 1-2 and 6-7 are the post-LN Add -> Center_norm pairs *)
  let _, log = run program in
  Helpers.check_true "pairs fused"
    (List.filteri (fun i _ -> i < 5) log = [ "op 0"; "pair 1"; "op 3"; "op 4"; "op 5" ]
    && List.nth log 5 = "pair 6");
  List.iter
    (fun at ->
      let checks =
        { Interp.no_checks with Interp.fault = Some (at, fun v -> raise (Fired v)) }
      in
      match run ~checks program with
      | _ -> Alcotest.failf "fault at op %d never fired" at
      | exception Fired v ->
          Alcotest.(check int) (Printf.sprintf "fault at op %d sees op %d" at at) at v)
    [ 1; 2; 6; 7 ];
  (* an armed fault unfuses only its own pair *)
  let st = { Recorder.log = [] } in
  let checks = { Interp.no_checks with Interp.fault = Some (2, fun _ -> ()) } in
  ignore (RI.run ~checks st program (-1));
  Helpers.check_true "fault at op 2: ops 1 and 2 alone, op 6 paired"
    (let log = List.rev st.Recorder.log in
     List.mem "op 1" log && List.mem "op 2" log && List.mem "pair 6" log);
  (* a sink sees every op of the lowered graph, once, in order *)
  let events = ref [] in
  let checks =
    { Interp.no_checks with Interp.trace = Some (fun e -> events := e.Interp.op_index :: !events) }
  in
  let _, log = run ~checks program in
  Helpers.check_true "traced: every op alone" (log = alone);
  Helpers.check_true "traced: one event per op" (List.rev !events = List.init n Fun.id);
  (* a second reader of the sum keeps the pair apart *)
  let d = program.Ir.input_dim in
  let norm src =
    Ir.Center_norm { src; gamma = Array.make d 1.0; beta = Array.make d 0.0; divide_std = false }
  in
  let shared =
    { program with Ir.ops = [| Ir.Add (0, 0); norm 1; Ir.Add (1, 2) |] }
  in
  let _, log = run shared in
  Helpers.check_true "second reader: ops alone" (log = [ "op 0"; "op 1"; "op 2" ]);
  let last = { program with Ir.ops = [| Ir.Relu 0; Ir.Add (0, 1); norm 2 |] } in
  let out, log = run last in
  Helpers.check_true "sole reader: paired" (log = [ "op 0"; "pair 1" ] && out = 2);
  (* one poison scan per op run alone, one per pair *)
  let scans checks =
    Recorder.scans := 0;
    let _, log = run ~checks program in
    (List.length log, !Recorder.scans)
  in
  let poison = { Interp.no_checks with Interp.poison = true } in
  let runs, n_scans = scans poison in
  Helpers.check_true "pairs ran" (runs < n);
  Alcotest.(check int) "one scan per op or pair" runs n_scans;
  let _, n_scans = scans { poison with Interp.trace = Some ignore } in
  Alcotest.(check int) "traced: one scan per op" n n_scans

(* A residual Add and its Center_norm stay fault sites: poison injected
   at either is a numerical fault, a stall at either trips the deadline,
   and a stall with no deadline (the pair runs as two ops) returns the
   fused run's output to the bit. *)
let test_fused_pair_fault_sites () =
  let program = Helpers.tiny_program ~layers:2 45 in
  Helpers.check_true "ops 1, 2 are Add, Center_norm"
    (match (program.Ir.ops.(1), program.Ir.ops.(2)) with
    | Ir.Add _, Ir.Center_norm { divide_std = false; _ } -> true
    | _ -> false);
  let x = Mat.random_gaussian (Rng.create 145) 3 (Ir.out_dim program 0) 0.7 in
  let pred = Nn.Forward.predict program x in
  let region = Deept.Region.lp_ball ~p:Lp.L2 x ~word:1 ~radius:0.01 in
  let fast = Deept.Config.fast in
  let plain = Deept.Propagate.run fast program region in
  List.iter
    (fun op ->
      let with_fault action = { fast with Deept.Config.fault = Some (Deept.Config.fault op action) } in
      Helpers.check_true (Printf.sprintf "nan at op %d" op)
        (C.certify_v (with_fault Deept.Config.Inject_nan) program region ~true_class:pred
        = Deept.Verdict.Unknown Deept.Verdict.Numerical_fault);
      Helpers.check_true (Printf.sprintf "stall at op %d" op)
        (C.certify_v
           (Deept.Config.with_budget ~deadline:0.02 (with_fault (Deept.Config.Stall 0.05)))
           program region ~true_class:pred
        = Deept.Verdict.Unknown Deept.Verdict.Timeout);
      let stalled = Deept.Propagate.run (with_fault (Deept.Config.Stall 0.001)) program region in
      check_bits (Printf.sprintf "stall at op %d center" op) plain.Z.center stalled.Z.center;
      check_bits (Printf.sprintf "stall at op %d eps" op) plain.Z.eps stalled.Z.eps)
    [ 1; 2; 9; 10 ]

(* Propagate's Linear transfer skips the scan of its source: an infinity
   injected at the op before a Linear is still caught by that op's
   checkpoint, and a NaN the Linear makes from infinite coefficients by
   its own. *)
let test_inf_before_linear () =
  let relu_linear =
    {
      Ir.input_dim = 2;
      Ir.ops =
        [|
          Ir.Relu 0;
          Ir.Linear { src = 1; w = Mat.of_rows [| [| 1.0 |]; [| 0.0 |] |]; b = [| 0.0 |] };
        |];
    }
  in
  let region =
    Deept.Region.lp_ball ~p:Lp.L2 (Mat.of_rows [| [| 0.3; -0.2 |] |]) ~word:0 ~radius:0.1
  in
  let fault op action =
    { Deept.Config.fast with Deept.Config.fault = Some (Deept.Config.fault op action) }
  in
  List.iter
    (fun action ->
      Helpers.check_true "poison before a Linear is a numerical fault"
        (C.certify_v (fault 0 action) relu_linear region ~true_class:0
        = Deept.Verdict.Unknown Deept.Verdict.Numerical_fault);
      match Deept.Propagate.run (fault 0 action) relu_linear region with
      | _ -> Alcotest.fail "the run went past the poisoned op"
      | exception Deept.Verdict.Abort Deept.Verdict.Numerical_fault -> ())
    [ Deept.Config.Inject_inf; Deept.Config.Inject_nan ];
  let cancel =
    Z.make ~p:Lp.L2
      ~center:(Mat.of_rows [| [| 1.0; 2.0 |] |])
      ~phi:(Mat.create 2 0)
      ~eps:(Mat.of_rows [| [| infinity |]; [| neg_infinity |] |])
  in
  let sum =
    {
      Ir.input_dim = 2;
      Ir.ops = [| Ir.Linear { src = 0; w = Mat.make 2 1 1.0; b = [| 0.0 |] } |];
    }
  in
  Helpers.check_true "a NaN the Linear makes is a numerical fault"
    (C.certify_v Deept.Config.fast sum cancel ~true_class:0
    = Deept.Verdict.Unknown Deept.Verdict.Numerical_fault)

let zoo_query name =
  Zoo.data_dir := "../data";
  let entry = Zoo.entry name in
  let model = Zoo.load_or_train ~log:(fun _ -> ()) name in
  let c = Zoo.corpus_of entry.Zoo.corpus in
  let toks, _ = List.nth c.Text.Corpus.test 0 in
  (Nn.Model.to_ir model, Nn.Model.embed_tokens model toks)

(* A traced run (every op alone) and an untraced one (post-LN pairs
   fused) return the same output to the bit: on sst_3, whose pairs
   fuse, and on std_3, whose normalization divides by the standard
   deviation and never fuses. *)
let test_traced_matches_untraced () =
  List.iter
    (fun name ->
      if Sys.file_exists (Printf.sprintf "../data/%s.model" name) then begin
        let program, x = zoo_query name in
        let region = Deept.Region.lp_ball ~p:Lp.L2 x ~word:1 ~radius:0.05 in
        let events = ref 0 in
        let traced =
          Deept.Propagate.run
            (Deept.Config.with_trace (Some (fun _ -> incr events)) Deept.Config.fast)
            program region
        in
        let plain = Deept.Propagate.run Deept.Config.fast program region in
        Alcotest.(check int) (name ^ ": one event per op") (Array.length program.Ir.ops) !events;
        check_bits (name ^ " center") traced.Z.center plain.Z.center;
        check_bits (name ^ " phi") traced.Z.phi plain.Z.phi;
        check_bits (name ^ " eps") traced.Z.eps plain.Z.eps
      end)
    [ "sst_3"; "std_3" ]

(* On sst_3, a run resumed from a Symbol_budget checkpoint (the input of
   the last layer the aborted run entered) matches a run from op 0 to
   the bit, fused pairs on both sides. Reduction is off, so the resumed
   run's layer input is the one the full run saw. *)
let test_resume_zoo_bit_identity () =
  if Sys.file_exists "../data/sst_3.model" then begin
    let program, x = zoo_query "sst_3" in
    let region = Deept.Region.lp_ball ~p:Lp.L2 x ~word:1 ~radius:0.05 in
    let cfg = { Deept.Config.fast with Deept.Config.reduction_k = 0 } in
    let full = Deept.Propagate.run cfg program region in
    let ck = ref None in
    (match
       Deept.Propagate.run
         ~on_budget:(fun c -> ck := Some c)
         (Deept.Config.with_budget ~max_eps:(Z.num_eps full - 1) cfg)
         program region
     with
    | _ -> Alcotest.fail "budget not overrun"
    | exception Deept.Verdict.Abort Deept.Verdict.Symbol_budget -> ());
    match !ck with
    | None -> Alcotest.fail "no checkpoint"
    | Some c ->
        Helpers.check_true "resumes past op 0" (Deept.Propagate.checkpoint_op c > 0);
        let resumed = Deept.Propagate.run ~from:c cfg program region in
        check_bits "center" full.Z.center resumed.Z.center;
        check_bits "phi" full.Z.phi resumed.Z.phi;
        check_bits "eps" full.Z.eps resumed.Z.eps
  end

let () =
  Alcotest.run "propagate"
    [
      ( "soundness",
        [
          Alcotest.test_case "fast all norms" `Slow test_sound_fast;
          Alcotest.test_case "precise" `Slow test_sound_precise;
          Alcotest.test_case "heavy reduction" `Slow test_sound_with_reduction;
          Alcotest.test_case "divide std" `Slow test_sound_divide_std;
          Alcotest.test_case "no refinement" `Quick test_sound_no_refinement;
          Alcotest.test_case "direct softmax" `Quick test_sound_direct_softmax;
          Alcotest.test_case "synonym box" `Quick test_sound_synonym_box;
          Alcotest.test_case "combined variant" `Quick test_combined_variant_runs;
          Alcotest.test_case "vision mode" `Quick test_vision_mode_sound;
        ] );
      ( "precision",
        [ Alcotest.test_case "tighter than ibp" `Quick test_tighter_than_ibp ] );
      ( "properties",
        [
          Alcotest.test_case "reduction only loosens" `Quick test_reduction_only_loosens;
          Alcotest.test_case "zero-radius margin exact" `Quick
            test_zero_radius_margin_exact;
        ] );
      ( "certification",
        [
          Alcotest.test_case "zero radius" `Quick test_certify_zero_radius;
          Alcotest.test_case "positive radius" `Quick test_certified_radius_positive;
          Alcotest.test_case "norm ordering" `Slow test_radius_ordering_l1_l2_linf;
          Alcotest.test_case "binary search" `Quick test_max_radius_bracketing;
          Alcotest.test_case "enumeration agrees" `Quick test_enumeration_agrees;
        ] );
      ( "checkpoint",
        [ Alcotest.test_case "resume bit identity" `Quick test_resume_bit_identity ] );
      ( "fused pair",
        [
          Alcotest.test_case "pair rules" `Quick test_pair_rules;
          Alcotest.test_case "fault sites" `Quick test_fused_pair_fault_sites;
          Alcotest.test_case "inf before a linear" `Quick test_inf_before_linear;
          Alcotest.test_case "traced = untraced" `Quick test_traced_matches_untraced;
          Alcotest.test_case "zoo resume bit identity" `Quick test_resume_zoo_bit_identity;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "dot preempted mid-op" `Quick
            test_dot_preempted_mid_op;
          Alcotest.test_case "typed mid-op timeout" `Quick
            test_deadline_mid_op_typed_verdict;
        ] );
    ]
