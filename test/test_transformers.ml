(* Soundness (by dense sampling) and precision properties of the non-affine
   abstract transformers: elementwise relaxations, the fast and precise dot
   products, softmax and its sum refinement. *)

open Tensor
module Z = Deept.Zonotope
module E = Deept.Elementwise
module Lp = Deept.Lp

let rng () = Helpers.rng_of 7

(* Pointwise relaxation coverage: for a dense grid of x in [l, u], f(x) must
   lie inside [lambda x + mu - beta, lambda x + mu + beta]. *)
let check_coeffs_cover ~name rule f ~l ~u =
  let c = rule ~l ~u in
  Helpers.check_true (name ^ ": beta >= 0") (c.E.beta >= -1e-12);
  for i = 0 to 200 do
    let x = l +. (float_of_int i /. 200.0 *. (u -. l)) in
    let y = f x in
    let mid = (c.E.lambda *. x) +. c.E.mu in
    if Float.abs (y -. mid) > c.E.beta +. 1e-9 then
      Alcotest.failf "%s: f(%g)=%g not covered (mid %g, beta %g) on [%g,%g]" name
        x y mid c.E.beta l u
  done

let ranges = [ (-3.0, 2.0); (-0.5, 0.7); (0.1, 4.0); (1e-4, 1e-3); (-5.0, -1.0) ]

let test_relu_coeffs () =
  List.iter
    (fun (l, u) ->
      check_coeffs_cover ~name:"relu" E.relu_coeffs (fun x -> Float.max 0.0 x) ~l ~u)
    ranges

let test_tanh_coeffs () =
  List.iter
    (fun (l, u) -> check_coeffs_cover ~name:"tanh" E.tanh_coeffs tanh ~l ~u)
    ranges

let test_exp_coeffs () =
  List.iter
    (fun (l, u) -> check_coeffs_cover ~name:"exp" E.exp_coeffs exp ~l ~u)
    (ranges @ [ (-20.0, 3.0); (50.0, 120.0) ]);
  (* positivity of the relaxation's lower edge (needed by recip) *)
  List.iter
    (fun (l, u) ->
      let c = E.exp_coeffs ~l ~u in
      let lo1 = (c.E.lambda *. l) +. c.E.mu -. c.E.beta in
      let lo2 = (c.E.lambda *. u) +. c.E.mu -. c.E.beta in
      Helpers.check_true "exp output positive" (Float.min lo1 lo2 > 0.0))
    ranges

let test_recip_coeffs () =
  List.iter
    (fun (l, u) ->
      check_coeffs_cover ~name:"recip" (fun ~l ~u -> E.recip_coeffs ~l ~u ()) (fun x -> 1.0 /. x) ~l ~u;
      let c = E.recip_coeffs ~l ~u () in
      let lo1 = (c.E.lambda *. l) +. c.E.mu -. c.E.beta in
      let lo2 = (c.E.lambda *. u) +. c.E.mu -. c.E.beta in
      Helpers.check_true "recip output positive" (Float.min lo1 lo2 > 0.0))
    [ (0.5, 2.0); (1.0, 30.0); (0.01, 0.02); (3.0, 3.5) ]

let test_sqrt_coeffs () =
  List.iter
    (fun (l, u) -> check_coeffs_cover ~name:"sqrt" E.sqrt_coeffs sqrt ~l ~u)
    [ (0.0, 2.0); (0.5, 9.0); (1e-5, 1e-4) ]

(* Whole-zonotope elementwise application. *)
let test_elementwise_zonotope () =
  let rng = rng () in
  List.iter
    (fun (name, apply, f) ->
      let ctx = Z.ctx () in
      let z = Helpers.random_zonotope ~p:Lp.L2 ~vrows:2 ~vcols:3 ~ee:4 rng in
      ignore (Z.alloc_eps ctx 4);
      let out = apply ctx z in
      Helpers.check_transformer_sound ~name rng z out (Mat.map f))
    [
      ("relu", E.relu, fun x -> Float.max 0.0 x);
      ("tanh", E.tanh_, tanh);
      ("exp", E.exp_, exp);
    ]

(* Dot products. *)
let mk_pair rng ~ee =
  let ctx = Z.ctx () in
  let a = Helpers.random_zonotope ~p:Lp.L2 ~vrows:2 ~vcols:3 ~ep:2 ~ee rng in
  let b = Helpers.random_zonotope ~p:Lp.L2 ~vrows:3 ~vcols:2 ~ep:2 ~ee rng in
  ignore (Z.alloc_eps ctx ee);
  (ctx, a, b)

(* Joint instantiation check: a and b share symbols, so we check the product
   against the affine output plus fresh-symbol slack. *)
let check_matmul_sound ~name ~precise rng =
  let ctx, a, b = mk_pair rng ~ee:4 in
  let out = Deept.Dot.matmul_zz ~precise ctx a b in
  for s = 1 to 300 do
    let phi = Lp.unit_ball_sample rng a.Z.p (Z.num_phi a) in
    let eps = Array.init 4 (fun _ -> Rng.uniform rng (-1.0) 1.0) in
    let xa = Z.instantiate a ~phi ~eps in
    let xb = Z.instantiate b ~phi ~eps in
    let y_true = Mat.matmul xa xb in
    let lin = Z.instantiate out ~phi ~eps in
    let w = Z.num_eps out in
    for v = 0 to Z.num_vars out - 1 do
      let slack = ref 0.0 in
      for j = 4 to w - 1 do
        slack := !slack +. Float.abs out.Z.eps.Mat.data.((v * w) + j)
      done;
      let gap = Float.abs (y_true.Mat.data.(v) -. lin.Mat.data.(v)) in
      if gap > !slack +. 1e-9 then
        Alcotest.failf "%s: sample %d var %d gap %.3e > slack %.3e" name s v gap
          !slack
    done
  done

let test_matmul_fast_sound () = check_matmul_sound ~name:"matmul fast" ~precise:false (rng ())
let test_matmul_precise_sound () =
  check_matmul_sound ~name:"matmul precise" ~precise:true (rng ())

(* Precise remainder is never looser than fast for pure-Linf zonotopes. *)
let test_precise_tighter () =
  let rng = rng () in
  for _ = 1 to 100 do
    let d = 1 + Rng.int rng 4 and e = 1 + Rng.int rng 6 in
    let b1 = Mat.random_gaussian rng d e 1.0 in
    let b2 = Mat.random_gaussian rng d e 1.0 in
    let fast =
      Deept.Dot.fast_abs_bound ~order:Deept.Config.Linf_first ~p1:Lp.Linf
        ~p2:Lp.Linf b1 b2
    in
    let p = Deept.Dot.precise_eps_bound b1 b2 in
    Helpers.check_true "precise within fast"
      (p.Interval.Itv.lo >= -.fast -. 1e-9 && p.Interval.Itv.hi <= fast +. 1e-9)
  done

(* Precise bound is itself sound: sample eps vectors. *)
let test_precise_eps_bound_sound () =
  let rng = rng () in
  for _ = 1 to 50 do
    let d = 1 + Rng.int rng 3 and e = 1 + Rng.int rng 5 in
    let b1 = Mat.random_gaussian rng d e 1.0 in
    let b2 = Mat.random_gaussian rng d e 1.0 in
    let itv = Deept.Dot.precise_eps_bound b1 b2 in
    for _ = 1 to 100 do
      let eps = Array.init e (fun _ -> Rng.uniform rng (-1.0) 1.0) in
      let v1 = Mat.mat_vec b1 eps and v2 = Mat.mat_vec b2 eps in
      let x = Vecops.dot v1 v2 in
      Helpers.check_true "precise bound covers"
        (x >= itv.Interval.Itv.lo -. 1e-9 && x <= itv.Interval.Itv.hi +. 1e-9)
    done
  done

(* Reference for [Dot.precise_eps_bound]: Equation 6 summed over the full
   E x E Gram matrix C = B1^T B2, every column dead or alive. *)
let gram_eps_bound (b1 : Mat.t) (b2 : Mat.t) =
  let e = Mat.cols b1 in
  if e = 0 then Interval.Itv.zero
  else begin
    let c = Mat.gemm ~ta:true b1 b2 in
    let lo = ref 0.0 and hi = ref 0.0 in
    for k = 0 to e - 1 do
      let ckk = Mat.get c k k in
      if ckk > 0.0 then hi := !hi +. ckk else lo := !lo +. ckk;
      for l = k + 1 to e - 1 do
        let s = Float.abs (Mat.get c k l +. Mat.get c l k) in
        hi := !hi +. s;
        lo := !lo -. s
      done
    done;
    Interval.Itv.make !lo !hi
  end

(* Random k x E operand pairs with the structure the packed kernel keys
   on: columns dead in both operands (0-95%), columns live in one operand
   only, signed zeros inside and outside live columns, and in some trials
   scattered inf/NaN entries. [lo] and [hi] must match the Gram reference
   bit for bit; where the reference raises (a NaN bound), the kernel must
   return top. *)
let test_precise_packed_bit_identity () =
  let rng = Helpers.rng_of 12 in
  let bits = Int64.bits_of_float in
  let tops = ref 0 and compared = ref 0 in
  let check name b1 b2 =
    let got = Deept.Dot.precise_eps_bound b1 b2 in
    match gram_eps_bound b1 b2 with
    | want ->
        incr compared;
        if
          bits got.Interval.Itv.lo <> bits want.Interval.Itv.lo
          || bits got.Interval.Itv.hi <> bits want.Interval.Itv.hi
        then
          Alcotest.failf "%s: packed [%h, %h] <> Gram [%h, %h]" name got.Interval.Itv.lo
            got.Interval.Itv.hi want.Interval.Itv.lo want.Interval.Itv.hi
    | exception Invalid_argument _ ->
        incr tops;
        Helpers.check_true (name ^ ": NaN bound maps to top") (got = Interval.Itv.top)
  in
  let signed_zero () = if Rng.bool rng then 0.0 else -0.0 in
  List.iter
    (fun e ->
      for trial = 1 to 40 do
        let k = 1 + Rng.int rng 6 in
        let dead = Rng.uniform rng 0.0 0.95 in
        (* half the trials keep zeros out of live columns *)
        let zeros = if Rng.bool rng then 0.2 else 0.0 in
        let b1 = Mat.create k e and b2 = Mat.create k e in
        for c = 0 to e - 1 do
          (* 0: dead in both, 1: live in b1 only, 2: b2 only, 3: both *)
          let kind = if Rng.float rng < dead then 0 else 1 + Rng.int rng 3 in
          let entry live =
            if live && Rng.float rng >= zeros then Rng.gaussian rng else signed_zero ()
          in
          for t = 0 to k - 1 do
            Mat.set b1 t c (entry (kind = 1 || kind = 3));
            Mat.set b2 t c (entry (kind = 2 || kind = 3))
          done
        done;
        if e > 0 && trial mod 4 = 0 then
          for _ = 1 to 1 + Rng.int rng 3 do
            let m = if Rng.bool rng then b1 else b2 in
            Mat.set m (Rng.int rng k) (Rng.int rng e)
              (Rng.choose rng [| infinity; neg_infinity; nan |])
          done;
        check (Printf.sprintf "k=%d E=%d trial %d" k e trial) b1 b2
      done)
    [ 0; 1; 7; 120; 121; 400 ];
  (* An inf in [b1] meets zeros only in dead columns: the live pairs alone
     give [0, inf], the Gram path's inf * 0 gives NaN, hence top. An inf
     in [b2] against dead columns stays [0, inf] on both paths. *)
  let row r = Mat.of_rows [| r |] in
  let tops_before = !tops in
  check "b1 inf, dead columns" (row [| infinity; 0.0; -0.0 |]) (row [| 1.0; 0.0; 0.0 |]);
  Helpers.check_true "b1 inf against dead columns is top" (!tops = tops_before + 1);
  check "b2 inf, dead columns" (row [| 1.0; -0.0; 0.0 |]) (row [| infinity; 0.0; 0.0 |]);
  (* both branches of the oracle must actually have run *)
  Helpers.check_true "some bounds compared" (!compared > 100);
  Helpers.check_true "some NaN bounds mapped to top" (!tops > 0)

(* Dual-norm cascade bound is sound for all norm combinations and orders. *)
let test_fast_bound_sound () =
  let rng = rng () in
  let norms = [ Lp.L1; Lp.L2; Lp.Linf ] in
  List.iter
    (fun p1 ->
      List.iter
        (fun p2 ->
          List.iter
            (fun order ->
              for _ = 1 to 20 do
                let d = 1 + Rng.int rng 3 in
                let e1 = 1 + Rng.int rng 4 and e2 = 1 + Rng.int rng 4 in
                let v = Mat.random_gaussian rng d e1 1.0 in
                let w = Mat.random_gaussian rng d e2 1.0 in
                let bound = Deept.Dot.fast_abs_bound ~order ~p1 ~p2 v w in
                for _ = 1 to 50 do
                  let x1 = Lp.unit_ball_sample rng p1 e1 in
                  let x2 = Lp.unit_ball_sample rng p2 e2 in
                  let prod = Vecops.dot (Mat.mat_vec v x1) (Mat.mat_vec w x2) in
                  Helpers.check_true "fast bound covers"
                    (Float.abs prod <= bound +. 1e-9)
                done
              done)
            [ Deept.Config.Linf_first; Deept.Config.Lp_first ])
        norms)
    norms

(* Multiplication transformer. *)
let test_mul_sound () =
  let rng = rng () in
  let ctx = Z.ctx () in
  let a = Helpers.random_zonotope ~p:Lp.L1 ~vrows:2 ~vcols:2 ~ee:3 rng in
  let b = Helpers.random_zonotope ~p:Lp.L1 ~vrows:2 ~vcols:2 ~ee:3 rng in
  ignore (Z.alloc_eps ctx 3);
  let out = Deept.Dot.mul_zz ctx a b in
  for _ = 1 to 300 do
    let phi = Lp.unit_ball_sample rng a.Z.p (Z.num_phi a) in
    let eps = Array.init 3 (fun _ -> Rng.uniform rng (-1.0) 1.0) in
    let y_true = Mat.mul (Z.instantiate a ~phi ~eps) (Z.instantiate b ~phi ~eps) in
    let lin = Z.instantiate out ~phi ~eps in
    let w = Z.num_eps out in
    for v = 0 to Z.num_vars out - 1 do
      let slack = ref 0.0 in
      for j = 3 to w - 1 do
        slack := !slack +. Float.abs out.Z.eps.Mat.data.((v * w) + j)
      done;
      Helpers.check_true "mul covered"
        (Float.abs (y_true.Mat.data.(v) -. lin.Mat.data.(v)) <= !slack +. 1e-9)
    done
  done

(* Softmax transformer: sound on both forms, outputs within (0, 1], and the
   stable form is tighter than the direct form. *)
let softmax_zonotope rng ~n ~ee =
  let ctx = Z.ctx () in
  let z = Helpers.random_zonotope ~p:Lp.L2 ~vrows:1 ~vcols:n ~ep:2 ~ee ~scale:1.0 rng in
  ignore (Z.alloc_eps ctx ee);
  (ctx, z)

let concrete_softmax x =
  let row = Mat.row x 0 in
  Mat.row_vector (Vecops.softmax row)

let check_softmax_sound ~form ~refine () =
  let rng = rng () in
  for _ = 1 to 10 do
    let ctx, z = softmax_zonotope rng ~n:4 ~ee:3 in
    let out = Deept.Softmax_t.apply_row ~form ~refine ctx z in
    (* Refinement rewrites symbol columns, so the affine-slack decomposition
       no longer applies; fall back to the bounds check. *)
    if refine then
      Helpers.check_propagation_sound ~samples:200 ~name:"softmax refined" rng z out
        concrete_softmax
    else
      Helpers.check_transformer_sound ~samples:200 ~name:"softmax" rng z out
        concrete_softmax
  done

let test_softmax_stable_sound () =
  check_softmax_sound ~form:Deept.Config.Stable ~refine:false ()

let test_softmax_direct_sound () =
  check_softmax_sound ~form:Deept.Config.Direct ~refine:false ()

let test_softmax_refined_sound () =
  check_softmax_sound ~form:Deept.Config.Stable ~refine:true ()

let test_softmax_output_range () =
  let rng = rng () in
  let ctx, z = softmax_zonotope rng ~n:5 ~ee:4 in
  let out =
    Deept.Softmax_t.apply_row ~form:Deept.Config.Stable ~refine:false ctx z
  in
  let b = Z.bounds out in
  for v = 0 to 4 do
    Helpers.check_true "softmax > 0" (b.Interval.Imat.lo.Mat.data.(v) > 0.0);
    Helpers.check_true "softmax <= 1" (b.Interval.Imat.hi.Mat.data.(v) <= 1.0 +. 1e-9)
  done

let width_sum (z : Z.t) =
  let b = Z.bounds z in
  Mat.sum (Mat.sub b.Interval.Imat.hi b.Interval.Imat.lo)

let test_stable_tighter_than_direct () =
  let rng = rng () in
  let total_stable = ref 0.0 and total_direct = ref 0.0 in
  for _ = 1 to 10 do
    let ctx, z = softmax_zonotope rng ~n:4 ~ee:3 in
    let s = Deept.Softmax_t.apply_row ~form:Deept.Config.Stable ~refine:false ctx z in
    total_stable := !total_stable +. width_sum s;
    let ctx2 = Z.ctx () in
    ignore (Z.alloc_eps ctx2 3);
    let d = Deept.Softmax_t.apply_row ~form:Deept.Config.Direct ~refine:false ctx2 z in
    total_direct := !total_direct +. width_sum d
  done;
  Helpers.check_true "stable form tighter on average" (!total_stable < !total_direct)

(* The refinement's purpose is to force the abstract outputs to behave like
   a distribution: the affine form of the row sum must become (nearly)
   the constant 1, strictly tighter than before refinement. Individual
   variable widths may grow slightly (the pivot elimination redistributes
   coefficient mass); the sum is the honest metric. *)
let sum_bounds (z : Z.t) =
  let n = Z.num_vars z in
  let zsum =
    Z.linear_map (Z.reshape_value z ~rows:1 ~cols:n) (Mat.make n 1 1.0) [| 0.0 |]
  in
  Z.bounds_var zsum 0

let test_refinement_tightens () =
  let rng = rng () in
  let improved = ref 0 in
  for _ = 1 to 20 do
    let ctx, z = softmax_zonotope rng ~n:4 ~ee:3 in
    let base = Deept.Softmax_t.apply_row ~form:Deept.Config.Stable ~refine:false ctx z in
    let refined = Deept.Refinement.softmax_sum base in
    let wb = Interval.Itv.width (sum_bounds base) in
    let wr = Interval.Itv.width (sum_bounds refined) in
    Helpers.check_true "sum bound never loosens" (wr <= wb +. 1e-9);
    if wr < wb -. 1e-9 then incr improved;
    (* The true sum, 1, stays inside the refined sum bound (up to fp). *)
    let sb = sum_bounds refined in
    Helpers.check_true "sum bound contains 1"
      (sb.Interval.Itv.lo <= 1.0 +. 1e-9 && sb.Interval.Itv.hi >= 1.0 -. 1e-9)
  done;
  Helpers.check_true "refinement tightens the sum" (!improved > 0)

(* Standard layer norm transformer soundness. *)
let test_std_norm_sound () =
  let rng = rng () in
  let ctx = Z.ctx () in
  let z = Helpers.random_zonotope ~p:Lp.L2 ~vrows:2 ~vcols:4 ~ee:3 ~scale:1.0 rng in
  ignore (Z.alloc_eps ctx 3);
  let gamma = Array.init 4 (fun _ -> 1.0 +. (0.1 *. Rng.gaussian rng)) in
  let beta = Array.init 4 (fun _ -> 0.1 *. Rng.gaussian rng) in
  let out = Deept.Std_norm.apply ctx z ~gamma ~beta in
  Helpers.check_propagation_sound ~samples:300 ~name:"std_norm" rng z out
    (fun x ->
      let means = Mat.row_means x in
      Mat.mapi
        (fun i j v ->
          let d = Mat.cols x in
          let var = ref 0.0 in
          for t = 0 to d - 1 do
            let u = Mat.get x i t -. means.(i) in
            var := !var +. (u *. u)
          done;
          let sigma = sqrt ((!var /. float_of_int d) +. 1e-5) in
          (gamma.(j) *. ((v -. means.(i)) /. sigma)) +. beta.(j))
        x)

let () =
  Alcotest.run "transformers"
    [
      ( "elementwise",
        [
          Alcotest.test_case "relu coeffs" `Quick test_relu_coeffs;
          Alcotest.test_case "tanh coeffs" `Quick test_tanh_coeffs;
          Alcotest.test_case "exp coeffs" `Quick test_exp_coeffs;
          Alcotest.test_case "recip coeffs" `Quick test_recip_coeffs;
          Alcotest.test_case "sqrt coeffs" `Quick test_sqrt_coeffs;
          Alcotest.test_case "zonotope application" `Quick test_elementwise_zonotope;
        ] );
      ( "dot",
        [
          Alcotest.test_case "fast bound sound" `Quick test_fast_bound_sound;
          Alcotest.test_case "matmul fast sound" `Quick test_matmul_fast_sound;
          Alcotest.test_case "matmul precise sound" `Quick test_matmul_precise_sound;
          Alcotest.test_case "precise <= fast" `Quick test_precise_tighter;
          Alcotest.test_case "precise eps bound sound" `Quick
            test_precise_eps_bound_sound;
          Alcotest.test_case "precise packed = Gram" `Quick
            test_precise_packed_bit_identity;
          Alcotest.test_case "mul sound" `Quick test_mul_sound;
        ] );
      ( "softmax",
        [
          Alcotest.test_case "stable sound" `Quick test_softmax_stable_sound;
          Alcotest.test_case "direct sound" `Quick test_softmax_direct_sound;
          Alcotest.test_case "refined sound" `Quick test_softmax_refined_sound;
          Alcotest.test_case "output in (0,1]" `Quick test_softmax_output_range;
          Alcotest.test_case "stable tighter than direct" `Quick
            test_stable_tighter_than_direct;
          Alcotest.test_case "refinement tightens" `Quick test_refinement_tightens;
        ] );
      ( "std_norm",
        [ Alcotest.test_case "sound" `Quick test_std_norm_sound ] );
    ]
