(* Multi-norm Zonotope domain: bounds tightness (Theorem 1), exactness of the
   affine transformers (Theorem 2), structural operations, reduction and the
   softmax-sum refinement machinery. *)

open Tensor
module Z = Deept.Zonotope
module Lp = Deept.Lp

let rng () = Helpers.rng_of 42

(* Instantiations always respect the bounds. *)
let test_bounds_sound () =
  let rng = rng () in
  List.iter
    (fun p ->
      let z = Helpers.random_zonotope ~p rng in
      let b = Z.bounds z in
      for _ = 1 to 200 do
        let x = Z.sample rng z in
        Helpers.check_true "sample within bounds" (Interval.Imat.contains b x)
      done)
    [ Lp.L1; Lp.L2; Lp.Linf ]

(* Bounds are tight: some instantiation approaches each bound. For Linf and
   L1 the extrema are attained at vertices; for L2 along the dual direction. *)
let test_bounds_tight () =
  let rng = rng () in
  List.iter
    (fun p ->
      let z = Helpers.random_zonotope ~p ~vrows:1 ~vcols:2 ~ep:3 ~ee:2 rng in
      let b = Z.bounds z in
      for v = 0 to Z.num_vars z - 1 do
        let _, alpha, beta = Z.var_affine z v in
        (* Construct the maximizing instantiation from the dual norm. *)
        let phi =
          match p with
          | Lp.Linf -> Array.map (fun a -> if a >= 0.0 then 1.0 else -1.0) alpha
          | Lp.L1 ->
              (* put all mass on the largest |alpha| coordinate *)
              let k = ref 0 in
              Array.iteri
                (fun i a -> if Float.abs a > Float.abs alpha.(!k) then k := i)
                alpha;
              Array.mapi
                (fun i a -> if i = !k then (if a >= 0.0 then 1.0 else -1.0) else 0.0)
                alpha
          | Lp.L2 ->
              let n = Vecops.l2 alpha in
              if n = 0.0 then Array.map (fun _ -> 0.0) alpha
              else Array.map (fun a -> a /. n) alpha
        in
        let eps = Array.map (fun b -> if b >= 0.0 then 1.0 else -1.0) beta in
        let x = Z.instantiate z ~phi ~eps in
        let hi = Mat.get b.Interval.Imat.hi (v / 2) (v mod 2) in
        Helpers.check_float ~tol:1e-9
          (Printf.sprintf "upper bound attained (p=%s)" (Lp.to_string p))
          hi x.Mat.data.(v)
      done)
    [ Lp.L1; Lp.L2; Lp.Linf ]

(* Affine ops are exact: instantiation commutes with the operation. *)
let test_linear_map_exact () =
  let rng = rng () in
  let z = Helpers.random_zonotope ~vrows:2 ~vcols:3 rng in
  let w = Mat.random_gaussian rng 3 4 1.0 in
  let b = Array.init 4 (fun _ -> Rng.gaussian rng) in
  let out = Z.linear_map z w b in
  for _ = 1 to 100 do
    let phi = Lp.unit_ball_sample rng z.Z.p (Z.num_phi z) in
    let eps = Array.init (Z.num_eps z) (fun _ -> Rng.uniform rng (-1.0) 1.0) in
    let x = Z.instantiate z ~phi ~eps in
    let expected = Mat.add_row_broadcast (Mat.matmul x w) b in
    let got = Z.instantiate out ~phi ~eps in
    Helpers.check_true "linear_map exact" (Mat.equal ~tol:1e-9 expected got)
  done

let test_add_exact () =
  let rng = rng () in
  let a = Helpers.random_zonotope ~ee:3 rng in
  let b = Helpers.random_zonotope ~ee:5 rng in
  let s = Z.add a b in
  for _ = 1 to 100 do
    let phi = Lp.unit_ball_sample rng a.Z.p (Z.num_phi a) in
    let eps = Array.init 5 (fun _ -> Rng.uniform rng (-1.0) 1.0) in
    let xa = Z.instantiate a ~phi ~eps:(Array.sub eps 0 3) in
    let xb = Z.instantiate b ~phi ~eps in
    let got = Z.instantiate s ~phi ~eps in
    Helpers.check_true "add exact" (Mat.equal ~tol:1e-9 (Mat.add xa xb) got)
  done

let test_center_rows_exact () =
  let rng = rng () in
  let z = Helpers.random_zonotope ~vrows:3 ~vcols:4 rng in
  let gamma = Array.init 4 (fun _ -> Rng.gaussian rng) in
  let beta = Array.init 4 (fun _ -> Rng.gaussian rng) in
  let out = Z.center_rows z ~gamma ~beta in
  for _ = 1 to 100 do
    let phi = Lp.unit_ball_sample rng z.Z.p (Z.num_phi z) in
    let eps = Array.init (Z.num_eps z) (fun _ -> Rng.uniform rng (-1.0) 1.0) in
    let x = Z.instantiate z ~phi ~eps in
    let means = Mat.row_means x in
    let expected =
      Mat.mapi (fun i j v -> (gamma.(j) *. (v -. means.(i))) +. beta.(j)) x
    in
    let got = Z.instantiate out ~phi ~eps in
    Helpers.check_true "center_rows exact" (Mat.equal ~tol:1e-9 expected got)
  done

let test_structural_reindex () =
  let rng = rng () in
  let z = Helpers.random_zonotope ~vrows:3 ~vcols:4 rng in
  let phi = Lp.unit_ball_sample rng z.Z.p (Z.num_phi z) in
  let eps = Array.init (Z.num_eps z) (fun _ -> Rng.uniform rng (-1.0) 1.0) in
  let x = Z.instantiate z ~phi ~eps in
  let t = Z.instantiate (Z.transpose_value z) ~phi ~eps in
  Helpers.check_true "transpose_value" (Mat.equal ~tol:0.0 (Mat.transpose x) t);
  let r = Z.instantiate (Z.select_value_rows z 1 2) ~phi ~eps in
  Helpers.check_true "select_value_rows" (Mat.equal ~tol:0.0 (Mat.sub_rows x 1 2) r);
  let c = Z.instantiate (Z.select_value_cols z 1 2) ~phi ~eps in
  Helpers.check_true "select_value_cols" (Mat.equal ~tol:0.0 (Mat.sub_cols x 1 2) c);
  let z2 = Helpers.random_zonotope ~vrows:3 ~vcols:2 ~ee:3 rng in
  let w = Mat.random_gaussian rng 6 2 1.0 and b = [| 0.25; -0.5 |] in
  let h = Z.linear_join [ z; z2 ] w b in
  let x2 = Z.instantiate z2 ~phi ~eps:(Array.sub eps 0 3) in
  let hx = Z.instantiate h ~phi ~eps in
  Helpers.check_true "linear_join"
    (Mat.equal ~tol:1e-9 (Mat.add_row_broadcast (Mat.matmul (Mat.hcat x x2) w) b) hx);
  let m = Mat.random_gaussian rng 5 3 1.0 in
  let mz = Z.instantiate (Z.map_rows_affine z m) ~phi ~eps in
  Helpers.check_true "map_rows_affine" (Mat.equal ~tol:1e-9 (Mat.matmul m x) mz)

(* Reduction over-approximates: the reduced zonotope's bounds contain the
   original bounds, and every instantiation of the original is covered. *)
let test_reduction_sound () =
  let rng = rng () in
  let ctx = Z.ctx () in
  let z = Helpers.random_zonotope ~vrows:2 ~vcols:3 ~ee:12 rng in
  ignore (Z.alloc_eps ctx 12);
  let reduced = Deept.Reduction.decorrelate_min_k ctx z 4 in
  Helpers.check_true "reduced width" (Z.num_eps reduced <= 4 + Z.num_vars z);
  Helpers.check_true "ctx reset" (Z.ctx_symbols ctx = Z.num_eps reduced);
  let rb = Z.bounds reduced in
  for _ = 1 to 300 do
    let x = Z.sample rng z in
    Helpers.check_true "reduction covers original" (Interval.Imat.contains rb x)
  done

let test_reduction_noop_when_small () =
  let ctx = Z.ctx () in
  let rng = rng () in
  let z = Helpers.random_zonotope ~ee:3 rng in
  ignore (Z.alloc_eps ctx 3);
  let r = Deept.Reduction.decorrelate_min_k ctx z 8 in
  Helpers.check_true "no-op keeps width" (Z.num_eps r = 3)

(* Reduction keeps exactly the top-k columns by score. *)
let test_reduction_keeps_top_k () =
  let rng = rng () in
  let ctx = Z.ctx () in
  let z = Helpers.random_zonotope ~vrows:2 ~vcols:2 ~ee:10 rng in
  ignore (Z.alloc_eps ctx 10);
  let s = Deept.Reduction.scores z in
  Helpers.check_true "score length" (Array.length s = 10);
  (* scores are the column l1 masses *)
  for j = 0 to 9 do
    let mass = ref 0.0 in
    for v = 0 to 3 do
      mass := !mass +. Float.abs (Tensor.Mat.get z.Z.eps v j)
    done;
    Helpers.check_float ~tol:1e-12 "score = column mass" !mass s.(j)
  done;
  let reduced = Deept.Reduction.decorrelate_min_k ctx z 3 in
  (* the three kept columns carry the three largest scores *)
  let sorted = Array.copy s in
  Array.sort (fun a b -> compare b a) sorted;
  let kept = Deept.Reduction.scores (Z.make ~p:z.Z.p ~center:reduced.Z.center
      ~phi:reduced.Z.phi ~eps:(Tensor.Mat.sub_cols reduced.Z.eps 0 3)) in
  Array.sort (fun a b -> compare b a) kept;
  for i = 0 to 2 do
    Helpers.check_float ~tol:1e-12 "kept top column" sorted.(i) kept.(i)
  done

let test_reduction_deterministic () =
  let mk () =
    let rng = Helpers.rng_of 77 in
    let ctx = Z.ctx () in
    let z = Helpers.random_zonotope ~ee:12 rng in
    ignore (Z.alloc_eps ctx 12);
    Deept.Reduction.decorrelate_min_k ctx z 4
  in
  let a = mk () and b = mk () in
  Helpers.check_true "deterministic"
    (Tensor.Mat.equal a.Z.eps b.Z.eps && Tensor.Mat.equal a.Z.center b.Z.center)

(* Precise dot product never yields wider output bounds than Fast. *)
let test_precise_no_wider_end_to_end () =
  let rng = rng () in
  for _ = 1 to 20 do
    let mk ee =
      Helpers.random_zonotope ~p:Lp.Linf ~vrows:2 ~vcols:3 ~ep:0 ~ee rng
    in
    let a = mk 5 in
    let b =
      Z.make ~p:Lp.Linf
        ~center:(Tensor.Mat.random_gaussian rng 3 2 1.0)
        ~phi:(Tensor.Mat.create 6 0)
        ~eps:(Tensor.Mat.random_gaussian rng 6 5 0.3)
    in
    let run precise =
      let ctx = Z.ctx () in
      ignore (Z.alloc_eps ctx 5);
      Z.bounds (Deept.Dot.matmul_zz ~precise ctx a b)
    in
    let bf = run false and bp = run true in
    for v = 0 to 3 do
      let wf = bf.Interval.Imat.hi.Tensor.Mat.data.(v) -. bf.Interval.Imat.lo.Tensor.Mat.data.(v) in
      let wp = bp.Interval.Imat.hi.Tensor.Mat.data.(v) -. bp.Interval.Imat.lo.Tensor.Mat.data.(v) in
      Helpers.check_true "precise <= fast width" (wp <= wf +. 1e-9)
    done
  done

(* A.1 minimization: matches brute force on random instances. *)
let test_minimize_abs_sum () =
  let rng = rng () in
  for _ = 1 to 200 do
    let n = 1 + Rng.int rng 8 in
    let r = Array.init n (fun _ -> Rng.gaussian rng) in
    let s = Array.init n (fun _ -> Rng.gaussian rng) in
    let allowed = Array.init n (fun _ -> Rng.float rng > 0.3) in
    let f t =
      Array.to_list (Array.mapi (fun i ri -> Float.abs (ri +. (s.(i) *. t))) r)
      |> List.fold_left ( +. ) 0.0
    in
    let t_star = Deept.Refinement.minimize_abs_sum ~r ~s ~allowed in
    (* Compare against the best allowed breakpoint (plus t = 0 fallback). *)
    let candidates = ref [ ] in
    Array.iteri
      (fun i si ->
        if si <> 0.0 && allowed.(i) then candidates := (-.r.(i) /. si) :: !candidates)
      s;
    (match !candidates with
    | [] -> Helpers.check_float "fallback 0" 0.0 t_star
    | cs ->
        let best = List.fold_left (fun acc t -> Float.min acc (f t)) infinity cs in
        (* t_star must be at least as good as every allowed candidate. *)
        Helpers.check_true "minimizer optimal among allowed candidates"
          (f t_star <= best +. 1e-9))
  done

(* Figure 4: the example zonotope from the paper's caption. x = 4 + phi1 +
   phi2 - eps1 + 2 eps2, y = 3 + phi1 + phi2 + eps1 + eps2, ||phi||2 <= 1. *)
let test_figure4_bounds () =
  let center = Mat.of_rows [| [| 4.0; 3.0 |] |] in
  let phi = Mat.of_rows [| [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |] in
  let eps = Mat.of_rows [| [| -1.0; 2.0 |]; [| 1.0; 1.0 |] |] in
  let z = Z.make ~p:Lp.L2 ~center ~phi ~eps in
  let b = Z.bounds z in
  (* x: 4 ± (||(1,1)||_2 + |−1| + |2|) = 4 ± (√2 + 3) *)
  Helpers.check_float ~tol:1e-9 "x hi" (4.0 +. sqrt 2.0 +. 3.0)
    (Mat.get b.Interval.Imat.hi 0 0);
  Helpers.check_float ~tol:1e-9 "x lo" (4.0 -. sqrt 2.0 -. 3.0)
    (Mat.get b.Interval.Imat.lo 0 0);
  Helpers.check_float ~tol:1e-9 "y hi" (3.0 +. sqrt 2.0 +. 2.0)
    (Mat.get b.Interval.Imat.hi 0 1)

(* qcheck properties over randomly shaped zonotopes. *)
let gen_shape = QCheck.(quad (1 -- 3) (1 -- 4) (0 -- 3) (0 -- 5))

let prop_sample_in_bounds =
  Helpers.qcheck_case ~count:60 "samples lie in bounds" gen_shape
    (fun (vr, vc, ep, ee) ->
      let rng = Rng.create (vr + (7 * vc) + (31 * ep) + (101 * ee)) in
      let z = Helpers.random_zonotope ~vrows:vr ~vcols:vc ~ep ~ee rng in
      let b = Z.bounds z in
      let ok = ref true in
      for _ = 1 to 20 do
        if not (Interval.Imat.contains b (Z.sample rng z)) then ok := false
      done;
      !ok)

let prop_pad_idempotent =
  Helpers.qcheck_case ~count:60 "pad_eps is idempotent and semantic-preserving"
    gen_shape
    (fun (vr, vc, ep, ee) ->
      let rng = Rng.create (13 + vr + (7 * vc) + (31 * ep) + (101 * ee)) in
      let z = Helpers.random_zonotope ~vrows:vr ~vcols:vc ~ep ~ee rng in
      let p1 = Z.pad_eps z (ee + 3) in
      let p2 = Z.pad_eps p1 (ee + 3) in
      Z.num_eps p1 = ee + 3
      && Z.num_eps p2 = ee + 3
      && Mat.equal p1.Z.eps p2.Z.eps
      &&
      let phi = Deept.Lp.unit_ball_sample rng z.Z.p ep in
      let eps = Array.init ee (fun _ -> Rng.uniform rng (-1.0) 1.0) in
      Mat.equal ~tol:0.0 (Z.instantiate z ~phi ~eps) (Z.instantiate p1 ~phi ~eps))

let prop_affine_composition =
  Helpers.qcheck_case ~count:40 "linear_map composes" gen_shape
    (fun (vr, vc, ep, ee) ->
      let rng = Rng.create (29 + vr + (7 * vc) + (31 * ep) + (101 * ee)) in
      let z = Helpers.random_zonotope ~vrows:vr ~vcols:vc ~ep ~ee rng in
      let w1 = Mat.random_gaussian rng vc 3 1.0 in
      let w2 = Mat.random_gaussian rng 3 2 1.0 in
      let zero3 = Array.make 3 0.0 and zero2 = Array.make 2 0.0 in
      let a = Z.linear_map (Z.linear_map z w1 zero3) w2 zero2 in
      let b = Z.linear_map z (Mat.matmul w1 w2) zero2 in
      Mat.equal ~tol:1e-9 a.Z.center b.Z.center
      && Mat.equal ~tol:1e-9 a.Z.phi b.Z.phi
      && Mat.equal ~tol:1e-9 a.Z.eps b.Z.eps)

let prop_scale_neg =
  Helpers.qcheck_case ~count:60 "neg = scale (-1), bounds mirror" gen_shape
    (fun (vr, vc, ep, ee) ->
      let rng = Rng.create (41 + vr + (7 * vc) + (31 * ep) + (101 * ee)) in
      let z = Helpers.random_zonotope ~vrows:vr ~vcols:vc ~ep ~ee rng in
      let n = Z.neg z in
      let bz = Z.bounds z and bn = Z.bounds n in
      let ok = ref true in
      for v = 0 to Z.num_vars z - 1 do
        if
          Float.abs (bn.Interval.Imat.hi.Mat.data.(v) +. bz.Interval.Imat.lo.Mat.data.(v)) > 1e-9
          || Float.abs (bn.Interval.Imat.lo.Mat.data.(v) +. bz.Interval.Imat.hi.Mat.data.(v)) > 1e-9
        then ok := false
      done;
      !ok)

let () =
  Alcotest.run "zonotope"
    [
      ( "domain",
        [
          Alcotest.test_case "bounds sound" `Quick test_bounds_sound;
          Alcotest.test_case "bounds tight" `Quick test_bounds_tight;
          Alcotest.test_case "linear_map exact" `Quick test_linear_map_exact;
          Alcotest.test_case "add exact" `Quick test_add_exact;
          Alcotest.test_case "center_rows exact" `Quick test_center_rows_exact;
          Alcotest.test_case "structural ops" `Quick test_structural_reindex;
          Alcotest.test_case "figure 4 example" `Quick test_figure4_bounds;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "sound" `Quick test_reduction_sound;
          Alcotest.test_case "no-op below budget" `Quick test_reduction_noop_when_small;
          Alcotest.test_case "keeps top k" `Quick test_reduction_keeps_top_k;
          Alcotest.test_case "deterministic" `Quick test_reduction_deterministic;
          Alcotest.test_case "precise no wider" `Quick test_precise_no_wider_end_to_end;
        ] );
      ( "refinement",
        [ Alcotest.test_case "A.1 minimization" `Quick test_minimize_abs_sum ] );
      ( "properties",
        [
          prop_sample_in_bounds;
          prop_pad_idempotent;
          prop_affine_composition;
          prop_scale_neg;
        ] );
    ]
