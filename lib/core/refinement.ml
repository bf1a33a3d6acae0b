open Tensor

let eval_abs_sum ~r ~s t =
  let acc = ref 0.0 in
  for i = 0 to Array.length r - 1 do
    acc := !acc +. Float.abs (r.(i) +. (s.(i) *. t))
  done;
  !acc

(* Plain loops over parallel float arrays: no closure captures a float
   accumulator and no breakpoint is a boxed tuple. The breakpoints are
   sorted through an index array that starts in the order of the former
   breakpoint list (descending i), with the same key comparison;
   [Array.sort]'s permutation depends only on the comparison outcomes,
   so the order, and every result, is unchanged. *)
let minimize_abs_sum ~r ~s ~allowed =
  let n = Array.length r in
  if Array.length s <> n || Array.length allowed <> n then
    invalid_arg "Refinement.minimize_abs_sum: length mismatch";
  (* Breakpoints where one |r + s t| term vanishes. *)
  let bt = Array.make n 0.0 and bw = Array.make n 0.0 and ba = Array.make n false in
  let nb = ref 0 in
  for i = n - 1 downto 0 do
    if s.(i) <> 0.0 then begin
      bt.(!nb) <- -.r.(i) /. s.(i);
      bw.(!nb) <- Float.abs s.(i);
      ba.(!nb) <- allowed.(i);
      incr nb
    end
  done;
  let nb = !nb in
  if nb = 0 then 0.0
  else begin
    let order = Array.init nb Fun.id in
    Array.sort (fun a b -> Float.compare bt.(a) bt.(b)) order;
    let t_of i = bt.(order.(i)) and ok i = ba.(order.(i)) in
    let total = ref 0.0 in
    for i = 0 to nb - 1 do
      total := !total +. bw.(order.(i))
    done;
    (* Weighted median: first breakpoint where the cumulative weight
       reaches half the total — there the slope of f changes sign. *)
    let half = 0.5 *. !total in
    let median = ref (nb - 1) in
    let acc = ref 0.0 and i = ref 0 in
    while !i < nb do
      acc := !acc +. bw.(order.(!i));
      if !acc >= half then begin
        median := !i;
        i := nb
      end
      else incr i
    done;
    if ok !median then t_of !median
    else begin
      (* Linear scan outward for the nearest allowed candidates; f is
         convex, so the best allowed point is one of the two. *)
      let left = ref (!median - 1) in
      while !left >= 0 && not (ok !left) do decr left done;
      let right = ref (!median + 1) in
      while !right < nb && not (ok !right) do incr right done;
      match (!left >= 0, !right < nb) with
      | false, false -> 0.0
      | true, false -> t_of !left
      | false, true -> t_of !right
      | true, true ->
          let fl = eval_abs_sum ~r ~s (t_of !left)
          and fr = eval_abs_sum ~r ~s (t_of !right) in
          if fl <= fr then t_of !left else t_of !right
    end
  end

let sum_residual (z : Zonotope.t) ~target =
  let nv = Zonotope.num_vars z in
  let ep = Zonotope.num_phi z and ee = Zonotope.num_eps z in
  let c = ref target in
  let alpha = Array.make ep 0.0 and beta = Array.make ee 0.0 in
  for v = 0 to nv - 1 do
    c := !c -. z.Zonotope.center.Mat.data.(v);
    for j = 0 to ep - 1 do
      alpha.(j) <- alpha.(j) -. z.Zonotope.phi.Mat.data.((v * ep) + j)
    done;
    for j = 0 to ee - 1 do
      beta.(j) <- beta.(j) -. z.Zonotope.eps.Mat.data.((v * ee) + j)
    done
  done;
  (!c, alpha, beta)

let pivot_tol = 1e-9

(* Any multiplier of the residual is sound, but a huge one (which appears
   when the softmax saturates and the residual's coefficients nearly
   vanish) amplifies the residual's other coefficients catastrophically.
   Refinements needing a larger multiplier are skipped. *)
let t_cap = 100.0

(* y'_v = y_v + t * S applied in place on copies of the coefficient data. *)
let add_multiple_of_s ~center ~phi ~eps ~v ~t ~c_s ~alpha_s ~beta_s =
  if t <> 0.0 then begin
    let ep = Array.length alpha_s and ee = Array.length beta_s in
    center.Mat.data.(v) <- center.Mat.data.(v) +. (t *. c_s);
    for j = 0 to ep - 1 do
      phi.Mat.data.((v * ep) + j) <-
        phi.Mat.data.((v * ep) + j) +. (t *. alpha_s.(j))
    done;
    for j = 0 to ee - 1 do
      eps.Mat.data.((v * ee) + j) <-
        eps.Mat.data.((v * ee) + j) +. (t *. beta_s.(j))
    done
  end

let softmax_sum (z : Zonotope.t) =
  let nv = Zonotope.num_vars z in
  let ep = Zonotope.num_phi z and ee = Zonotope.num_eps z in
  if nv < 2 || ee = 0 then z
  else begin
    let c_s, alpha_s, beta_s = sum_residual z ~target:1.0 in
    (* Pivot: the ε symbol with the largest residual coefficient. *)
    let k = ref 0 in
    for j = 1 to ee - 1 do
      if Float.abs beta_s.(j) > Float.abs beta_s.(!k) then k := j
    done;
    let k = !k in
    if Float.abs beta_s.(k) < pivot_tol then z
    else begin
      let center = Mat.copy z.Zonotope.center in
      let phi = Mat.copy z.Zonotope.phi in
      let eps = Mat.copy z.Zonotope.eps in
      (* Step 1: refine y_0 with the mass-minimizing multiplier. Candidates
         eliminating a φ coefficient are disallowed (Appendix A.1). *)
      let r = Array.make (ep + ee) 0.0 and s = Array.make (ep + ee) 0.0 in
      let allowed = Array.make (ep + ee) true in
      for j = 0 to ep - 1 do
        r.(j) <- phi.Mat.data.(j);
        s.(j) <- alpha_s.(j);
        allowed.(j) <- false
      done;
      for j = 0 to ee - 1 do
        r.(ep + j) <- eps.Mat.data.(j);
        s.(ep + j) <- beta_s.(j)
      done;
      let t0 = minimize_abs_sum ~r ~s ~allowed in
      (* The minimizer only searches breakpoints; t = 0 (no refinement) is
         always admissible, so never do worse than it, and never apply an
         extreme multiplier. *)
      let t0 =
        if Float.abs t0 > t_cap || eval_abs_sum ~r ~s t0 > eval_abs_sum ~r ~s 0.0
        then 0.0
        else t0
      in
      add_multiple_of_s ~center ~phi ~eps ~v:0 ~t:t0 ~c_s ~alpha_s ~beta_s;
      (* Step 2: eliminate the pivot symbol from the other variables. *)
      for v = 1 to nv - 1 do
        let t = -.eps.Mat.data.((v * ee) + k) /. beta_s.(k) in
        if Float.abs t <= t_cap then
          add_multiple_of_s ~center ~phi ~eps ~v ~t ~c_s ~alpha_s ~beta_s
      done;
      (* Step 3: tighten ε ranges implied by S = 0 and renormalize the
         tightened symbols back to [-1, 1] within this zonotope. *)
      let q = Lp.dual z.Zonotope.p in
      let alpha_norm = Lp.norm q alpha_s in
      let beta_l1 = Vecops.l1 beta_s in
      for m = 0 to ee - 1 do
        let bm = beta_s.(m) in
        if Float.abs bm > pivot_tol then begin
          let mid = -.c_s /. bm in
          let rad = (alpha_norm +. beta_l1 -. Float.abs bm) /. Float.abs bm in
          let lo = Float.max (-1.0) (mid -. rad) in
          let hi = Float.min 1.0 (mid +. rad) in
          if lo > -1.0 +. 1e-12 || hi < 1.0 -. 1e-12 then begin
            let lo = Float.min lo hi and hi = Float.max lo hi in
            let nmid = 0.5 *. (lo +. hi) and nrad = 0.5 *. (hi -. lo) in
            for v = 0 to nv - 1 do
              let coeff = eps.Mat.data.((v * ee) + m) in
              if coeff <> 0.0 then begin
                center.Mat.data.(v) <- center.Mat.data.(v) +. (coeff *. nmid);
                eps.Mat.data.((v * ee) + m) <- coeff *. nrad
              end
            done
          end
        end
      done;
      (* The residual mix adds t * β_s to every variable's ε row; β_s is
         ±0.0 on columns dead in every row and t is finite (capped), so
         dead columns stay dead — but the writes land in all rows, so
         each band must be widened to the full row range. *)
      Zonotope.make ~p:z.Zonotope.p ~center ~phi ~eps
      |> Zonotope.with_eps_occ (Bands.widen_rows ~rows:nv z.Zonotope.eps_occ)
    end
  end
