open Tensor

let eval_abs_sum ~r ~s t =
  let acc = ref 0.0 in
  for i = 0 to Array.length r - 1 do
    acc := !acc +. Float.abs (r.(i) +. (s.(i) *. t))
  done;
  !acc

(* [Float.compare x y < 0]: NaN equals NaN and is below every other
   float, and -0.0 equals +0.0. Inlined, so no float is boxed. *)
let[@inline] below (x : float) y = x < y || (x <> x && y = y)

(* Stdlib's [Array.sort] (a ternary heap sort) transcribed for an index
   array [a] ordered by the float keys [k.(a.(i))]: the same comparisons
   of the same elements in the same order, hence the same permutation,
   with [below] in place of a comparison closure ([cmp x y < 0] is
   [below x y], [cmp x y > 0] is [below y x]) and a child index of -1
   in place of the [Bottom] exception. *)

(* The child of node [i] with the greatest key among the first [l]
   entries, or -1 when it has none. *)
let maxson k (a : int array) l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x = if below k.(a.(i31)) k.(a.(i31 + 1)) then i31 + 1 else i31 in
    if below k.(a.(x)) k.(a.(i31 + 2)) then i31 + 2 else x
  end
  else if i31 + 1 < l && below k.(a.(i31)) k.(a.(i31 + 1)) then i31 + 1
  else if i31 < l then i31
  else -1

let trickle k (a : int array) l i e =
  let ke = k.(e) in
  let i = ref i and fin = ref false in
  while not !fin do
    let j = maxson k a l !i in
    if j >= 0 && below ke k.(a.(j)) then begin
      a.(!i) <- a.(j);
      i := j
    end
    else begin
      a.(!i) <- e;
      fin := true
    end
  done

let bubble k (a : int array) l i =
  let i = ref i and j = ref (maxson k a l i) in
  while !j >= 0 do
    a.(!i) <- a.(!j);
    i := !j;
    j := maxson k a l !i
  done;
  !i

let trickleup k (a : int array) i e =
  let ke = k.(e) in
  let i = ref i and fin = ref false in
  while not !fin do
    let father = (!i - 1) / 3 in
    if below k.(a.(father)) ke then begin
      a.(!i) <- a.(father);
      if father > 0 then i := father
      else begin
        a.(0) <- e;
        fin := true
      end
    end
    else begin
      a.(!i) <- e;
      fin := true
    end
  done

let sort_by_key k a =
  let l = Array.length a in
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickle k a l i a.(i)
  done;
  for i = l - 1 downto 2 do
    let e = a.(i) in
    a.(i) <- a.(0);
    trickleup k a (bubble k a i 0) e
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

(* Plain loops over parallel float arrays: no closure captures a float
   accumulator and no breakpoint is a boxed tuple. The breakpoints are
   sorted through an index array that starts in the order of the former
   breakpoint list (descending i), with the same key comparison;
   the permutation depends only on the comparison outcomes, so the
   order, and every result, is unchanged. *)
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
    sort_by_key bt order;
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

(* The residual [target - Σ y_v] over variables [v0, v0 + nv) of
   coefficient arrays whose ε rows are [stride] wide, over ε columns
   [0, ee). *)
let residual ~(center : float array) ~(phi : float array) ~(eps : float array) ~ep
    ~stride ~v0 ~nv ~ee ~target =
  let c = ref target in
  let alpha = Array.make ep 0.0 and beta = Array.make ee 0.0 in
  for v = v0 to v0 + nv - 1 do
    c := !c -. center.(v);
    for j = 0 to ep - 1 do
      alpha.(j) <- alpha.(j) -. phi.((v * ep) + j)
    done;
    for j = 0 to ee - 1 do
      beta.(j) <- beta.(j) -. eps.((v * stride) + j)
    done
  done;
  (!c, alpha, beta)

let sum_residual (z : Zonotope.t) ~target =
  let ee = Zonotope.num_eps z in
  residual ~center:z.Zonotope.center.Mat.data ~phi:z.Zonotope.phi.Mat.data
    ~eps:z.Zonotope.eps.Mat.data ~ep:(Zonotope.num_phi z) ~stride:ee ~v0:0
    ~nv:(Zonotope.num_vars z) ~ee ~target

let pivot_tol = 1e-9

(* Any multiplier of the residual is sound, but a huge one (which appears
   when the softmax saturates and the residual's coefficients nearly
   vanish) amplifies the residual's other coefficients catastrophically.
   Refinements needing a larger multiplier are skipped. *)
let t_cap = 100.0

(* y'_v = y_v + t * S applied in place on the coefficient data. *)
let add_multiple_of_s ~(center : float array) ~(phi : float array) ~(eps : float array)
    ~stride ~v ~t ~c_s ~alpha_s ~beta_s =
  if t <> 0.0 then begin
    let ep = Array.length alpha_s and ee = Array.length beta_s in
    center.(v) <- center.(v) +. (t *. c_s);
    for j = 0 to ep - 1 do
      phi.((v * ep) + j) <- phi.((v * ep) + j) +. (t *. alpha_s.(j))
    done;
    for j = 0 to ee - 1 do
      eps.((v * stride) + j) <- eps.((v * stride) + j) +. (t *. beta_s.(j))
    done
  end

(* The softmax-sum refinement of variables [v0, v0 + nv) (ε rows
   [stride] wide, over ε columns [0, ee)), in place: [None] when no ε
   symbol can serve as pivot (nothing is written), else [Some ()] once
   the variables are refined. Columns past [ee] are not touched. *)
let refine_block ~p ~(center : float array) ~(phi : float array) ~(eps : float array)
    ~ep ~stride ~v0 ~nv ~ee =
  if nv < 2 || ee = 0 then None
  else begin
    let c_s, alpha_s, beta_s =
      residual ~center ~phi ~eps ~ep ~stride ~v0 ~nv ~ee ~target:1.0
    in
    (* Pivot: the ε symbol with the largest residual coefficient. *)
    let k = ref 0 in
    for j = 1 to ee - 1 do
      if Float.abs beta_s.(j) > Float.abs beta_s.(!k) then k := j
    done;
    let k = !k in
    if Float.abs beta_s.(k) < pivot_tol then None
    else begin
      (* Step 1: refine y_0 with the mass-minimizing multiplier. Candidates
         eliminating a φ coefficient are disallowed (Appendix A.1). *)
      let r = Array.make (ep + ee) 0.0 and s = Array.make (ep + ee) 0.0 in
      let allowed = Array.make (ep + ee) true in
      for j = 0 to ep - 1 do
        r.(j) <- phi.((v0 * ep) + j);
        s.(j) <- alpha_s.(j);
        allowed.(j) <- false
      done;
      for j = 0 to ee - 1 do
        r.(ep + j) <- eps.((v0 * stride) + j);
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
      add_multiple_of_s ~center ~phi ~eps ~stride ~v:v0 ~t:t0 ~c_s ~alpha_s ~beta_s;
      (* Step 2: eliminate the pivot symbol from the other variables. *)
      for v = v0 + 1 to v0 + nv - 1 do
        let t = -.eps.((v * stride) + k) /. beta_s.(k) in
        if Float.abs t <= t_cap then
          add_multiple_of_s ~center ~phi ~eps ~stride ~v ~t ~c_s ~alpha_s ~beta_s
      done;
      (* Step 3: tighten ε ranges implied by S = 0 and renormalize the
         tightened symbols back to [-1, 1] within this zonotope. *)
      let q = Lp.dual p in
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
            for v = v0 to v0 + nv - 1 do
              let coeff = eps.((v * stride) + m) in
              if coeff <> 0.0 then begin
                center.(v) <- center.(v) +. (coeff *. nmid);
                eps.((v * stride) + m) <- coeff *. nrad
              end
            done
          end
        end
      done;
      Some ()
    end
  end

(* The residual mix adds t * β_s to every variable's ε row; β_s is ±0.0
   on columns dead in every row and t is finite (capped), so dead
   columns stay dead — but the writes land in all rows, so each band
   must be widened to the full row range. *)
let refined_occ ~nv occ = Bands.widen_rows ~rows:nv occ

let softmax_sum (z : Zonotope.t) =
  let nv = Zonotope.num_vars z and ee = Zonotope.num_eps z in
  let center = Mat.copy z.Zonotope.center in
  let phi = Mat.copy z.Zonotope.phi in
  let eps = Mat.copy z.Zonotope.eps in
  match
    refine_block ~p:z.Zonotope.p ~center:center.Mat.data ~phi:phi.Mat.data
      ~eps:eps.Mat.data ~ep:(Zonotope.num_phi z) ~stride:ee ~v0:0 ~nv ~ee
  with
  | None -> z
  | Some () ->
      Zonotope.make ~p:z.Zonotope.p ~center ~phi ~eps
      |> Zonotope.with_eps_occ (refined_occ ~nv z.Zonotope.eps_occ)

let softmax_sum_in_place (z : Zonotope.t) ~v0 ~nv ~ee occ =
  match
    refine_block ~p:z.Zonotope.p ~center:z.Zonotope.center.Mat.data
      ~phi:z.Zonotope.phi.Mat.data ~eps:z.Zonotope.eps.Mat.data
      ~ep:(Zonotope.num_phi z) ~stride:(Zonotope.num_eps z) ~v0 ~nv ~ee
  with
  | None -> occ
  | Some () -> refined_occ ~nv occ
