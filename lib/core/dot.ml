open Tensor
open Interval

type quad_bound = {
  phi_phi : Itv.t;
  phi_eps : Itv.t;
  eps_phi : Itv.t;
  eps_eps : Itv.t;
}

(* |V^T| applied to a vector of row norms: t_k = sum_j norms_j * |V_{jk}|. *)
let abs_vec_mat norms (v : Mat.t) =
  let d = Mat.rows v and e = Mat.cols v in
  if Array.length norms <> d then invalid_arg "Dot.abs_vec_mat";
  let out = Array.make e 0.0 in
  for j = 0 to d - 1 do
    let nj = norms.(j) in
    if nj <> 0.0 then begin
      let base = j * e in
      for kk = 0 to e - 1 do
        out.(kk) <- out.(kk) +. (nj *. Float.abs v.Mat.data.(base + kk))
      done
    end
  done;
  out

(* Equation 5 with [w] normed first:
   bound = || (||w_j||_{q2})_j^T |V| ||_{q1}. *)
let cascade_w_first ~p1 ~p2 (v : Mat.t) (w : Mat.t) =
  if Mat.cols v = 0 || Mat.cols w = 0 then 0.0
  else begin
    let nw = Mat.row_lp_norms w (Lp.to_float (Lp.dual p2)) in
    let t = abs_vec_mat nw v in
    Lp.norm (Lp.dual p1) t
  end

(* Which operand Eq. 5 norms first: [w] (the right one) unless the
   norms differ and [order] picks [v]. *)
let w_first ~order ~p1 ~p2 =
  if p1 = p2 then true
  else
    match (order : Config.dual_order) with
    | Config.Linf_first -> p2 = Lp.Linf
    | Config.Lp_first -> p2 <> Lp.Linf

let fast_abs_bound ~order ~p1 ~p2 (v : Mat.t) (w : Mat.t) =
  if Mat.rows v <> Mat.rows w then invalid_arg "Dot.fast_abs_bound: dim mismatch";
  if w_first ~order ~p1 ~p2 then cascade_w_first ~p1 ~p2 v w
  else cascade_w_first ~p1:p2 ~p2:p1 w v

(* A bound is NaN only when an infinite coefficient met a zero (inf·0):
   the remainder is then unbounded, which [mid_rad] turns into an
   infinite fresh-symbol radius exactly as for an overflowed bound. *)
let itv_or_top lo hi =
  if Float.is_nan lo || Float.is_nan hi then Itv.top else Itv.make lo hi

(* With C = B1^T B2, diagonal entries multiply eps_k^2 in [0,1] and
   symmetrized off-diagonal pairs C_kl + C_lk multiply eps_k eps_l in
   [-1,1]. Only the live columns (a nonzero entry in either block) are
   visited: they are packed into one contiguous k-run per column and the
   pairs are summed directly, with no E x E Gram matrix.

   Bit-identity with the Gram formulation: each C entry is the same
   ascending-t sum with the zero-skip on [b1] that [Mat.gemm ~ta:true]
   computes, and pairs are visited in the same (k, l) order. A pair
   touching a dead column sums to exactly +0.0 when every entry is
   finite, and adding +0.0 leaves [lo] and [hi] unchanged (neither is
   ever -0.0). An inf or NaN against a dead column's zero is NaN, not
   +0.0, so any non-finite entry makes every column live. *)
let precise_eps_bound (b1 : Mat.t) (b2 : Mat.t) =
  if Mat.rows b1 <> Mat.rows b2 || Mat.cols b1 <> Mat.cols b2 then
    invalid_arg "Dot.precise_eps_bound: shape mismatch";
  let k = Mat.rows b1 and e = Mat.cols b1 in
  let d1 = b1.Mat.data and d2 = b2.Mat.data in
  let live = Bytes.make e '\000' in
  let finite = ref true in
  for t = 0 to k - 1 do
    let base = t * e in
    for c = 0 to e - 1 do
      let x = Array.unsafe_get d1 (base + c) and y = Array.unsafe_get d2 (base + c) in
      if x <> 0.0 || y <> 0.0 then begin
        Bytes.unsafe_set live c '\001';
        if not (Float.is_finite x && Float.is_finite y) then finite := false
      end
    done
  done;
  if not !finite then Bytes.fill live 0 e '\001';
  let l = ref 0 in
  Bytes.iter (fun b -> if b <> '\000' then incr l) live;
  let l = !l in
  let p1 = Array.create_float (l * k) and p2 = Array.create_float (l * k) in
  let a = ref 0 in
  for c = 0 to e - 1 do
    if Bytes.unsafe_get live c <> '\000' then begin
      let ra = !a * k in
      for t = 0 to k - 1 do
        Array.unsafe_set p1 (ra + t) (Array.unsafe_get d1 ((t * e) + c));
        Array.unsafe_set p2 (ra + t) (Array.unsafe_get d2 ((t * e) + c))
      done;
      incr a
    end
  done;
  let lo = ref 0.0 and hi = ref 0.0 in
  for a = 0 to l - 1 do
    let ra = a * k in
    let caa = ref 0.0 in
    for t = 0 to k - 1 do
      let x = Array.unsafe_get p1 (ra + t) in
      if x <> 0.0 then caa := !caa +. (x *. Array.unsafe_get p2 (ra + t))
    done;
    if !caa > 0.0 then hi := !hi +. !caa else lo := !lo +. !caa;
    (* Four pairs (a, b..b+3) at a time share the loads of column a;
       each pair keeps its own two accumulators and is folded into
       [lo]/[hi] in ascending b. *)
    let b = ref (a + 1) in
    while !b + 3 < l do
      let r0 = !b * k in
      let r1 = r0 + k in
      let r2 = r1 + k in
      let r3 = r2 + k in
      let ab0 = ref 0.0 and ab1 = ref 0.0 and ab2 = ref 0.0 and ab3 = ref 0.0 in
      let ba0 = ref 0.0 and ba1 = ref 0.0 and ba2 = ref 0.0 and ba3 = ref 0.0 in
      for t = 0 to k - 1 do
        let x = Array.unsafe_get p1 (ra + t) and y = Array.unsafe_get p2 (ra + t) in
        if x <> 0.0 then begin
          ab0 := !ab0 +. (x *. Array.unsafe_get p2 (r0 + t));
          ab1 := !ab1 +. (x *. Array.unsafe_get p2 (r1 + t));
          ab2 := !ab2 +. (x *. Array.unsafe_get p2 (r2 + t));
          ab3 := !ab3 +. (x *. Array.unsafe_get p2 (r3 + t))
        end;
        let z = Array.unsafe_get p1 (r0 + t) in
        if z <> 0.0 then ba0 := !ba0 +. (z *. y);
        let z = Array.unsafe_get p1 (r1 + t) in
        if z <> 0.0 then ba1 := !ba1 +. (z *. y);
        let z = Array.unsafe_get p1 (r2 + t) in
        if z <> 0.0 then ba2 := !ba2 +. (z *. y);
        let z = Array.unsafe_get p1 (r3 + t) in
        if z <> 0.0 then ba3 := !ba3 +. (z *. y)
      done;
      let s = Float.abs (!ab0 +. !ba0) in
      hi := !hi +. s;
      lo := !lo -. s;
      let s = Float.abs (!ab1 +. !ba1) in
      hi := !hi +. s;
      lo := !lo -. s;
      let s = Float.abs (!ab2 +. !ba2) in
      hi := !hi +. s;
      lo := !lo -. s;
      let s = Float.abs (!ab3 +. !ba3) in
      hi := !hi +. s;
      lo := !lo -. s;
      b := !b + 4
    done;
    for b = !b to l - 1 do
      let rb = b * k in
      let cab = ref 0.0 and cba = ref 0.0 in
      for t = 0 to k - 1 do
        let x = Array.unsafe_get p1 (ra + t) in
        if x <> 0.0 then cab := !cab +. (x *. Array.unsafe_get p2 (rb + t));
        let y = Array.unsafe_get p1 (rb + t) in
        if y <> 0.0 then cba := !cba +. (y *. Array.unsafe_get p2 (ra + t))
      done;
      let s = Float.abs (!cab +. !cba) in
      hi := !hi +. s;
      lo := !lo -. s
    done
  done;
  itv_or_top !lo !hi

let sym m = itv_or_top (-.m) m

let quad_bounds ~precise ~order ~p ~a1 ~b1 ~a2 ~b2 =
  {
    phi_phi = sym (fast_abs_bound ~order ~p1:p ~p2:p a1 a2);
    phi_eps = sym (fast_abs_bound ~order ~p1:p ~p2:Lp.Linf a1 b2);
    eps_phi = sym (fast_abs_bound ~order ~p1:Lp.Linf ~p2:p b1 a2);
    eps_eps =
      (if precise then precise_eps_bound b1 b2
       else sym (fast_abs_bound ~order ~p1:Lp.Linf ~p2:Lp.Linf b1 b2));
  }

let total_quad q =
  Itv.add q.phi_phi (Itv.add q.phi_eps (Itv.add q.eps_phi q.eps_eps))

(* When the remainder bound overflows to infinity, keep the center
   untouched and make the fresh symbol's radius infinite: downstream
   bounds become infinite and certification honestly fails, instead of
   center = (inf + -inf)/2 = NaN poisoning everything. *)
let mid_rad itv =
  let c = Itv.center itv and r = 0.5 *. Itv.width itv in
  if Float.is_finite c then (c, r) else (0.0, infinity)

(* Gather the coefficient rows of value column [j] of [z] (a k x m value):
   rows { t*m + j : t = 0..k-1 } of the coefficient matrix. *)
let gather_col_block (g : Mat.t) ~k ~m ~j =
  let e = Mat.cols g in
  let out = Mat.create k e in
  for t = 0 to k - 1 do
    Array.blit g.Mat.data (((t * m) + j) * e) out.Mat.data (t * e) e
  done;
  out

(* |rows [start, start + n)| of [g], as a fresh n x cols matrix. *)
let abs_rows (g : Mat.t) start n =
  let e = Mat.cols g in
  let src = g.Mat.data and base = start * e in
  let out = Array.create_float (n * e) in
  for x = 0 to (n * e) - 1 do
    Array.unsafe_set out x (Float.abs (Array.unsafe_get src (base + x)))
  done;
  Mat.of_array ~rows:n ~cols:e out

(* The coefficients of a k x m value viewed as k x (m·E): row t holds the
   rows t·m .. t·m + m − 1 side by side, so segment j of row t is row t
   of value column j's block (same data, no copy). *)
let wide ~k ~m (g : Mat.t) = Mat.of_array ~rows:k ~cols:(m * Mat.cols g) g.Mat.data

(* One Eq. 5 term for every output pair: [term i] is the array over j of
   [fast_abs_bound ~order ~p1 ~p2 va_i wb_j], where [va_i] is row block
   i of [ga] (rows i·k .. i·k + k − 1, the left operand's value row i)
   and [wb_j] is value column j of [gb] (rows t·m + j). The block that
   gets normed follows [fast_abs_bound]'s rule; its k row-norms are
   computed once per block and stacked into N, and the cascade becomes
   one N·|X| product per row block i:
   - [w] first: N holds every wb_j's norms (k x m, read transposed) and
     T_i = Nᵀ·|va_i| (m x E_a);
   - [v] first: N_i holds va_i's norms (1 x k) and T_i = N_i·|gb| with
     gb viewed as k x (m·E_b), i.e. m x E_b.
   Row j of T_i is the per-pair [t] vector summed in the same ascending
   order from +0.0 with the zero-skip on the norm, so its outer norm is
   the per-pair bound bit for bit. With an occupancy for the |X| side,
   dead tiles are skipped when N is finite: a dead |x| is +0.0, and a
   finite norm times +0.0 adds nothing to a +0.0-seeded sum. *)
let cascade_term ~order ~p1 ~p2 ~k ~m ?occ_a ?occ_b (ga : Mat.t) (gb : Mat.t) =
  let ea = Mat.cols ga and eb = Mat.cols gb in
  if ea = 0 || eb = 0 then fun _ -> Array.make m 0.0
  else if w_first ~order ~p1 ~p2 then begin
    let nb =
      Mat.of_array ~rows:k ~cols:m
        (Mat.row_lp_norms gb (Lp.to_float (Lp.dual p2)))
    in
    let occ =
      match occ_a with
      | Some o when (not (Bands.is_full o)) && Mat.finite_class nb = `Finite ->
          Some o
      | _ -> None
    in
    let outer = Lp.to_float (Lp.dual p1) in
    fun i ->
      let cols =
        Option.map
          (Bands.row_intervals ~lo:(i * k) ~hi:((i + 1) * k) ~cols:ea)
          occ
      in
      Mat.row_lp_norms (Mat.matmul_ta ?cols nb (abs_rows ga (i * k) k)) outer
  end
  else begin
    let na = Mat.row_lp_norms ga (Lp.to_float (Lp.dual p1)) in
    let absb = wide ~k ~m (abs_rows gb 0 (k * m)) in
    let live =
      Option.map
        (fun o -> Bands.repeat_intervals ~times:m ~cols:eb o)
        (match occ_b with Some o when not (Bands.is_full o) -> Some o | _ -> None)
    in
    let outer = Lp.to_float (Lp.dual p2) in
    fun i ->
      let ni = Mat.of_array ~rows:1 ~cols:k (Array.sub na (i * k) k) in
      let cols =
        if Mat.finite_class ni = `Finite then live else None
      in
      let t = Mat.matmul ?cols ni absb in
      Mat.row_lp_norms (Mat.of_array ~rows:m ~cols:eb t.Mat.data) outer
  end

(* Whole-operand kernel. The affine part is two blocked products: the
   left half c_a,iᵀ·(value column j of B) of every output at once as
   A_c·B_coef with B's coefficients viewed as k x (m·E) (row i, segment
   j is output (i, j)), and the right half c_b,jᵀ·(value row i of A) as
   B_cᵀ·A_coef,i per row block i, read in place at the block's row
   offset ([Mat.matmul_ta_acc] on a fresh output, the same sums
   [matmul_ta] of a copied block computes). The remainder's Fast terms
   come from
   [cascade_term]; Precise keeps [precise_eps_bound] per pair. Every
   entry is the sum the per-pair formulation computed (DESIGN.md §16).

   The work is split into row blocks: each block writes only its own
   output rows with the same arithmetic, so sharding the blocks over the
   pool cannot change a bit of the result. This is the one pooled site
   of a propagation: the Precise ε·ε bound inside the blocks is where
   DeepT-Precise spends its time (DESIGN.md §7). The dot product
   dominates propagation cost, and without an intra-op poll one large
   product could overrun the wall-clock budget between Propagate's
   per-op checkpoints, so the cooperative deadline is polled once per
   block in each pass; an expired deadline raises inside the block and
   the pool cancels the remaining ones via its atomic failure flag. *)
let matmul_zz ?(precise = false) ?(order = Config.Linf_first) ctx
    (a : Zonotope.t) (b : Zonotope.t) =
  if a.Zonotope.vcols <> b.Zonotope.vrows then
    invalid_arg "Dot.matmul_zz: inner dimension mismatch";
  if a.Zonotope.p <> b.Zonotope.p then invalid_arg "Dot.matmul_zz: norm mismatch";
  if Zonotope.num_phi a <> Zonotope.num_phi b then
    invalid_arg "Dot.matmul_zz: phi width mismatch";
  let a = Zonotope.pad_eps a (Zonotope.ctx_symbols ctx) in
  let b = Zonotope.pad_eps b (Zonotope.ctx_symbols ctx) in
  let n = a.Zonotope.vrows and k = a.Zonotope.vcols and m = b.Zonotope.vcols in
  let ep = Zonotope.num_phi a and ee = Zonotope.num_eps a in
  let p = a.Zonotope.p in
  let pool = Zonotope.ctx_pool ctx in
  let ca = a.Zonotope.center and cb = b.Zonotope.center in
  let a_occ = a.Zonotope.eps_occ and b_occ = b.Zonotope.eps_occ in
  (* Products whose left operand is a center skip dead ε tiles only when
     that center is finite (an infinite center times a dead 0.0 is NaN). *)
  let ca_finite = Mat.finite_class ca = `Finite in
  let cb_finite = Mat.finite_class cb = `Finite in
  let nv = n * m in
  let center = Mat.matmul ca cb in
  let phi =
    Mat.of_array ~rows:nv ~cols:ep (Mat.matmul ca (wide ~k ~m b.Zonotope.phi)).Mat.data
  in
  let eps_left =
    let cols =
      if ca_finite && not (Bands.is_full b_occ) then
        Some (Bands.repeat_intervals ~times:m ~cols:ee b_occ)
      else None
    in
    Mat.matmul ?cols ca (wide ~k ~m b.Zonotope.eps)
  in
  let phi_phi = cascade_term ~order ~p1:p ~p2:p ~k ~m a.Zonotope.phi b.Zonotope.phi in
  let phi_eps =
    cascade_term ~order ~p1:p ~p2:Lp.Linf ~k ~m ~occ_b:b_occ a.Zonotope.phi
      b.Zonotope.eps
  in
  let eps_phi =
    cascade_term ~order ~p1:Lp.Linf ~p2:p ~k ~m ~occ_a:a_occ a.Zonotope.eps
      b.Zonotope.phi
  in
  let eps_eps =
    if precise then begin
      let beps = Array.init m (fun j -> gather_col_block b.Zonotope.eps ~k ~m ~j) in
      fun i ->
        let ai = Zonotope.eps_block a (i * k) k in
        Array.map (precise_eps_bound ai) beps
    end
    else begin
      let term =
        cascade_term ~order ~p1:Lp.Linf ~p2:Lp.Linf ~k ~m ~occ_a:a_occ ~occ_b:b_occ
          a.Zonotope.eps b.Zonotope.eps
      in
      fun i -> Array.map sym (term i)
    end
  in
  let run_blocks f =
    match pool with
    | Some pool when Tensor.Dpool.size pool > 1 && n > 1 ->
        Tensor.Dpool.run_chunks pool ~nchunks:n f
    | _ ->
        for i = 0 to n - 1 do
          f i
        done
  in
  (* Pass 1: the φ part and the quadratic remainder of row block i. *)
  let rad = Array.make nv 0.0 in
  run_blocks (fun i ->
      Zonotope.check_deadline ctx;
      if ep > 0 then begin
        let right = Mat.create m ep in
        Mat.matmul_ta_acc cb a.Zonotope.phi ~b_row:(i * k) right ~out_row:0;
        let o = i * m * ep in
        for x = 0 to (m * ep) - 1 do
          phi.Mat.data.(o + x) <- phi.Mat.data.(o + x) +. right.Mat.data.(x)
        done
      end;
      let pp = phi_phi i and pe = phi_eps i and epb = eps_phi i and eeb = eps_eps i in
      for j = 0 to m - 1 do
        let v = (i * m) + j in
        let q =
          { phi_phi = sym pp.(j); phi_eps = sym pe.(j); eps_phi = sym epb.(j);
            eps_eps = eeb.(j) }
        in
        let mid, r = mid_rad (total_quad q) in
        center.Mat.data.(v) <- center.Mat.data.(v) +. mid;
        rad.(v) <- r
      done);
  (* One fresh symbol per output with a non-trivial remainder. *)
  let fresh = Array.make nv (-1) in
  let n_new = ref 0 in
  Array.iteri
    (fun v r ->
      if r > 0.0 then begin
        fresh.(v) <- !n_new;
        incr n_new
      end)
    rad;
  let base = Zonotope.alloc_eps ctx !n_new in
  assert (base = ee);
  let w = base + !n_new in
  (* Pass 2: the final ε matrix, written once per row block: the right
     half accumulates from +0.0 straight into the block's rows, then the
     left half is added in front of it, as [left +. right] before. *)
  let eps = Mat.create nv w in
  run_blocks (fun i ->
      Zonotope.check_deadline ctx;
      if ee > 0 then begin
        let cols =
          if cb_finite && not (Bands.is_full a_occ) then
            Some (Bands.row_intervals ~lo:(i * k) ~hi:((i + 1) * k) ~cols:ee a_occ)
          else None
        in
        Mat.matmul_ta_acc ?cols cb a.Zonotope.eps ~b_row:(i * k) eps ~out_row:(i * m);
        for v = i * m to ((i + 1) * m) - 1 do
          for c = 0 to ee - 1 do
            eps.Mat.data.((v * w) + c) <-
              eps_left.Mat.data.((v * ee) + c) +. eps.Mat.data.((v * w) + c)
          done
        done
      end;
      for v = i * m to ((i + 1) * m) - 1 do
        if fresh.(v) >= 0 then eps.Mat.data.((v * w) + base + fresh.(v)) <- rad.(v)
      done);
  (* The affine ε part mixes [a]'s coefficients within a value row
     (block k -> m) and [b]'s across all rows (widen); dead columns stay
     exactly ±0.0 only when both centers are finite (an infinite center
     times a dead 0.0 would write NaN there), so widen to full
     otherwise. *)
  let occ =
    if not (ca_finite && cb_finite) then Bands.full
    else
      Bands.union
        (Bands.union
           (Bands.block_rows ~bin:k ~bout:m a_occ)
           (Bands.widen_rows ~rows:nv b_occ))
        (Zonotope.fresh_bands ~fresh ~base ~rows:n ~per_row:m)
  in
  Zonotope.make ~p ~center ~phi ~eps |> Zonotope.with_eps_occ occ

let mul_zz ?(precise = false) ?(order = Config.Linf_first) ctx (a : Zonotope.t)
    (b : Zonotope.t) =
  if a.Zonotope.vrows <> b.Zonotope.vrows || a.Zonotope.vcols <> b.Zonotope.vcols
  then invalid_arg "Dot.mul_zz: shape mismatch";
  if a.Zonotope.p <> b.Zonotope.p then invalid_arg "Dot.mul_zz: norm mismatch";
  let a = Zonotope.pad_eps a (Zonotope.ctx_symbols ctx) in
  let b = Zonotope.pad_eps b (Zonotope.ctx_symbols ctx) in
  let nv = Zonotope.num_vars a in
  let ep = Zonotope.num_phi a and ee = Zonotope.num_eps a in
  let p = a.Zonotope.p in
  let center = Mat.mul a.Zonotope.center b.Zonotope.center in
  let phi = Mat.create nv ep in
  let eps_aff = Mat.create nv ee in
  let rad = Array.make nv 0.0 in
  Zonotope.check_deadline ctx;
  for v = 0 to nv - 1 do
    let c1 = a.Zonotope.center.Mat.data.(v) and c2 = b.Zonotope.center.Mat.data.(v) in
    for t = 0 to ep - 1 do
      phi.Mat.data.((v * ep) + t) <-
        (c1 *. b.Zonotope.phi.Mat.data.((v * ep) + t))
        +. (c2 *. a.Zonotope.phi.Mat.data.((v * ep) + t))
    done;
    for t = 0 to ee - 1 do
      eps_aff.Mat.data.((v * ee) + t) <-
        (c1 *. b.Zonotope.eps.Mat.data.((v * ee) + t))
        +. (c2 *. a.Zonotope.eps.Mat.data.((v * ee) + t))
    done;
    let a1 = Zonotope.phi_block a v 1 and b1 = Zonotope.eps_block a v 1 in
    let a2 = Zonotope.phi_block b v 1 and b2 = Zonotope.eps_block b v 1 in
    let q = quad_bounds ~precise ~order ~p ~a1 ~b1 ~a2 ~b2 in
    let itv = total_quad q in
    let mid, r = mid_rad itv in
    center.Mat.data.(v) <- center.Mat.data.(v) +. mid;
    rad.(v) <- r
  done;
  let fresh = Array.make nv (-1) in
  let n_new = ref 0 in
  Array.iteri
    (fun v r ->
      if r > 0.0 then begin
        fresh.(v) <- !n_new;
        incr n_new
      end)
    rad;
  let base = Zonotope.alloc_eps ctx !n_new in
  let w = base + !n_new in
  let eps = Mat.create nv w in
  for v = 0 to nv - 1 do
    Array.blit eps_aff.Mat.data (v * ee) eps.Mat.data (v * w) ee;
    if fresh.(v) >= 0 then eps.Mat.data.((v * w) + base + fresh.(v)) <- rad.(v)
  done;
  (* Pointwise product keeps each operand's row structure; same
     finite-center condition as [matmul_zz] for the dead columns. *)
  let occ =
    if
      Mat.finite_class a.Zonotope.center <> `Finite
      || Mat.finite_class b.Zonotope.center <> `Finite
    then Bands.full
    else
      Bands.union
        (Bands.union a.Zonotope.eps_occ b.Zonotope.eps_occ)
        (Zonotope.fresh_bands ~fresh ~base ~rows:a.Zonotope.vrows
           ~per_row:a.Zonotope.vcols)
  in
  Zonotope.make ~p ~center ~phi ~eps |> Zonotope.with_eps_occ occ
