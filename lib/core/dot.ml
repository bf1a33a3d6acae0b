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

let fast_abs_bound ~order ~p1 ~p2 (v : Mat.t) (w : Mat.t) =
  if Mat.rows v <> Mat.rows w then invalid_arg "Dot.fast_abs_bound: dim mismatch";
  let w_first =
    if p1 = p2 then true
    else
      match (order : Config.dual_order) with
      | Config.Linf_first -> p2 = Lp.Linf
      | Config.Lp_first -> p2 <> Lp.Linf
  in
  if w_first then cascade_w_first ~p1 ~p2 v w else cascade_w_first ~p1:p2 ~p2:p1 w v

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
  (* Pre-gather row blocks of [a] and column blocks of [b]. *)
  let aphi = Array.init n (fun i -> Zonotope.phi_block a (i * k) k) in
  let aeps = Array.init n (fun i -> Zonotope.eps_block a (i * k) k) in
  let ca = Array.init n (fun i -> Mat.row a.Zonotope.center i) in
  let bphi = Array.init m (fun j -> gather_col_block b.Zonotope.phi ~k ~m ~j) in
  let beps = Array.init m (fun j -> gather_col_block b.Zonotope.eps ~k ~m ~j) in
  let cb = Array.init m (fun j -> Mat.col b.Zonotope.center j) in
  let nv = n * m in
  let center = Mat.matmul a.Zonotope.center b.Zonotope.center in
  let phi = Mat.create nv ep in
  let eps_aff = Mat.create nv ee in
  let rad = Array.make nv 0.0 in
  (* One chunk per output row: every output (i, j) is computed by exactly
     one chunk with the same arithmetic, so sharding the rows over the
     pool cannot change a bit of the result. The cooperative deadline is
     polled once per chunk; an expired deadline raises inside the chunk
     and the pool cancels the remaining ones via its atomic failure
     flag. *)
  let row i =
    (* The dot product dominates propagation cost; without an intra-op
       poll a single large matmul could overrun the wall-clock budget
       unboundedly between Propagate's per-op checkpoints. *)
    Zonotope.check_deadline ctx;
    for j = 0 to m - 1 do
      let v = (i * m) + j in
      (* Exact affine part: c_a^T . (b coeff block) + c_b^T . (a coeff block) *)
      if ep > 0 then begin
        let pa = Vecops.add (Mat.vec_mat ca.(i) bphi.(j)) (Mat.vec_mat cb.(j) aphi.(i)) in
        Array.blit pa 0 phi.Mat.data (v * ep) ep
      end;
      if ee > 0 then begin
        let pe = Vecops.add (Mat.vec_mat ca.(i) beps.(j)) (Mat.vec_mat cb.(j) aeps.(i)) in
        Array.blit pe 0 eps_aff.Mat.data (v * ee) ee
      end;
      (* Quadratic remainder. *)
      let q =
        quad_bounds ~precise ~order ~p ~a1:aphi.(i) ~b1:aeps.(i) ~a2:bphi.(j)
          ~b2:beps.(j)
      in
      let itv = total_quad q in
      let mid, r = mid_rad itv in
      center.Mat.data.(v) <- center.Mat.data.(v) +. mid;
      rad.(v) <- r
    done
  in
  (match Zonotope.ctx_pool ctx with
  | Some pool when Tensor.Dpool.size pool > 1 && n > 1 ->
      Tensor.Dpool.run_chunks pool ~nchunks:n row
  | _ ->
      for i = 0 to n - 1 do
        row i
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
  let eps = Mat.create nv w in
  for v = 0 to nv - 1 do
    Array.blit eps_aff.Mat.data (v * ee) eps.Mat.data (v * w) ee;
    if fresh.(v) >= 0 then eps.Mat.data.((v * w) + base + fresh.(v)) <- rad.(v)
  done;
  (* The affine ε part mixes [a]'s coefficients within a value row
     (block k -> m) and [b]'s across all rows (widen); dead columns stay
     exactly ±0.0 only when both centers are finite (an infinite center
     times a dead 0.0 would write NaN there), so widen to full
     otherwise. *)
  let occ =
    if
      Mat.finite_class a.Zonotope.center <> `Finite
      || Mat.finite_class b.Zonotope.center <> `Finite
    then Bands.full
    else
      Bands.union
        (Bands.union
           (Bands.block_rows ~bin:k ~bout:m a.Zonotope.eps_occ)
           (Bands.widen_rows ~rows:nv b.Zonotope.eps_occ))
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
  (* Each variable [v] writes only its own slices of phi/eps/center/rad,
     so sharding the variable range over the pool is bit-deterministic.
     The deadline is polled once per 64-variable chunk, matching the
     serial poll cadence. *)
  let var_range ~start ~stop =
    Zonotope.check_deadline ctx;
    for v = start to stop - 1 do
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
    done
  in
  (match Zonotope.ctx_pool ctx with
  | Some pool when Tensor.Dpool.size pool > 1 && nv > 64 ->
      Tensor.Dpool.run_ranges pool ~n:nv ~chunk:64 var_range
  | _ -> var_range ~start:0 ~stop:nv);
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
