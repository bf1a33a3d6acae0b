open Tensor
open Interval

exception Unbounded

type ctx = {
  mutable n_eps : int;
  mutable deadline : float option;
  mutable pool : Dpool.t option;
}

let ctx () = { n_eps = 0; deadline = None; pool = None }
let ctx_symbols c = c.n_eps
let set_deadline c d = c.deadline <- d
let set_pool c p = c.pool <- p
let ctx_pool c = c.pool

let check_deadline c =
  match c.deadline with
  | Some t when Unix.gettimeofday () > t -> raise (Verdict.Abort Verdict.Timeout)
  | _ -> ()

let alloc_eps c n =
  if n < 0 then invalid_arg "Zonotope.alloc_eps";
  let first = c.n_eps in
  c.n_eps <- c.n_eps + n;
  first

let reset_symbols c n =
  if n < 0 then invalid_arg "Zonotope.reset_symbols";
  c.n_eps <- n

type t = {
  vrows : int;
  vcols : int;
  p : Lp.t;
  center : Mat.t;
  phi : Mat.t;
  eps : Mat.t;
  eps_occ : Bands.t;
}

let num_vars z = z.vrows * z.vcols
let num_phi z = Mat.cols z.phi
let num_eps z = Mat.cols z.eps

(* The ε occupancy invariant (see Bands and DESIGN.md section 14):
   outside the band union of [eps_occ] every entry of [eps] has
   absolute value 0.0. Every transformer below maintains it — affine
   maps convert bands structurally, nonlinear transformers append a
   band for the rows they minted symbols for, and anything that could
   smear values across the tracked structure (non-finite scalars,
   non-finite weights) widens to [Bands.full], which is always sound.
   With DEEPT_NO_SPARSE set, [make] pins every occupancy to full and
   the whole layer degrades to the dense kernels. *)

let make ~p ~center ~phi ~eps =
  let n = Mat.rows center * Mat.cols center in
  if Mat.rows phi <> n || Mat.rows eps <> n then
    invalid_arg "Zonotope.make: coefficient row count mismatch";
  let eps_occ =
    if not Bands.enabled || Mat.cols eps > 0 then Bands.full else Bands.empty
  in
  { vrows = Mat.rows center; vcols = Mat.cols center; p; center; phi; eps;
    eps_occ }

let pin occ = if Bands.enabled then occ else Bands.full
let with_eps_occ occ z = { z with eps_occ = pin occ }

(* Occupancy of freshly minted symbols: transformers assign fresh ids
   ascending in the flat variable order ([fresh.(v)] is the id offset of
   variable [v], or -1), so the ids minted inside one value row of
   [per_row] variables form a contiguous column range — one band per
   value row that allocated any. *)
let fresh_bands ~fresh ~base ~rows ~per_row =
  let bands = ref [] in
  for i = rows - 1 downto 0 do
    let lo = ref max_int and hi = ref min_int in
    for j = 0 to per_row - 1 do
      let f = fresh.((i * per_row) + j) in
      if f >= 0 then begin
        if f < !lo then lo := f;
        if f + 1 > !hi then hi := f + 1
      end
    done;
    if !lo < !hi then
      bands :=
        { Bands.col_lo = base + !lo; col_hi = base + !hi;
          row_lo = i * per_row; row_hi = (i + 1) * per_row }
        :: !bands
  done;
  Bands.of_bands !bands

let of_const p m =
  let n = Mat.rows m * Mat.cols m in
  {
    vrows = Mat.rows m;
    vcols = Mat.cols m;
    p;
    center = Mat.copy m;
    phi = Mat.create n 0;
    eps = Mat.create n 0;
    eps_occ = Bands.empty;
  }

(* ---------------- bounds ---------------- *)

let dual_row_norm p (m : Mat.t) v =
  (* ℓ_dual(p) norm of row [v] of [m], without copying the row. *)
  let c = Mat.cols m in
  let base = v * c in
  match Lp.dual p with
  | Lp.L1 ->
      let acc = ref 0.0 in
      for j = 0 to c - 1 do
        acc := !acc +. Float.abs (Array.unsafe_get m.Mat.data (base + j))
      done;
      !acc
  | Lp.L2 ->
      (* scaled to avoid overflow on huge coefficients (saturated softmax
         layers produce exp-scale values) *)
      let mx = ref 0.0 in
      for j = 0 to c - 1 do
        mx := Float.max !mx (Float.abs (Array.unsafe_get m.Mat.data (base + j)))
      done;
      if !mx = 0.0 || not (Float.is_finite !mx) then !mx
      else begin
        let acc = ref 0.0 in
        for j = 0 to c - 1 do
          let x = Array.unsafe_get m.Mat.data (base + j) /. !mx in
          acc := !acc +. (x *. x)
        done;
        !mx *. sqrt !acc
      end
  | Lp.Linf ->
      let acc = ref 0.0 in
      for j = 0 to c - 1 do
        acc := Float.max !acc (Float.abs (Array.unsafe_get m.Mat.data (base + j)))
      done;
      !acc

(* ℓ1 norm of ε row [v] walking only the live band intervals. Skipped
   entries contribute [Float.abs (±0.0) = +0.0], and adding +0.0 to the
   non-negative accumulator never changes a bit, so this is
   unconditionally identical to the dense scan — no finiteness gate
   needed (dead entries are ±0.0 by the occupancy invariant, never NaN:
   paths that could poison them widen the occupancy to full first). *)
let eps_l1_row z v =
  if Bands.is_full z.eps_occ then dual_row_norm Lp.Linf z.eps v
  else begin
    let m = z.eps in
    let c = Mat.cols m in
    let base = v * c in
    let acc = ref 0.0 in
    List.iter
      (fun (lo, hi) ->
        for j = lo to hi - 1 do
          acc := !acc +. Float.abs (Array.unsafe_get m.Mat.data (base + j))
        done)
      (Bands.row_intervals ~lo:v ~hi:(v + 1) ~cols:c z.eps_occ);
    !acc
  end

let radius_terms z v =
  if v < 0 || v >= num_vars z then invalid_arg "Zonotope.radius_terms";
  let a = dual_row_norm z.p z.phi v in
  let b = eps_l1_row z v in
  (a, b)

let bounds_var z v =
  let c = z.center.Mat.data.(v) in
  let a, b = radius_terms z v in
  let lo = c -. a -. b and hi = c +. a +. b in
  if Float.is_nan lo || Float.is_nan hi then raise Unbounded;
  Itv.make lo hi

let bounds z =
  let lo = Mat.create z.vrows z.vcols and hi = Mat.create z.vrows z.vcols in
  for v = 0 to num_vars z - 1 do
    let c = z.center.Mat.data.(v) in
    let a, b = radius_terms z v in
    let l = c -. a -. b and h = c +. a +. b in
    if Float.is_nan l || Float.is_nan h then raise Unbounded;
    lo.Mat.data.(v) <- l;
    hi.Mat.data.(v) <- h
  done;
  Imat.make lo hi

(* ---------------- sampling ---------------- *)

let instantiate z ~phi ~eps =
  if Array.length phi <> num_phi z then invalid_arg "Zonotope.instantiate: phi length";
  if Array.length eps > num_eps z then
    invalid_arg "Zonotope.instantiate: too many eps";
  let out = Mat.copy z.center in
  let n = num_vars z in
  let ep = num_phi z and ee = num_eps z in
  for v = 0 to n - 1 do
    let acc = ref out.Mat.data.(v) in
    let pb = v * ep in
    for j = 0 to ep - 1 do
      acc := !acc +. (z.phi.Mat.data.(pb + j) *. phi.(j))
    done;
    let eb = v * ee in
    for j = 0 to min ee (Array.length eps) - 1 do
      acc := !acc +. (z.eps.Mat.data.(eb + j) *. eps.(j))
    done;
    out.Mat.data.(v) <- !acc
  done;
  out

let sample rng z =
  let phi = Lp.unit_ball_sample rng z.p (num_phi z) in
  let eps = Array.init (num_eps z) (fun _ -> Rng.uniform rng (-1.0) 1.0) in
  instantiate z ~phi ~eps

(* ---------------- alignment ---------------- *)

(* The occupancy of an [n]-row, [cur]-column ε matrix padded with zero
   columns to width [w]. The appended columns are all-zero, so a full
   occupancy can be sharpened to a band over the pre-existing columns —
   this is where a dense prefix regains structure before fresh symbols
   are appended behind it. *)
let padded_occ occ ~n ~cur ~w =
  if cur < w && Bands.enabled && Bands.is_full occ && cur > 0 then
    Bands.of_bands [ { Bands.col_lo = 0; col_hi = cur; row_lo = 0; row_hi = n } ]
  else occ

let pad_eps z w =
  let cur = num_eps z in
  if cur >= w then z
  else begin
    let n = num_vars z in
    let eps = Mat.create n w in
    for v = 0 to n - 1 do
      Array.blit z.eps.Mat.data (v * cur) eps.Mat.data (v * w) cur
    done;
    { z with eps; eps_occ = padded_occ z.eps_occ ~n ~cur ~w }
  end

(* ---------------- affine transformers ---------------- *)

(* Apply [block -> w^T . block] to every per-value-row coefficient block
   of [g], accumulating into [out]: [Mat.matmul_ta_acc] reads value row
   i's block at its row offset in [g] and writes its image at the
   output's, with no copy in or out. Each output continues the running
   sum [out] holds, so blocks of a wider input whose value columns are
   split across several calls (the attention heads, see [linear_join])
   add up exactly as one call over the whole input would.

   [cols_for i] (live column intervals of value row i's block, from the
   operand's band occupancy) lets the kernel skip dead column tiles. The
   caller passes it only when the weight is free of infinities: a dead
   column's dense terms are then [finite * ±0.0], which leave a running
   sum that started at +0.0 unchanged, while an infinite weight would
   turn [inf * 0.0] into NaN in the dense result. *)
let map_coeff_blocks ?cols_for ~vrows ~bin ~bout (w : Mat.t) (g : Mat.t) out =
  if Mat.cols g > 0 then
    for i = 0 to vrows - 1 do
      Mat.matmul_ta_acc
        ?cols:(Option.map (fun f -> f i) cols_for)
        w g ~b_row:(i * bin) out ~out_row:(i * bout)
    done

(* [cols_for] for [map_coeff_blocks] from an ε occupancy, or [None] when
   the occupancy is full (nothing to skip). *)
let live_blocks occ ~bin ~e =
  if Bands.is_full occ then None
  else Some (fun i -> Bands.row_intervals ~lo:(i * bin) ~hi:((i + 1) * bin) ~cols:e occ)

(* An infinite coefficient (overflowed dot-product remainder, Dot.mid_rad)
   multiplied by a zero weight — or two infinite terms of opposite sign —
   turns into NaN inside the matmul. Widening those NaNs back to +inf is
   sound (the radius term becomes infinite, so the variable's bounds are
   [-inf, +inf] ⊇ anything) and keeps the poison from spreading as NaN,
   which float comparisons silently ignore. Only coefficient matrices may
   be widened this way; an infinite *center* would shift the box, so NaN
   centers are left for the bounds check / propagation checkpoint. *)
let scrub_coeff_nan (m : Mat.t) =
  Array.iteri
    (fun i x -> if Float.is_nan x then m.Mat.data.(i) <- infinity)
    m.Mat.data

(* The coefficients of [x.w]: [cols_for] skips dead tiles (pass it only
   for a finite weight, see [map_coeff_blocks]), and [scrub] widens the
   NaN an infinite input coefficient can leave to +inf. *)
let map_coeffs z w ~cols_for ~scrub =
  let vcols = Mat.cols w in
  let nv = z.vrows * vcols in
  let phi = Mat.create nv (num_phi z) and eps = Mat.create nv (num_eps z) in
  map_coeff_blocks ~vrows:z.vrows ~bin:z.vcols ~bout:vcols w z.phi phi;
  map_coeff_blocks ?cols_for ~vrows:z.vrows ~bin:z.vcols ~bout:vcols w z.eps eps;
  if scrub then begin
    scrub_coeff_nan phi;
    scrub_coeff_nan eps
  end;
  (phi, eps)

let input_scrub z = Mat.finite_class z.phi = `Inf || Mat.finite_class z.eps = `Inf

let skip_for z w =
  if Mat.finite_class w = `Finite then live_blocks z.eps_occ ~bin:z.vcols ~e:(num_eps z)
  else None

let linear_checks z w b =
  if Mat.rows w <> z.vcols then invalid_arg "Zonotope.linear_map: shape mismatch";
  if Array.length b <> Mat.cols w then invalid_arg "Zonotope.linear_map: bias"

(* The map mixes variables only within a value row, so bands survive at
   value-row granularity; an infinite weight can smear NaN/inf anywhere,
   so that path forgets the structure. *)
let mapped_occ z w =
  if Mat.finite_class w = `Finite then
    Bands.block_rows ~bin:z.vcols ~bout:(Mat.cols w) z.eps_occ
  else Bands.full

let linear_map ?(scan = true) z w b =
  linear_checks z w b;
  let phi, eps =
    map_coeffs z w ~cols_for:(skip_for z w) ~scrub:(scan && input_scrub z)
  in
  {
    z with
    vcols = Mat.cols w;
    center = Mat.add_row_broadcast (Mat.matmul z.center w) b;
    phi;
    eps;
    eps_occ = mapped_occ z w;
  }

(* Entries [j0, j1) of row [r] of the sum of an [ea]-wide and an
   [eb]-wide row-major matrix, written to row [r] of [out] ([w] wide):
   [Mat.add] of the two zero-padded to the wider width, so past the
   narrower width each entry is [x +. 0.0] (which turns a -0.0 into
   +0.0). *)
let add_segment da ea db eb (out : float array) w r j0 j1 =
  let o = r * w and oa = r * ea and ob = r * eb in
  let lo = max j0 (min j1 (min ea eb)) in
  for c = j0 to lo - 1 do
    Array.unsafe_set out (o + c)
      (Array.unsafe_get da (oa + c) +. Array.unsafe_get db (ob + c))
  done;
  if ea > eb then
    for c = lo to j1 - 1 do
      Array.unsafe_set out (o + c) (Array.unsafe_get da (oa + c) +. 0.0)
    done
  else
    for c = lo to j1 - 1 do
      Array.unsafe_set out (o + c) (0.0 +. Array.unsafe_get db (ob + c))
    done

let add_checks a b =
  if a.vrows <> b.vrows || a.vcols <> b.vcols then
    invalid_arg "Zonotope.add: value shape mismatch";
  if num_phi a <> num_phi b then invalid_arg "Zonotope.add: phi width mismatch"

(* The occupancy of [add a b]: the union of the operands' occupancies
   padded to the wider ε width. *)
let add_occ a b =
  let ea = num_eps a and eb = num_eps b and n = num_vars a in
  let w = max ea eb in
  Bands.union (padded_occ a.eps_occ ~n ~cur:ea ~w) (padded_occ b.eps_occ ~n ~cur:eb ~w)

(* The ε sum is written straight into one matrix of the wider width, as
   [Mat.add] of the two operands zero-padded to that width computes it
   ([add_segment]). *)
let add a b =
  add_checks a b;
  let ea = num_eps a and eb = num_eps b and n = num_vars a in
  let w = max ea eb in
  let eps = Mat.create n w in
  for r = 0 to n - 1 do
    add_segment a.eps.Mat.data ea b.eps.Mat.data eb eps.Mat.data w r 0 w
  done;
  {
    a with
    center = Mat.add a.center b.center;
    phi = Mat.add a.phi b.phi;
    eps;
    eps_occ = add_occ a b;
  }

let add_const z m = { z with center = Mat.add z.center m }

(* Scaling by a finite [s] maps a dead ±0.0 to ±0.0 (possibly flipping
   its sign — the occupancy invariant only tracks |x| = 0.0); a
   non-finite [s] turns dead zeros into NaN, so the structure is
   forgotten. *)
let scale s z =
  let eps_occ = if Float.is_finite s then z.eps_occ else Bands.full in
  {
    z with
    center = Mat.scale s z.center;
    phi = Mat.scale s z.phi;
    eps = Mat.scale s z.eps;
    eps_occ;
  }

let scale_fresh s z =
  Mat.scale_in_place s z.center;
  Mat.scale_in_place s z.phi;
  Mat.scale_in_place s z.eps;
  { z with eps_occ = (if Float.is_finite s then z.eps_occ else Bands.full) }

let neg z = scale (-1.0) z

(* ---------------- symbol splitting (branch-and-bound) ---------------- *)

type half = Lower | Upper
type symbol = Phi of int | Eps of int

(* Restricting ε_k to a half-range is an exact re-parameterization:
   ε_k = shift + 0.5 ε'_k with ε'_k ∈ [-1, 1] covers exactly [-1, 0]
   (Lower) or [0, 1] (Upper), so the two halves partition the parent.
   All ops are plain float multiply-adds in variable order — the result
   is bit-deterministic.

   A φ symbol cannot be halved in place: the φ block is constrained
   jointly by ‖φ‖_p ≤ 1, and substituting φ_k = shift + 0.5 φ'_k while
   keeping φ'_k inside the p-ball can *shrink* other coordinates' reach
   (unsound: e.g. p = 2, φ = (0.6, -0.8) lies in the parent, but after
   substituting on k = 1 the needed φ' has norm > 1). Instead the split
   coordinate is decoupled: the φ column is zeroed and re-issued as a
   fresh ε column of half magnitude, centered on the chosen half. The
   branch then constrains φ_k ∈ [shift - 1/2, shift + 1/2] {e
   independently} of the other φ coordinates — a superset of the
   parent's {‖φ‖_p ≤ 1, φ_k in the half}, so each branch is a sound
   relaxation and the two branches still cover the parent. The branch is
   strictly tighter than the parent in the split coordinate (range
   halved), which is where downstream nonlinear transformers gain
   precision. *)
let restrict_symbol z sym half =
  let n = num_vars z in
  let shift = match half with Lower -> -0.5 | Upper -> 0.5 in
  match sym with
  | Eps k ->
      let e = num_eps z in
      if k < 0 || k >= e then
        invalid_arg "Zonotope.restrict_symbol: eps index out of range";
      let center = Mat.copy z.center and eps = Mat.copy z.eps in
      for v = 0 to n - 1 do
        let c = eps.Mat.data.((v * e) + k) in
        center.Mat.data.(v) <- center.Mat.data.(v) +. (shift *. c);
        eps.Mat.data.((v * e) + k) <- 0.5 *. c
      done;
      { z with center; eps }
  | Phi k ->
      let np = num_phi z and ne = num_eps z in
      if k < 0 || k >= np then
        invalid_arg "Zonotope.restrict_symbol: phi index out of range";
      let center = Mat.copy z.center and phi = Mat.copy z.phi in
      let eps = Mat.create n (ne + 1) in
      for v = 0 to n - 1 do
        let c = phi.Mat.data.((v * np) + k) in
        center.Mat.data.(v) <- center.Mat.data.(v) +. (shift *. c);
        phi.Mat.data.((v * np) + k) <- 0.0;
        Array.blit z.eps.Mat.data (v * ne) eps.Mat.data (v * (ne + 1)) ne;
        eps.Mat.data.((v * (ne + 1)) + ne) <- 0.5 *. c
      done;
      (* the minted ε column is the split φ column's coefficients: a
         one-column band over all rows *)
      let eps_occ =
        Bands.add z.eps_occ
          { Bands.col_lo = ne; col_hi = ne + 1; row_lo = 0; row_hi = n }
      in
      { z with center; phi; eps; eps_occ }

(* Columns are centered in tiles of this many: a tile of one value row
   (its d rows) stays in L1 between the sweeps of [center_loop]. *)
let center_tile = 128

(* The centering loop of the normalization layer (no std). For every one
   of the [vrows] value rows of [d] variables, every column j of its
   coefficient block that [live i] lists becomes
   gamma_c * (x_cj - mean_j) [+ beta_c], where mean_j is the sum over c
   of x_cj, added in ascending c from +0.0, divided by d. The block is
   walked row by row: [fill r j0 j1] writes the operand's entries
   [j0, j1) of row [r] into [out], the row is added into the per-column
   sums, and a last sweep centers the tile in place. A column sums the
   same terms in the same order as a walk down the column would. Columns
   no interval lists keep the +0.0 of the fresh [out]. The value center
   is the case e = 1, with [beta]. *)
let center_loop ~vrows ~d ~gamma ?beta ~live ~fill (out : Mat.t) =
  let e = Mat.cols out and data = out.Mat.data in
  let fd = float_of_int d in
  let mean = Array.make (min e center_tile) 0.0 in
  if e > 0 then
    for i = 0 to vrows - 1 do
      let base = i * d in
      List.iter
        (fun (lo, hi) ->
          let t0 = ref lo in
          while !t0 < hi do
            let j0 = !t0 in
            let j1 = min hi (j0 + center_tile) in
            Array.fill mean 0 (j1 - j0) 0.0;
            for c = 0 to d - 1 do
              let r = base + c in
              fill r j0 j1;
              let o = r * e in
              for j = j0 to j1 - 1 do
                Array.unsafe_set mean (j - j0)
                  (Array.unsafe_get mean (j - j0) +. Array.unsafe_get data (o + j))
              done
            done;
            for j = 0 to j1 - j0 - 1 do
              Array.unsafe_set mean j (Array.unsafe_get mean j /. fd)
            done;
            for c = 0 to d - 1 do
              let o = (base + c) * e and g = gamma.(c) in
              match beta with
              | None ->
                  for j = j0 to j1 - 1 do
                    let x = Array.unsafe_get data (o + j) in
                    Array.unsafe_set data (o + j)
                      (g *. (x -. Array.unsafe_get mean (j - j0)))
                  done
              | Some beta ->
                  let bc = beta.(c) in
                  for j = j0 to j1 - 1 do
                    let x = Array.unsafe_get data (o + j) in
                    Array.unsafe_set data (o + j)
                      ((g *. (x -. Array.unsafe_get mean (j - j0))) +. bc)
                  done
            done;
            t0 := j1
          done)
        (live i)
    done

(* Row [r], entries [j0, j1), of the operand matrix [m], or of the sum of
   [m] and [m'] as [add] forms it ([add_segment]), written into [out]. *)
let fill_rows (m : Mat.t) m' out r j0 j1 =
  let ea = Mat.cols m in
  match m' with
  | None -> Array.blit m.Mat.data ((r * ea) + j0) out ((r * ea) + j0) (j1 - j0)
  | Some (m' : Mat.t) ->
      let eb = Mat.cols m' in
      add_segment m.Mat.data ea m'.Mat.data eb out (max ea eb) r j0 j1

(* A value center seen as the one-column matrix of its variables, the
   layout [center_loop] centers it in (same data). *)
let center_column z = Mat.of_array ~rows:(num_vars z) ~cols:1 z.center.Mat.data

(* Per value row: y_ij = gamma_j * (x_ij - mean_i) + beta_j, of [a], or
   of [add a b] formed row by row inside the centering loop and never
   stored whole. All linear: the same map applies to the center (plus
   bias) and to every coefficient column (no bias). A non-finite gamma
   would write NaN where the dense map reads a dead ±0.0 (inf * 0.0), so
   column skipping is only engaged — and the band structure only kept —
   when every gamma is finite. The live columns are those of the
   operand's occupancy ([add]'s for a sum). *)
let center_sum ?b a ~gamma ~beta =
  if Array.length gamma <> a.vcols || Array.length beta <> a.vcols then
    invalid_arg "Zonotope.center_rows: parameter length";
  let d = a.vcols and n = num_vars a in
  let occ = match b with None -> a.eps_occ | Some b -> add_occ a b in
  let gamma_finite = Array.for_all Float.is_finite gamma in
  let width (m : t -> Mat.t) =
    List.fold_left (fun acc z -> max acc (Mat.cols (m z))) 0 (a :: Option.to_list b)
  in
  let run ?beta m live =
    let out = Mat.create n (width m) in
    center_loop ~vrows:a.vrows ~d ~gamma ?beta ~live
      ~fill:(fill_rows (m a) (Option.map m b) out.Mat.data) out;
    out
  in
  let dense e _ = [ (0, e) ] in
  let ee = width (fun z -> z.eps) in
  let eps_live =
    if gamma_finite && not (Bands.is_full occ) then fun i ->
      Bands.row_intervals ~lo:(i * d) ~hi:((i + 1) * d) ~cols:ee occ
    else dense ee
  in
  {
    a with
    center =
      Mat.of_array ~rows:a.vrows ~cols:d (run ~beta center_column (dense 1)).Mat.data;
    phi = run (fun z -> z.phi) (dense (num_phi a));
    eps = run (fun z -> z.eps) eps_live;
    eps_occ =
      (if gamma_finite then
         (* the mean mixes rows within a value row: widen bands to
            value-row granularity *)
         Bands.block_rows ~bin:d ~bout:d occ
       else Bands.full);
  }

let center_rows z ~gamma ~beta = center_sum z ~gamma ~beta

let add_center_rows a b ~gamma ~beta =
  add_checks a b;
  center_sum a ~b ~gamma ~beta

let positional z pos =
  if Mat.rows pos < z.vrows || Mat.cols pos <> z.vcols then
    invalid_arg "Zonotope.positional: shape mismatch";
  let shift = Mat.init z.vrows z.vcols (fun i j -> Mat.get pos i j) in
  add_const z shift

(* ---------------- structural ---------------- *)

let select_rows_of_mat (m : Mat.t) idx =
  let c = Mat.cols m in
  let out = Mat.create (Array.length idx) c in
  Array.iteri
    (fun k r -> Array.blit m.Mat.data (r * c) out.Mat.data (k * c) c)
    idx;
  out

let reindex z vrows vcols idx ~eps_occ =
  (* [eps_occ] is the caller's row-permuted occupancy: each call site
     knows how [idx] moves coefficient rows and supplies a sound
     (possibly widened) image of [z.eps_occ] under that move. *)
  {
    z with
    vrows;
    vcols;
    center =
      Mat.of_array ~rows:vrows ~cols:vcols
        (Array.map (fun v -> z.center.Mat.data.(v)) idx);
    phi = select_rows_of_mat z.phi idx;
    eps = select_rows_of_mat z.eps idx;
    eps_occ;
  }

let select_value_rows z start n =
  if start < 0 || n < 0 || start + n > z.vrows then
    invalid_arg "Zonotope.select_value_rows";
  let idx =
    Array.init (n * z.vcols) (fun k ->
        let i = k / z.vcols and j = k mod z.vcols in
        ((start + i) * z.vcols) + j)
  in
  (* contiguous row slice: intersect the bands with it and rebase *)
  let eps_occ =
    Bands.restrict_rows ~lo:(start * z.vcols) ~hi:((start + n) * z.vcols)
      z.eps_occ
  in
  reindex z n z.vcols idx ~eps_occ

let pool_first z = select_value_rows z 0 1

let select_value_cols z start n =
  if start < 0 || n < 0 || start + n > z.vcols then
    invalid_arg "Zonotope.select_value_cols";
  let idx =
    Array.init (z.vrows * n) (fun k ->
        let i = k / n and j = k mod n in
        (i * z.vcols) + start + j)
  in
  (* keeps a sub-range of each value row: widening each band to its
     value rows and re-blocking at the new width is sound *)
  let eps_occ = Bands.block_rows ~bin:z.vcols ~bout:n z.eps_occ in
  reindex z z.vrows n idx ~eps_occ

(* Part j of map i is [select_value_cols (linear_map z w_i b_i) (j * d_i)
   d_i], d_i = cols w_i / parts. Each part is mapped straight into its
   own matrices by its own columns of w_i: an output column's sum reads
   only its own weight column, so it is the one the whole map computes,
   and no map of the whole width is formed and cut. The input's
   finiteness is read once for all maps, and dead tiles are skipped only
   when every weight is finite, which for the finite columns is the
   dense result bit for bit (see [map_coeff_blocks]). Each part keeps
   the occupancy its own map gives it, so an infinite weight widens only
   its own map's parts to full. *)
let linear_split z maps ~parts =
  match maps with
  | [] -> []
  | (w0, _) :: rest ->
      let w = List.fold_left (fun acc (w, _) -> Mat.hcat acc w) w0 rest in
      let b = Array.concat (List.map snd maps) in
      linear_checks z w b;
      let center = Mat.add_row_broadcast (Mat.matmul z.center w) b in
      let cols_for = skip_for z w and scrub = input_scrub z in
      let _, split =
        List.fold_left_map
          (fun off (wi, _) ->
            let width = Mat.cols wi in
            if parts <= 0 || width mod parts <> 0 then
              invalid_arg "Zonotope.linear_split: parts";
            let d = width / parts in
            let eps_occ = Bands.block_rows ~bin:width ~bout:d (mapped_occ z wi) in
            ( off + width,
              Array.init parts (fun j ->
                  let phi, eps =
                    map_coeffs z (Mat.sub_cols wi (j * d) d) ~cols_for ~scrub
                  in
                  let center = Mat.sub_cols center (off + (j * d)) d in
                  { z with vcols = d; center; phi; eps; eps_occ }) ))
          0 maps
      in
      split

let transpose_value z =
  let idx =
    Array.init (num_vars z) (fun k ->
        let i = k / z.vrows and j = k mod z.vrows in
        (* output var (i, j) with shape (vcols, vrows) reads input (j, i) *)
        (j * z.vcols) + i)
  in
  (* a vector transpose permutes nothing; a true transpose scatters
     rows, so widen each band to all rows *)
  let eps_occ =
    if z.vrows = 1 || z.vcols = 1 then z.eps_occ
    else Bands.widen_rows ~rows:(num_vars z) z.eps_occ
  in
  reindex z z.vcols z.vrows idx ~eps_occ

let reshape_value z ~rows ~cols =
  if rows * cols <> num_vars z then invalid_arg "Zonotope.reshape_value";
  { z with vrows = rows; vcols = cols;
    center = Mat.reshape z.center ~rows ~cols }

(* Stacking and concatenation build their result in one pass. The
   occupancy is still folded pairwise, exactly as a left fold of binary
   concatenations built it, each step padding the accumulator and the
   next operand to their common width ([padded_occ]) before the union:
   band coalescing makes the union order-sensitive, and compaction and
   the decorrelation tie-break read the bands. An operand enters the
   fold as a [piece]: its occupancy, ε width, variable count and value
   width. [step ~vars ~vcols occ p occ_p] joins the occupancy of the
   operands so far ([vars] variables, [vcols] value columns side by
   side) with piece [p]'s padded one. *)
type piece = { occ : Bands.t; width : int; vars : int; cols : int }

let piece z = { occ = z.eps_occ; width = num_eps z; vars = num_vars z; cols = z.vcols }

let fold_occ ~step = function
  | [] -> invalid_arg "Zonotope.fold_occ: empty"
  | p0 :: rest ->
      let occ, _, _, _ =
        List.fold_left
          (fun (occ, w, vars, vcols) p ->
            let w' = max w p.width in
            ( step ~vars ~vcols
                (padded_occ occ ~n:vars ~cur:w ~w:w')
                p
                (padded_occ p.occ ~n:p.vars ~cur:p.width ~w:w'),
              w',
              vars + p.vars,
              vcols + p.cols ))
          (p0.occ, p0.width, p0.vars, p0.cols)
          rest
      in
      occ

(* The occupancy of the values side by side: both sides' rows land
   inside the same widened value rows. *)
let hcat_occ ps =
  fold_occ ps ~step:(fun ~vars:_ ~vcols occ p occ_p ->
      let cols = vcols + p.cols in
      Bands.union
        (Bands.block_rows ~bin:vcols ~bout:cols occ)
        (Bands.block_rows ~bin:p.cols ~bout:cols occ_p))

(* The occupancy of the values stacked top to bottom. *)
let vcat_occ ps =
  fold_occ ps ~step:(fun ~vars ~vcols:_ occ _ occ_p ->
      Bands.union occ (Bands.shift_rows vars occ_p))

(* NaN dominates Inf, as in [Mat.finite_class] of the matrices side by
   side (zero padding is finite). *)
let join_class cs =
  if List.mem `Nan cs then `Nan else if List.mem `Inf cs then `Inf else `Finite

(* [linear_map] of the values [zs] side by side, without building the
   concatenation. Value row i of the concatenation is each operand's
   value row i, left to right, so the map's ascending sum over its input
   columns runs through the operands in order: each operand's block is
   mapped by its rows of [w] into the output, continuing the running
   sums the operands before it left ([map_coeff_blocks]). The
   concatenation zero-pads every ε block to the widest; with a finite
   [w] a padded column adds [finite * 0.0] terms that change no sum, so
   an operand maps only its own columns (and skips its own dead ones).
   A non-finite [w] turns those terms into NaN, so that path maps every
   operand padded to the full width, as the dense map of the
   concatenation did.

   With [~own:w0] (the attention heads, each run in its own symbol space
   from the [w0] symbols they share), operand h's columns from [w0] on
   are its own symbols, and the output places them behind the own
   symbols of the operands before it: that is the map of the operands
   with that many zero columns inserted at [w0] ([Bands.insert_gap] for
   the occupancy). With a finite [w] no gap is built: an own column only
   ever gets its operand's terms, the others add zeros or nothing, and
   its running sum starts from the +0.0 of the fresh output, so the
   operand's own columns map straight to their place
   ([Mat.matmul_ta_acc ~b_cols ~out_col]). *)
let linear_join ?own zs w b =
  match zs with
  | [] -> invalid_arg "Zonotope.linear_join: empty"
  | [ z ] -> linear_map z w b
  | z0 :: _ ->
      List.iter
        (fun z ->
          if z.vrows <> z0.vrows then invalid_arg "Zonotope.linear_join: row mismatch";
          if num_phi z <> num_phi z0 then
            invalid_arg "Zonotope.linear_join: phi mismatch")
        zs;
      let vrows = z0.vrows in
      let cols_in = List.fold_left (fun acc z -> acc + z.vcols) 0 zs in
      if Mat.rows w <> cols_in then invalid_arg "Zonotope.linear_map: shape mismatch";
      if Array.length b <> Mat.cols w then invalid_arg "Zonotope.linear_map: bias";
      let vcols = Mat.cols w in
      (* [shared] columns of each operand keep their ids; the rest move
         right by [off], the own columns of the operands before it *)
      let shared z = match own with Some w0 -> min w0 (num_eps z) | None -> num_eps z in
      let _, placed =
        List.fold_left_map (fun off z -> (off + num_eps z - shared z, (z, off))) 0 zs
      in
      let ee = List.fold_left (fun acc (z, off) -> max acc (num_eps z + off)) 0 placed in
      let w_finite = Mat.finite_class w = `Finite in
      let center = Mat.create vrows cols_in in
      let phi = Mat.create (vrows * vcols) (num_phi z0) in
      let eps = Mat.create (vrows * vcols) ee in
      ignore
        (List.fold_left
           (fun c0 (z, off) ->
             for i = 0 to vrows - 1 do
               Array.blit z.center.Mat.data (i * z.vcols) center.Mat.data
                 ((i * cols_in) + c0) z.vcols
             done;
             let wz = Mat.sub_rows w c0 z.vcols in
             map_coeff_blocks ~vrows ~bin:z.vcols ~bout:vcols wz z.phi phi;
             let e = num_eps z and sh = shared z in
             (if w_finite then begin
                let cols_for = live_blocks z.eps_occ ~bin:z.vcols ~e in
                for i = 0 to vrows - 1 do
                  let cols = Option.map (fun f -> f i) cols_for in
                  let b_row = i * z.vcols and out_row = i * vcols in
                  if sh > 0 then
                    Mat.matmul_ta_acc ?cols ~b_cols:(0, sh) wz z.eps ~b_row eps ~out_row;
                  if e > sh then
                    Mat.matmul_ta_acc ?cols ~b_cols:(sh, e) ~out_col:(sh + off) wz z.eps
                      ~b_row eps ~out_row
                done
              end
              else begin
                (* the operand's ε in its place in the output's columns *)
                let n = num_vars z in
                let g = Mat.create n ee in
                for v = 0 to n - 1 do
                  Array.blit z.eps.Mat.data (v * e) g.Mat.data (v * ee) sh;
                  Array.blit z.eps.Mat.data ((v * e) + sh) g.Mat.data ((v * ee) + sh + off)
                    (e - sh)
                done;
                map_coeff_blocks ~vrows ~bin:z.vcols ~bout:vcols wz g eps
              end);
             c0 + z.vcols)
           0 placed);
      let cls f = join_class (List.map (fun z -> Mat.finite_class (f z)) zs) in
      if cls (fun z -> z.phi) = `Inf || cls (fun z -> z.eps) = `Inf then begin
        scrub_coeff_nan phi;
        scrub_coeff_nan eps
      end;
      let gapped (z, off) =
        let p = piece z in
        if off = 0 then p
        else
          {
            p with
            occ = pin (Bands.insert_gap ~rows:p.vars ~cols:p.width ~at:(shared z) ~by:off p.occ);
            width = p.width + off;
          }
      in
      {
        vrows;
        vcols;
        p = z0.p;
        center = Mat.add_row_broadcast (Mat.matmul center w) b;
        phi;
        eps;
        eps_occ =
          (if w_finite then
             Bands.block_rows ~bin:cols_in ~bout:vcols (hcat_occ (List.map gapped placed))
           else Bands.full);
      }

let of_rows = function
  | [] -> invalid_arg "Zonotope.of_rows: empty"
  | [ z ] -> z
  | z0 :: _ as zs ->
      List.iter
        (fun z ->
          if z.vcols <> z0.vcols then invalid_arg "Zonotope.of_rows: col mismatch";
          if num_phi z <> num_phi z0 then invalid_arg "Zonotope.of_rows: phi mismatch")
        zs;
      let vcols = z0.vcols in
      let vrows = List.fold_left (fun acc z -> acc + z.vrows) 0 zs in
      let w = List.fold_left (fun acc z -> max acc (num_eps z)) 0 zs in
      let ep = num_phi z0 in
      let center = Mat.create vrows vcols in
      let phi = Mat.create (vrows * vcols) ep in
      let eps = Mat.create (vrows * vcols) w in
      ignore
        (List.fold_left
          (fun row z ->
            let nz = num_vars z and e = num_eps z in
            Array.blit z.center.Mat.data 0 center.Mat.data row nz;
            Array.blit z.phi.Mat.data 0 phi.Mat.data (row * ep) (nz * ep);
            for v = 0 to nz - 1 do
              Array.blit z.eps.Mat.data (v * e) eps.Mat.data ((row + v) * w) e
            done;
            row + nz)
          0 zs);
      { vrows; vcols; p = z0.p; center; phi; eps; eps_occ = vcat_occ (List.map piece zs) }

(* Data: the scalars of every group, row after row, as [of_rows] of all
   of them stacks them (one copy, at the widest width). Occupancy: each
   group stacked into a row ([of_rows]), the row refined, then the rows
   stacked, as the two levels of [of_rows] build it. A row is refined in
   place in the stacked matrices: its columns past its own width are the
   +0.0 of the fresh matrix, as in the row [of_rows] would pad. *)
let stack_rows ?refine groups =
  let rows = List.length groups in
  let n = match groups with g :: _ -> List.length g | [] -> 0 in
  let scalars = List.concat groups in
  List.iter
    (fun g -> if List.length g <> n then invalid_arg "Zonotope.stack_rows: ragged groups")
    groups;
  List.iter
    (fun z -> if num_vars z <> 1 then invalid_arg "Zonotope.stack_rows: not a scalar")
    scalars;
  let z0 = match scalars with z :: _ -> z | [] -> invalid_arg "Zonotope.stack_rows: empty" in
  let ep = num_phi z0 in
  let w = List.fold_left (fun acc z -> max acc (num_eps z)) 0 scalars in
  let center = Mat.create rows n in
  let phi = Mat.create (rows * n) ep and eps = Mat.create (rows * n) w in
  List.iteri
    (fun v z ->
      if num_phi z <> ep then invalid_arg "Zonotope.stack_rows: phi mismatch";
      center.Mat.data.(v) <- z.center.Mat.data.(0);
      Array.blit z.phi.Mat.data 0 phi.Mat.data (v * ep) ep;
      Array.blit z.eps.Mat.data 0 eps.Mat.data (v * w) (num_eps z))
    scalars;
  let stacked = { vrows = rows; vcols = n; p = z0.p; center; phi; eps; eps_occ = Bands.full } in
  let row_piece r g =
    let occ = vcat_occ (List.map piece g) in
    let width = List.fold_left (fun acc z -> max acc (num_eps z)) 0 g in
    let occ =
      match refine with Some f -> f stacked ~v0:(r * n) ~nv:n ~ee:width occ | None -> occ
    in
    { occ; width; vars = n; cols = n }
  in
  { stacked with eps_occ = vcat_occ (List.mapi row_piece groups) }

let map_rows_affine z m =
  if Mat.cols m <> z.vrows then invalid_arg "Zonotope.map_rows_affine";
  (* y = m . x : output var (i, j) = sum_k m_ik x_kj. Coefficients combine
     linearly with the same weights. Viewing the coefficient matrix of a
     [vrows x vcols] value as a [vrows x (vcols * e)] matrix (same
     row-major data) turns the combination into one matrix product on
     the blocked kernel. *)
  let vrows = Mat.rows m in
  (* An infinity in [m] multiplies dead +0.0 entries into NaN under the
     dense kernel; only a finite [m] may skip dead columns or keep the
     band structure. *)
  let m_finite = Mat.finite_class m = `Finite in
  let combine ?occ (g : Mat.t) =
    let e = Mat.cols g in
    if e = 0 then Mat.create (vrows * z.vcols) 0
    else begin
      let wide = Mat.of_array ~rows:z.vrows ~cols:(z.vcols * e) g.Mat.data in
      (* In the wide view, value column j holds symbol columns
         [j*e, (j+1)*e): replicate the live symbol intervals into each
         value column's slot (ascending j keeps the list sorted). *)
      let cols =
        match occ with
        | Some o when m_finite && not (Bands.is_full o) ->
            Some (Bands.repeat_intervals ~times:z.vcols ~cols:e o)
        | _ -> None
      in
      let mapped = Mat.matmul ?cols m wide in
      Mat.of_array ~rows:(vrows * z.vcols) ~cols:e mapped.Mat.data
    end
  in
  {
    z with
    vrows;
    center = Mat.matmul m z.center;
    phi = combine z.phi;
    eps = combine ~occ:z.eps_occ z.eps;
    eps_occ =
      (if m_finite then
         (* every output row mixes all input rows of its value column:
            widen each band to the full new row range *)
         Bands.widen_rows ~rows:(vrows * z.vcols) z.eps_occ
       else Bands.full);
  }

(* ---------------- variable access ---------------- *)

let var_affine z v =
  if v < 0 || v >= num_vars z then invalid_arg "Zonotope.var_affine";
  (z.center.Mat.data.(v), Mat.row z.phi v, Mat.row z.eps v)

let phi_block z start n = Mat.sub_rows z.phi start n
let eps_block z start n = Mat.sub_rows z.eps start n

(* ---------------- dead-symbol compaction ---------------- *)

let eps_density z =
  Bands.density ~rows:(num_vars z) ~cols:(num_eps z) z.eps_occ

let compact z =
  let e = num_eps z in
  if e = 0 || Bands.is_full z.eps_occ then z
  else begin
    let dead = Bands.dead_cols ~cols:e z.eps_occ in
    let live = ref 0 in
    Array.iter (fun d -> if not d then incr live) dead;
    if !live = e then z
    else begin
      (* Dropping a coverage-empty column removes only ±0.0 entries:
         the ℓ1 row norms — and therefore every radius and verdict —
         are unchanged. [remap] sends old column ids to new ones so the
         bands move with their columns. *)
      let remap = Array.make e (-1) in
      let next = ref 0 in
      for j = 0 to e - 1 do
        if not dead.(j) then begin
          remap.(j) <- !next;
          incr next
        end
      done;
      let n = num_vars z in
      let out = Mat.create n !live in
      for i = 0 to n - 1 do
        let src = i * e and dst = i * !live in
        for j = 0 to e - 1 do
          let k = Array.unsafe_get remap j in
          if k >= 0 then
            Array.unsafe_set out.Mat.data (dst + k)
              (Array.unsafe_get z.eps.Mat.data (src + j))
        done
      done;
      let eps_occ =
        Bands.remap_cols
          (fun j -> if j < e && remap.(j) >= 0 then Some remap.(j) else None)
          z.eps_occ
      in
      { z with eps = out; eps_occ }
    end
  end

let contains_sample ?(tol = 1e-7) z m =
  Mat.dims m = (z.vrows, z.vcols)
  &&
  (* Short-circuit on the first violated variable: each check costs a
     full dual-norm scan of the variable's coefficient rows, so finishing
     the loop after [ok] is already false is pure waste. *)
  let nv = num_vars z in
  let rec ok v =
    v >= nv
    ||
    let itv = bounds_var z v in
    let x = m.Mat.data.(v) in
    x >= itv.Itv.lo -. tol && x <= itv.Itv.hi +. tol && ok (v + 1)
  in
  ok 0
