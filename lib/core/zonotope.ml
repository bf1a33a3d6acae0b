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

let with_eps_occ occ z =
  { z with eps_occ = (if Bands.enabled then occ else Bands.full) }

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

(* Apply [block -> w^T . block] to every per-value-row coefficient block.
   [matmul_ta] fuses the transpose of [w] (no copy per value row).

   [?occ] (the coefficient matrix's band occupancy) lets the kernel
   skip dead column tiles per value row. Gated on the weight being free
   of infinities: with finite weights a dead column's dense output is
   exactly the +0.0 the skip leaves behind (the zero-skip is on the
   weight operand, so a dead ±0.0 coefficient only ever enters as
   [finite * ±0.0] accumulated onto +0.0), while an infinite weight
   would turn [inf * 0.0] into NaN in the dense result — so those fall
   back to the dense sweep. *)
let map_coeff_blocks ?occ vrows vcols_in vcols_out (w : Mat.t) (g : Mat.t) =
  let e = Mat.cols g in
  let out = Mat.create (vrows * vcols_out) e in
  if e > 0 then begin
    let cols_for =
      match occ with
      | Some o when not (Bands.is_full o) && Mat.finite_class w = `Finite ->
          fun i ->
            Some
              (Bands.row_intervals ~lo:(i * vcols_in)
                 ~hi:((i + 1) * vcols_in)
                 ~cols:e o)
      | _ -> fun _ -> None
    in
    for i = 0 to vrows - 1 do
      let block = Mat.sub_rows g (i * vcols_in) vcols_in in
      let mapped = Mat.matmul_ta ?cols:(cols_for i) w block in
      Array.blit mapped.Mat.data 0 out.Mat.data (i * vcols_out * e)
        (vcols_out * e)
    done
  end;
  out

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

let linear_map z w b =
  if Mat.rows w <> z.vcols then invalid_arg "Zonotope.linear_map: shape mismatch";
  if Array.length b <> Mat.cols w then invalid_arg "Zonotope.linear_map: bias";
  let vcols = Mat.cols w in
  let out =
    {
      vrows = z.vrows;
      vcols;
      p = z.p;
      center = Mat.add_row_broadcast (Mat.matmul z.center w) b;
      phi = map_coeff_blocks z.vrows z.vcols vcols w z.phi;
      eps = map_coeff_blocks ~occ:z.eps_occ z.vrows z.vcols vcols w z.eps;
      (* the map mixes variables only within a value row, so bands
         survive at value-row granularity; an infinite weight can smear
         NaN/inf anywhere, so that path forgets the structure *)
      eps_occ =
        (if Mat.finite_class w = `Finite then
           Bands.block_rows ~bin:z.vcols ~bout:vcols z.eps_occ
         else Bands.full);
    }
  in
  if Mat.finite_class z.phi = `Inf || Mat.finite_class z.eps = `Inf then begin
    scrub_coeff_nan out.phi;
    scrub_coeff_nan out.eps
  end;
  out

(* The ε sum is written straight into one matrix of the wider width, as
   [Mat.add] of the two operands zero-padded to that width computes it:
   past the narrower width each entry is [x +. 0.0] (which turns a -0.0
   into +0.0), and the occupancy is the union of the padded ones. *)
let add a b =
  if a.vrows <> b.vrows || a.vcols <> b.vcols then
    invalid_arg "Zonotope.add: value shape mismatch";
  if num_phi a <> num_phi b then invalid_arg "Zonotope.add: phi width mismatch";
  let ea = num_eps a and eb = num_eps b in
  let w = max ea eb in
  let n = num_vars a in
  let eps = Mat.create n w in
  let da = a.eps.Mat.data and db = b.eps.Mat.data and out = eps.Mat.data in
  let lo = min ea eb in
  for v = 0 to n - 1 do
    let o = v * w and oa = v * ea and ob = v * eb in
    for c = 0 to lo - 1 do
      Array.unsafe_set out (o + c)
        (Array.unsafe_get da (oa + c) +. Array.unsafe_get db (ob + c))
    done;
    if ea > eb then
      for c = lo to w - 1 do
        Array.unsafe_set out (o + c) (Array.unsafe_get da (oa + c) +. 0.0)
      done
    else
      for c = lo to w - 1 do
        Array.unsafe_set out (o + c) (0.0 +. Array.unsafe_get db (ob + c))
      done
  done;
  {
    a with
    center = Mat.add a.center b.center;
    phi = Mat.add a.phi b.phi;
    eps;
    eps_occ =
      Bands.union (padded_occ a.eps_occ ~n ~cur:ea ~w) (padded_occ b.eps_occ ~n ~cur:eb ~w);
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

let center_rows z ~gamma ~beta =
  if Array.length gamma <> z.vcols || Array.length beta <> z.vcols then
    invalid_arg "Zonotope.center_rows: parameter length";
  let d = z.vcols in
  let fd = float_of_int d in
  (* Per value row: y_ij = gamma_j * (x_ij - mean_i) + beta_j. All linear:
     the same map applies to the center (plus bias) and to every
     coefficient column (no bias). *)
    let center =
    let means = Mat.row_means z.center in
    Mat.mapi (fun i j v -> (gamma.(j) *. (v -. means.(i))) +. beta.(j)) z.center
  in
  (* A non-finite gamma would write NaN where the dense map reads a
     dead ±0.0 (inf * 0.0), so column skipping is only engaged — and
     the band structure only kept — when every gamma is finite. *)
  let gamma_finite = Array.for_all Float.is_finite gamma in
  let coeff ?occ (m : Mat.t) =
    (* coefficient matrices: same linear map, no bias *)
    let e = Mat.cols m in
    let out = Mat.create (Mat.rows m) e in
    if e > 0 then
      for i = 0 to z.vrows - 1 do
        let base = i * d in
        let live =
          match occ with
          | Some o when gamma_finite && not (Bands.is_full o) ->
              Bands.row_intervals ~lo:base ~hi:(base + d) ~cols:e o
          | _ -> [ (0, e) ]
        in
        List.iter
          (fun (jlo, jhi) ->
            for j = jlo to jhi - 1 do
              let mean = ref 0.0 in
              for c = 0 to d - 1 do
                mean := !mean +. m.Mat.data.(((base + c) * e) + j)
              done;
              let mean = !mean /. fd in
              for c = 0 to d - 1 do
                out.Mat.data.(((base + c) * e) + j) <-
                  gamma.(c) *. (m.Mat.data.(((base + c) * e) + j) -. mean)
              done
            done)
          live
      done;
    out
  in
  let eps_occ =
    if gamma_finite then
      (* the mean mixes rows within a value row: widen bands to
         value-row granularity *)
      Bands.block_rows ~bin:d ~bout:d z.eps_occ
    else Bands.full
  in
  { z with center; phi = coeff z.phi; eps = coeff ~occ:z.eps_occ z.eps; eps_occ }

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
   the decorrelation tie-break read the bands. [step ~vars ~vcols occ z
   occ_z] joins the occupancy of the operands so far ([vars] variables,
   [vcols] value columns side by side) with operand [z]'s padded one. *)
let fold_occ ~step = function
  | [] -> invalid_arg "Zonotope.fold_occ: empty"
  | z0 :: rest ->
      let occ, _, _, _ =
        List.fold_left
          (fun (occ, w, vars, vcols) z ->
            let w' = max w (num_eps z) and nz = num_vars z in
            ( step ~vars ~vcols
                (padded_occ occ ~n:vars ~cur:w ~w:w')
                z
                (padded_occ z.eps_occ ~n:nz ~cur:(num_eps z) ~w:w'),
              w',
              vars + nz,
              vcols + z.vcols ))
          (z0.eps_occ, num_eps z0, num_vars z0, z0.vcols)
          rest
      in
      occ

let hcat_values = function
  | [] -> invalid_arg "Zonotope.hcat_values: empty"
  | [ z ] -> z
  | z0 :: _ as zs ->
      List.iter
        (fun z ->
          if z.vrows <> z0.vrows then invalid_arg "Zonotope.hcat_values: row mismatch";
          if num_phi z <> num_phi z0 then invalid_arg "Zonotope.hcat_values: phi mismatch")
        zs;
      let vrows = z0.vrows in
      let vcols = List.fold_left (fun acc z -> acc + z.vcols) 0 zs in
      let w = List.fold_left (fun acc z -> max acc (num_eps z)) 0 zs in
      let ep = num_phi z0 in
      let center = Mat.create vrows vcols in
      let phi = Mat.create (vrows * vcols) ep in
      let eps = Mat.create (vrows * vcols) w in
      (* value row i of the result is each operand's value row i, left to
         right *)
      ignore
        (List.fold_left
          (fun off z ->
            let e = num_eps z in
            for i = 0 to vrows - 1 do
              Array.blit z.center.Mat.data (i * z.vcols) center.Mat.data
                ((i * vcols) + off) z.vcols;
              Array.blit z.phi.Mat.data (i * z.vcols * ep) phi.Mat.data
                (((i * vcols) + off) * ep) (z.vcols * ep);
              for c = 0 to z.vcols - 1 do
                Array.blit z.eps.Mat.data (((i * z.vcols) + c) * e) eps.Mat.data
                  (((i * vcols) + off + c) * w) e
              done
            done;
            off + z.vcols)
          0 zs);
      (* both sides' rows land inside the same widened value rows *)
      let eps_occ =
        fold_occ zs ~step:(fun ~vars:_ ~vcols occ z occ_z ->
            let cols = vcols + z.vcols in
            Bands.union
              (Bands.block_rows ~bin:vcols ~bout:cols occ)
              (Bands.block_rows ~bin:z.vcols ~bout:cols occ_z))
      in
      { vrows; vcols; p = z0.p; center; phi; eps; eps_occ }

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
      let eps_occ =
        fold_occ zs ~step:(fun ~vars ~vcols:_ occ _ occ_z ->
            Bands.union occ (Bands.shift_rows vars occ_z))
      in
      { vrows; vcols; p = z0.p; center; phi; eps; eps_occ }

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
