open Tensor
open Interval

type coeffs = { lambda : float; mu : float; beta : float }

exception Unbounded = Zonotope.Unbounded

let check_finite ~l ~u = if not (Float.is_finite l && Float.is_finite u) then raise Unbounded

let point_coeffs y = { lambda = 0.0; mu = y; beta = 0.0 }
let tiny = 1e-12

let interval_coeffs fl fu =
  (* Sound fallback: ignore the input correlation entirely. Used when the
     range is too narrow (or too extreme) for the tangent-chord formulas to
     be numerically trustworthy. *)
  { lambda = 0.0; mu = 0.5 *. (fu +. fl); beta = 0.5 *. (fu -. fl) }

let narrow = 1e-9


let relu_coeffs ~l ~u =
  check_finite ~l ~u;
  if u <= 0.0 then point_coeffs 0.0
  else if l >= 0.0 then { lambda = 1.0; mu = 0.0; beta = 0.0 }
  else begin
    let lambda = u /. (u -. l) in
    let m = 0.5 *. Float.max (-.lambda *. l) ((1.0 -. lambda) *. u) in
    { lambda; mu = m; beta = m }
  end

let tanh_coeffs ~l ~u =
  check_finite ~l ~u;
  if u -. l < tiny then point_coeffs (tanh l)
  else if u -. l < narrow then interval_coeffs (tanh l) (tanh u)
  else begin
    let tl = tanh l and tu = tanh u in
    let lambda = Float.min (1.0 -. (tl *. tl)) (1.0 -. (tu *. tu)) in
    let mu = 0.5 *. (tu +. tl -. (lambda *. (u +. l))) in
    let beta = 0.5 *. (tu -. tl -. (lambda *. (u -. l))) in
    { lambda; mu; beta }
  end

(* Small constant from the paper keeping the relaxations strictly positive. *)
let pos_eps = 0.01

let exp_coeffs ~l ~u =
  check_finite ~l ~u;
  if u -. l < tiny then point_coeffs (exp l)
  else if u -. l < narrow || exp u -. exp l <= 0.0 then
    interval_coeffs (exp l) (exp u)
  else if u > 100.0 then begin
    (* Chord slope overflows double precision long before this point; the
       interval relaxation stays sound (and certification at such ranges
       fails anyway). *)
    let el = exp l and eu = exp u in
    { lambda = 0.0; mu = 0.5 *. (eu +. el); beta = 0.5 *. (eu -. el) }
  end
  else begin
    let el = exp l and eu = exp u in
    let t_crit = log ((eu -. el) /. (u -. l)) in
    let t_opt = Float.min t_crit (l +. 1.0 -. pos_eps) in
    let lambda = exp t_opt in
    let mu = 0.5 *. (lambda -. (lambda *. t_opt) +. eu -. (lambda *. u)) in
    let beta = 0.5 *. ((lambda *. t_opt) -. lambda +. eu -. (lambda *. u)) in
    { lambda; mu; beta }
  end

let recip_coeffs ?(floor = 0.0) ~l ~u () =
  check_finite ~l ~u;
  let l = Float.max l floor in
  let u = Float.max u l in
  if l <= 0.0 then raise Unbounded;
  if u -. l < tiny then point_coeffs (1.0 /. l)
  else if u -. l < narrow then interval_coeffs (1.0 /. u) (1.0 /. l)
  else if l > 1e15 then
    (* Saturated softmax denominators reach astronomic values; the output
       is then [1/u, 1/l], essentially a point near 0, and the tangent
       formulas would overflow. *)
    interval_coeffs (1.0 /. u) (1.0 /. l)
  else begin
    (* The tangent point must satisfy t >= sqrt(u l) for the chord-side
       bound to hold at the right endpoint, and t > u/2 for the tangent
       value at u to stay positive (required by the paper's construction;
       the published formula reads "min", but only "max" delivers the
       positivity the surrounding text claims). sqrt u * sqrt l avoids the
       overflow of u * l for large denominators. *)
    let t_crit = sqrt u *. sqrt l in
    let t_opt = Float.max t_crit ((0.5 *. u) *. (1.0 +. pos_eps)) in
    let lambda = -1.0 /. (t_opt *. t_opt) in
    let mu =
      0.5 *. ((1.0 /. t_opt) -. (lambda *. t_opt) +. (1.0 /. l) -. (lambda *. l))
    in
    let beta =
      0.5 *. ((lambda *. t_opt) -. (1.0 /. t_opt) +. (1.0 /. l) -. (lambda *. l))
    in
    { lambda; mu; beta }
  end

let sqrt_coeffs ~l ~u =
  check_finite ~l ~u;
  let l = Float.max 0.0 l in
  let u = Float.max u l in
  if u -. l < tiny then point_coeffs (sqrt l)
  else if u -. l < narrow then interval_coeffs (sqrt l) (sqrt u)
  else begin
    (* Chord slope; the maximal gap to the function is at the tangency
       point xs with df(xs) = lambda, i.e. xs = 1/(4 lambda^2). *)
    let sl = sqrt l and su = sqrt u in
    let lambda = (su -. sl) /. (u -. l) in
    let xstar = 1.0 /. (4.0 *. lambda *. lambda) in
    let gap_hi = sqrt xstar -. (lambda *. xstar) in
    let gap_lo = sl -. (lambda *. l) in
    let mu = 0.5 *. (gap_hi +. gap_lo) in
    let beta = 0.5 *. (gap_hi -. gap_lo) in
    { lambda; mu; beta }
  end

let eval c ~l ~u x =
  ignore l;
  ignore u;
  let mid = (c.lambda *. x) +. c.mu in
  Itv.make (mid -. c.beta) (mid +. c.beta)

let apply ctx (z : Zonotope.t) rule =
  (* Elementwise transformers run over every variable of wide coefficient
     matrices; poll the cooperative deadline so a single huge layer cannot
     overrun the budget between Propagate's per-op checkpoints. *)
  Zonotope.check_deadline ctx;
  let n = Zonotope.num_vars z in
  let b = Zonotope.bounds z in
  let cs =
    Array.init n (fun v ->
        let l = b.Imat.lo.Mat.data.(v) and u = b.Imat.hi.Mat.data.(v) in
        rule ~l ~u)
  in
  (* Count fresh symbols and allocate them contiguously. *)
  let fresh = Array.make n (-1) in
  let n_new = ref 0 in
  Array.iteri
    (fun v c ->
      if c.beta > 0.0 then begin
        fresh.(v) <- !n_new;
        incr n_new
      end)
    cs;
  (* The new columns sit at globally fresh symbol ids, behind the
     context's current width [old_w]: an operand narrower than that is
     read as if zero-padded to it ([Zonotope.pad_eps]), without the
     padded copy. *)
  let cur = Zonotope.num_eps z in
  let old_w = max cur (Zonotope.ctx_symbols ctx) in
  let occ_in = Zonotope.padded_occ z.Zonotope.eps_occ ~n ~cur ~w:old_w in
  let base = Zonotope.alloc_eps ctx !n_new in
  let w = base + !n_new in
  assert (old_w = base);
  let center = Mat.copy z.Zonotope.center in
  let phi = Mat.copy z.Zonotope.phi in
  let eps = Mat.create n w in
  let ep = Zonotope.num_phi z in
  let zeps = z.Zonotope.eps.Mat.data in
  (* A zero slope must annihilate the input coefficients outright: some of
     them can be infinite (an overflowed dot-product remainder), and
     0 * inf would inject NaN instead of the intended constant form. *)
  let scaled lam x = if lam = 0.0 then 0.0 else lam *. x in
  (* A non-finite slope would smear NaN into columns the occupancy
     declares dead (lam * ±0.0); only an all-finite lambda vector may
     skip dead columns or keep the band structure. *)
  let lambdas_finite = Array.for_all (fun c -> Float.is_finite c.lambda) cs in
  let skip_dead = lambdas_finite && not (Bands.is_full occ_in) in
  (* Entries [jlo, jhi) of row [v]: the operand's own columns scaled, the
     padding past them the scaled +0.0 the padded copy would give. *)
  let scale_row v lam jlo jhi =
    for j = jlo to min jhi cur - 1 do
      eps.Mat.data.((v * w) + j) <- scaled lam zeps.((v * cur) + j)
    done;
    if jhi > cur then begin
      let pad = scaled lam 0.0 in
      for j = max jlo cur to jhi - 1 do
        eps.Mat.data.((v * w) + j) <- pad
      done
    end
  in
  (* Poll again before the scaling loop, which is the op's O(n·w) pass. *)
  Zonotope.check_deadline ctx;
  for v = 0 to n - 1 do
    let c = cs.(v) in
    center.Mat.data.(v) <- scaled c.lambda center.Mat.data.(v) +. c.mu;
    for j = 0 to ep - 1 do
      phi.Mat.data.((v * ep) + j) <- scaled c.lambda phi.Mat.data.((v * ep) + j)
    done;
    if skip_dead then
      List.iter
        (fun (jlo, jhi) -> scale_row v c.lambda jlo jhi)
        (Bands.row_intervals ~lo:v ~hi:(v + 1) ~cols:old_w occ_in)
    else scale_row v c.lambda 0 old_w;
    if fresh.(v) >= 0 then eps.Mat.data.((v * w) + base + fresh.(v)) <- c.beta
  done;
  let occ =
    if lambdas_finite then
      Bands.union occ_in
        (Zonotope.fresh_bands ~fresh ~base ~rows:z.Zonotope.vrows
           ~per_row:z.Zonotope.vcols)
    else Bands.full
  in
  Zonotope.make ~p:z.Zonotope.p ~center ~phi ~eps
  |> Zonotope.with_eps_occ occ

let relu ctx z = apply ctx z relu_coeffs
let sqrt_ ctx z = apply ctx z sqrt_coeffs
let tanh_ ctx z = apply ctx z tanh_coeffs
let exp_ ctx z = apply ctx z exp_coeffs
let recip ?floor ctx z = apply ctx z (fun ~l ~u -> recip_coeffs ?floor ~l ~u ())
