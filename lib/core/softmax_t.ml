open Tensor

(* A score position is saturated when some other position dominates it by
   more than this margin everywhere on the region: the softmax output is
   then provably below exp(-margin) and the exponential would overflow the
   float range if materialized. *)
let saturation_margin = 700.0

(* The 1 x 1 zonotope Σ_j exp(D_ij) of output [i], equal in every bit,
   occupancy and minted symbol to the chain
   [linear_map (Elementwise.exp_ ctx (row i of d)) ones [|0.0|]], but
   accumulated straight into the sum's coefficient row: the row is not
   copied and its n x W exp zonotope is never built.

   - exp's coefficients come from [db], the bounds of [d] the caller
     already has (the row's own bounds are the same numbers), and
     [exp_coeffs] raises [Unbounded] before any symbol is minted;
   - the symbols are minted as exp_ mints them: one per positive beta,
     ascending in j, in one [alloc_eps] at the current width;
   - each coefficient is the +0.0-seeded ascending-j sum the ones-vector
     product computed ([1.0 *. y = y] for every arithmetic result); a
     row with lambda = 0.0 contributes exact +0.0 terms and a column
     dead in [d] exact ±0.0 terms, so both are skipped (a +0.0-seeded
     sum is never -0.0, so skipping them changes no bit);
   - the sum gets linear_map's NaN -> inf scrub under the same
     condition. *)
let exp_sum ctx (d : Zonotope.t) (db : Interval.Imat.t) i =
  Zonotope.check_deadline ctx;
  let n = d.Zonotope.vcols in
  let cs =
    Array.init n (fun j ->
        Elementwise.exp_coeffs ~l:(Mat.get db.Interval.Imat.lo i j)
          ~u:(Mat.get db.Interval.Imat.hi i j))
  in
  let fresh = Array.make n (-1) in
  let n_new = ref 0 in
  Array.iteri
    (fun j (c : Elementwise.coeffs) ->
      if c.beta > 0.0 then begin
        fresh.(j) <- !n_new;
        incr n_new
      end)
    cs;
  let w0 = Zonotope.ctx_symbols ctx in
  let base = Zonotope.alloc_eps ctx !n_new in
  let w = base + !n_new in
  let ep = Zonotope.num_phi d and ed = Zonotope.num_eps d in
  let dc = d.Zonotope.center.Mat.data
  and dphi = d.Zonotope.phi.Mat.data
  and deps = d.Zonotope.eps.Mat.data in
  let scaled lam x = if lam = 0.0 then 0.0 else lam *. x in
  let c = ref 0.0 in
  Array.iteri
    (fun j (cj : Elementwise.coeffs) ->
      c := !c +. (scaled cj.lambda dc.((i * n) + j) +. cj.mu))
    cs;
  let phi = Array.make ep 0.0 and eps = Array.make w 0.0 in
  let live = Bands.col_intervals ~cols:ed d.Zonotope.eps_occ in
  Array.iteri
    (fun j (cj : Elementwise.coeffs) ->
      let lam = cj.lambda in
      if lam <> 0.0 then begin
        let r = (i * n) + j in
        for x = 0 to ep - 1 do
          Array.unsafe_set phi x
            (Array.unsafe_get phi x +. (lam *. Array.unsafe_get dphi ((r * ep) + x)))
        done;
        List.iter
          (fun (lo, hi) ->
            for x = lo to hi - 1 do
              Array.unsafe_set eps x
                (Array.unsafe_get eps x
                +. (lam *. Array.unsafe_get deps ((r * ed) + x)))
            done)
          live
      end;
      if fresh.(j) >= 0 then eps.(base + fresh.(j)) <- cj.beta)
    cs;
  (* linear_map's NaN -> inf scrub of the sum fires when the exp
     zonotope's φ or ε block classifies as [`Inf] (NaN taking
     precedence). It can only change a NaN sum, so the exp terms are
     classified only then. *)
  if Array.exists Float.is_nan phi || Array.exists Float.is_nan eps then begin
    let terms width src =
      Array.init (n * width) (fun v ->
          scaled cs.(v / width).Elementwise.lambda src.((i * n * width) + v))
    in
    let betas =
      List.filter_map
        (fun j -> if fresh.(j) >= 0 then Some cs.(j).Elementwise.beta else None)
        (List.init n Fun.id)
    in
    let class_of a = Mat.finite_class (Mat.row_vector a) in
    if
      class_of (terms ep dphi) = `Inf
      || class_of (Array.append (terms ed deps) (Array.of_list betas)) = `Inf
    then begin
      let scrub a = Array.iteri (fun x y -> if Float.is_nan y then a.(x) <- infinity) a in
      scrub phi;
      scrub eps
    end
  end;
  (* exp_'s occupancy: the row's bands (a full one sharpened by the pad
     to the current width) plus one band of the fresh symbols, then
     linear_map's block conversion to the single output row *)
  let row_occ = Bands.restrict_rows ~lo:(i * n) ~hi:((i + 1) * n) d.Zonotope.eps_occ in
  let row_occ = Zonotope.padded_occ row_occ ~n ~cur:ed ~w:w0 in
  let exp_occ =
    if Array.for_all (fun (cj : Elementwise.coeffs) -> Float.is_finite cj.lambda) cs
    then Bands.union row_occ (Zonotope.fresh_bands ~fresh ~base ~rows:1 ~per_row:n)
    else Bands.full
  in
  Zonotope.make ~p:d.Zonotope.p
    ~center:(Mat.make 1 1 (!c +. 0.0))
    ~phi:(Mat.of_array ~rows:1 ~cols:ep phi)
    ~eps:(Mat.of_array ~rows:1 ~cols:w eps)
  |> Zonotope.with_eps_occ (Bands.block_rows ~bin:n ~bout:1 exp_occ)

(* sigma_i = 1 / sum_j exp(nu_j - nu_i) for one score row (1 x n value). *)
let stable_row ctx row =
  (* The n^2-variable difference matrix makes softmax one of the heaviest
     transformers; poll the cooperative deadline once per score row. *)
  Zonotope.check_deadline ctx;
  let pool = Zonotope.ctx_pool ctx in
  let n = row.Zonotope.vcols in
  (* Difference matrix D(i,j) = nu_j - nu_i as a linear map of the n score
     variables viewed as an n x 1 value (a vector's transpose keeps the
     variable order, so a reshape suffices). *)
  let col = Zonotope.reshape_value row ~rows:n ~cols:1 in
  let m =
    Mat.init (n * n) n (fun v t ->
        let i = v / n and j = v mod n in
        (if t = j then 1.0 else 0.0) -. if t = i then 1.0 else 0.0)
  in
  let d =
    Zonotope.reshape_value (Zonotope.map_rows_affine ?pool col m) ~rows:n ~cols:n
  in
  let db = Zonotope.bounds ?pool d in
  (* Saturated outputs are emitted directly as [0, exp(-l_max)] — exact up
     to float resolution and immune to exponential overflow (the attention
     of trained networks saturates routinely in deep layers). *)
  let sat_bound i =
    let l_max = ref neg_infinity in
    for j = 0 to n - 1 do
      l_max := Float.max !l_max (Mat.get db.Interval.Imat.lo i j)
    done;
    if !l_max > saturation_margin then
      Some (Float.max (exp (-. !l_max)) 1e-300)
    else None
  in
  let boxed u =
    (* the interval [0, u] as an independent scalar zonotope: a single
       one-hot ε column, so its occupancy is one 1x1 band *)
    let base = Zonotope.alloc_eps ctx 1 in
    let eps = Mat.create 1 (base + 1) in
    Mat.set eps 0 base (0.5 *. u);
    Zonotope.make ~p:row.Zonotope.p
      ~center:(Mat.make 1 1 (0.5 *. u))
      ~phi:(Mat.create 1 (Zonotope.num_phi row))
      ~eps
    |> Zonotope.with_eps_occ
         (Bands.of_bands
            [ { Bands.col_lo = base; col_hi = base + 1; row_lo = 0; row_hi = 1 } ])
  in
  let outputs =
    List.init n (fun i ->
        match sat_bound i with
        | Some u -> boxed u
        | None -> (
            (* if the exponential or the reciprocal still overflows (a
               huge range that is not uniformly dominated), fall back to
               the universally valid sigma_i in [0, 1]; symbols exp
               minted before a failing reciprocal stay allocated *)
            try Elementwise.recip ctx (exp_sum ctx d db i)
            with Zonotope.Unbounded -> boxed 1.0))
  in
  (* Stack the n scalar outputs into a 1 x n row. *)
  Zonotope.reshape_value (Zonotope.of_rows outputs) ~rows:1 ~cols:n

(* sigma_i = exp(nu_i) * recip(sum_j exp(nu_j)) — the CROWN-style
   composition, for the ablation. *)
let direct_row ctx row =
  Zonotope.check_deadline ctx;
  let n = row.Zonotope.vcols in
  let e = Elementwise.exp_ ctx row in
  let s = Zonotope.linear_map e (Mat.make n 1 1.0) [| 0.0 |] in
  let r = Elementwise.recip ctx s in
  (* Broadcast the scalar reciprocal across the row. *)
  let r_bcast =
    Zonotope.transpose_value (Zonotope.map_rows_affine r (Mat.make n 1 1.0))
  in
  Dot.mul_zz ctx e r_bcast

let apply_row ~form ~refine ctx row =
  if row.Zonotope.vrows <> 1 then invalid_arg "Softmax_t.apply_row: need 1 x N";
  let out =
    match (form : Config.softmax_form) with
    | Config.Stable -> stable_row ctx row
    | Config.Direct -> direct_row ctx row
  in
  if refine then Refinement.softmax_sum out else out

let apply ~form ~refine ctx z =
  (* Rows must stay sequential: each one allocates fresh eps symbols from
     the shared ctx, so their symbol ids depend on the order. Parallelism
     lives inside a row (map_rows_affine / bounds over n^2 variables). *)
  let rows =
    List.init z.Zonotope.vrows (fun r ->
        apply_row ~form ~refine ctx (Zonotope.select_value_rows z r 1))
  in
  Zonotope.of_rows rows
