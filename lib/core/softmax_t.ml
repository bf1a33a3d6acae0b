open Tensor

(* A score position is saturated when some other position dominates it by
   more than this margin everywhere on the region: the softmax output is
   then provably below exp(-margin) and the exponential would overflow the
   float range if materialized. *)
let saturation_margin = 700.0

(* One score row nu of an [rows x n] score zonotope, read in place. The
   stable form works on its difference matrix D(i,j) = nu_j - nu_i,
   which is never stored. Its entries must equal, bit for bit, those of
   the product with the n^2 x n matrix whose row i*n + j is +1.0 at j
   and -1.0 at i (the reference in test_kernels.ml). The matmul kernels
   skip zero weights and sum ascending from +0.0, so for i <> j the
   entry of D(i,j) at any column x of the center, phi or eps is

     (0.0 +. (s1 *. x_t1)) +. (s2 *. x_t2)

   with t1 < t2 the positions {i, j} and s1, s2 their weights, and
   D(i,i) is +0.0 throughout. Everything below evaluates that
   expression wherever it needs an entry (DESIGN.md §17). *)
type scores = {
  z : Zonotope.t;
  v0 : int;  (* the row's first variable *)
  n : int;
  (* D's occupancy: the row's bands widened to all n^2 rows, as the
     product built it, and its live eps columns [live_lo.(k), live_hi.(k)) *)
  d_occ : Bands.t;
  live_lo : int array;
  live_hi : int array;
}

let scores z r ~occ =
  let n = z.Zonotope.vcols in
  let d_occ = Bands.widen_rows ~rows:(n * n) occ in
  let live = Array.of_list (Bands.col_intervals ~cols:(Zonotope.num_eps z) d_occ) in
  { z; v0 = r * n; n; d_occ; live_lo = Array.map fst live; live_hi = Array.map snd live }

(* Entry x of D(i,j) in the [w]-wide per-variable array [a] of the score
   zonotope (the center with w = 1, phi or eps). The loops below inline
   the same expression with t1, t2, s1, s2 and the row offsets hoisted
   out of the column loop. *)
let entry s (a : float array) ~w i j x =
  if i = j then 0.0
  else begin
    let t1 = Int.min i j and t2 = Int.max i j in
    let s1 = if t1 = j then 1.0 else -1.0 and s2 = if t2 = j then 1.0 else -1.0 in
    (0.0 +. (s1 *. a.(((s.v0 + t1) * w) + x))) +. (s2 *. a.(((s.v0 + t2) * w) + x))
  end

(* The bounds [Zonotope.bounds] gave the stored D, flat in i*n + j. Round
   to nearest is symmetric, so D(j,i) is -D(i,j) entry by entry, or both
   are +0.0: the two directions share every |entry|, hence the phi dual
   norm [a] and the eps l1 norm [b], which are computed once per
   unordered pair. Each direction keeps its own center. The l1 sum runs
   over D's live intervals only: a dead entry is +0.0 and adds nothing to
   the non-negative ascending sum, as in [Zonotope.eps_l1_row]. A NaN
   bound raises [Unbounded] before any symbol is minted. *)
let diff_bounds s =
  let z = s.z and n = s.n in
  let ep = Zonotope.num_phi z and ed = Zonotope.num_eps z in
  let c = z.Zonotope.center.Mat.data
  and phi = z.Zonotope.phi.Mat.data
  and eps = z.Zonotope.eps.Mat.data in
  (* D(i,i) = +0.0 has the bounds [+0.0, +0.0] *)
  let lo = Array.make (n * n) 0.0 and hi = Array.make (n * n) 0.0 in
  let drow = Mat.create 1 ep in
  let set v cv a b =
    let l = cv -. a -. b and h = cv +. a +. b in
    if Float.is_nan l || Float.is_nan h then raise Zonotope.Unbounded;
    lo.(v) <- l;
    hi.(v) <- h
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      (* D(i,j) with t1 = i < t2 = j; D(j,i) has the opposite weights *)
      let s1 = -1.0 and s2 = 1.0 in
      let p1 = (s.v0 + i) * ep and p2 = (s.v0 + j) * ep in
      for x = 0 to ep - 1 do
        Array.unsafe_set drow.Mat.data x
          ((0.0 +. (s1 *. Array.unsafe_get phi (p1 + x)))
          +. (s2 *. Array.unsafe_get phi (p2 + x)))
      done;
      let a = Zonotope.dual_row_norm z.Zonotope.p drow 0 in
      let e1 = (s.v0 + i) * ed and e2 = (s.v0 + j) * ed in
      let b = ref 0.0 in
      for k = 0 to Array.length s.live_lo - 1 do
        for x = s.live_lo.(k) to s.live_hi.(k) - 1 do
          b :=
            !b
            +. Float.abs
                 ((0.0 +. (s1 *. Array.unsafe_get eps (e1 + x)))
                 +. (s2 *. Array.unsafe_get eps (e2 + x)))
        done
      done;
      set ((i * n) + j) (entry s c ~w:1 i j 0) a !b;
      set ((j * n) + i) (entry s c ~w:1 j i 0) a !b
    done
  done;
  (lo, hi)

(* The 1 x 1 zonotope Σ_j exp(D_ij) of output [i], equal in every bit,
   occupancy and minted symbol to the chain
   [linear_map (Elementwise.exp_ ctx (row i of D)) ones [|0.0|]], but
   accumulated straight into the sum's coefficient row: neither the row
   nor its n x W exp zonotope is built.

   - exp's coefficients come from the bounds [lo]/[hi] of D (the row's
     own bounds are the same numbers), and [exp_coeffs] raises
     [Unbounded] before any symbol is minted;
   - the symbols are minted as exp_ mints them: one per positive beta,
     ascending in j, in one [alloc_eps] at the current width;
   - each coefficient is the +0.0-seeded ascending-j sum the ones-vector
     product computed ([1.0 *. y = y] for every arithmetic result), each
     D entry computed from its two source rows. A row with lambda = 0.0
     contributes literal +0.0 terms; a column dead in D and the diagonal
     D(i,i) contribute a finite lambda (exp_coeffs returns no other)
     times +0.0. All three are skipped: a +0.0-seeded sum is never -0.0,
     and adding ±0.0 to it changes no bit;
   - the sum gets linear_map's NaN -> inf scrub under the same
     condition. *)
let exp_sum ctx s lo hi i =
  Zonotope.check_deadline ctx;
  let z = s.z and n = s.n in
  let cs =
    Array.init n (fun j ->
        Elementwise.exp_coeffs ~l:lo.((i * n) + j) ~u:hi.((i * n) + j))
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
  let ep = Zonotope.num_phi z and ed = Zonotope.num_eps z in
  let zc = z.Zonotope.center.Mat.data
  and zphi = z.Zonotope.phi.Mat.data
  and zeps = z.Zonotope.eps.Mat.data in
  let scaled lam x = if lam = 0.0 then 0.0 else lam *. x in
  let c = ref 0.0 in
  Array.iteri
    (fun j (cj : Elementwise.coeffs) ->
      c := !c +. (scaled cj.lambda (entry s zc ~w:1 i j 0) +. cj.mu))
    cs;
  let phi = Array.make ep 0.0 and eps = Array.make w 0.0 in
  Array.iteri
    (fun j (cj : Elementwise.coeffs) ->
      let lam = cj.lambda in
      if lam <> 0.0 && j <> i then begin
        let t1 = Int.min i j and t2 = Int.max i j in
        let s1 = if t1 = j then 1.0 else -1.0 and s2 = if t2 = j then 1.0 else -1.0 in
        let p1 = (s.v0 + t1) * ep and p2 = (s.v0 + t2) * ep in
        for x = 0 to ep - 1 do
          Array.unsafe_set phi x
            (Array.unsafe_get phi x
            +. lam
               *. ((0.0 +. (s1 *. Array.unsafe_get zphi (p1 + x)))
                  +. (s2 *. Array.unsafe_get zphi (p2 + x))))
        done;
        let e1 = (s.v0 + t1) * ed and e2 = (s.v0 + t2) * ed in
        for k = 0 to Array.length s.live_lo - 1 do
          for x = s.live_lo.(k) to s.live_hi.(k) - 1 do
            Array.unsafe_set eps x
              (Array.unsafe_get eps x
              +. lam
                 *. ((0.0 +. (s1 *. Array.unsafe_get zeps (e1 + x)))
                    +. (s2 *. Array.unsafe_get zeps (e2 + x))))
          done
        done
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
          let j = v / width in
          scaled cs.(j).Elementwise.lambda (entry s src ~w:width i j (v mod width)))
    in
    let betas =
      List.filter_map
        (fun j -> if fresh.(j) >= 0 then Some cs.(j).Elementwise.beta else None)
        (List.init n Fun.id)
    in
    let class_of a = Mat.finite_class (Mat.row_vector a) in
    if
      class_of (terms ep zphi) = `Inf
      || class_of (Array.append (terms ed zeps) (Array.of_list betas)) = `Inf
    then begin
      let scrub a = Array.iteri (fun x y -> if Float.is_nan y then a.(x) <- infinity) a in
      scrub phi;
      scrub eps
    end
  end;
  (* exp_'s occupancy: the row's bands (a full one sharpened by the pad
     to the current width) plus one band of the fresh symbols, then
     linear_map's block conversion to the single output row *)
  let row_occ = Bands.restrict_rows ~lo:(i * n) ~hi:((i + 1) * n) s.d_occ in
  let row_occ = Zonotope.padded_occ row_occ ~n ~cur:ed ~w:w0 in
  let exp_occ =
    if Array.for_all (fun (cj : Elementwise.coeffs) -> Float.is_finite cj.lambda) cs
    then Bands.union row_occ (Zonotope.fresh_bands ~fresh ~base ~rows:1 ~per_row:n)
    else Bands.full
  in
  Zonotope.make ~p:z.Zonotope.p
    ~center:(Mat.make 1 1 (!c +. 0.0))
    ~phi:(Mat.of_array ~rows:1 ~cols:ep phi)
    ~eps:(Mat.of_array ~rows:1 ~cols:w eps)
  |> Zonotope.with_eps_occ (Bands.block_rows ~bin:n ~bout:1 exp_occ)

(* sigma_i = 1 / sum_j exp(nu_j - nu_i) for score row [r] of [z], whose
   occupancy is [occ]: the n scalar outputs, in order. *)
let stable_outputs ctx z r ~occ =
  (* The n^2 differences make softmax one of the heaviest transformers;
     poll the cooperative deadline once per score row. *)
  Zonotope.check_deadline ctx;
  let s = scores z r ~occ in
  let n = s.n in
  let lo, hi = diff_bounds s in
  (* Saturated outputs are emitted directly as [0, exp(-l_max)] — exact up
     to float resolution and immune to exponential overflow (the attention
     of trained networks saturates routinely in deep layers). *)
  let sat_bound i =
    let l_max = ref neg_infinity in
    for j = 0 to n - 1 do
      l_max := Float.max !l_max lo.((i * n) + j)
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
    Zonotope.make ~p:z.Zonotope.p
      ~center:(Mat.make 1 1 (0.5 *. u))
      ~phi:(Mat.create 1 (Zonotope.num_phi z))
      ~eps
    |> Zonotope.with_eps_occ
         (Bands.of_bands
            [ { Bands.col_lo = base; col_hi = base + 1; row_lo = 0; row_hi = 1 } ])
  in
  List.init n (fun i ->
      match sat_bound i with
      | Some u -> boxed u
      | None -> (
          (* if the exponential or the reciprocal still overflows (a
             huge range that is not uniformly dominated), fall back to
             the universally valid sigma_i in [0, 1]; symbols exp
             minted before a failing reciprocal stay allocated *)
          try Elementwise.recip ctx (exp_sum ctx s lo hi i)
          with Zonotope.Unbounded -> boxed 1.0))

(* The score rows' outputs, each row of n scalars stacked once into the
   result, where the refinement then rewrites it in place. *)
let stack ~refine groups =
  Zonotope.stack_rows
    ?refine:(if refine then Some Refinement.softmax_sum_in_place else None)
    groups

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
  match (form : Config.softmax_form) with
  | Config.Stable -> stack ~refine [ stable_outputs ctx row 0 ~occ:row.Zonotope.eps_occ ]
  | Config.Direct ->
      let out = direct_row ctx row in
      if refine then Refinement.softmax_sum out else out

let apply ~form ~refine ctx z =
  (* Rows must stay sequential: each one allocates fresh eps symbols from
     the shared ctx, so their symbol ids depend on the order. The stable
     form reads each row in place, with the occupancy a copy of the row
     would carry. *)
  let n = z.Zonotope.vcols in
  match (form : Config.softmax_form) with
  | Config.Stable ->
      stack ~refine
        (List.init z.Zonotope.vrows (fun r ->
             let occ =
               Bands.restrict_rows ~lo:(r * n) ~hi:((r + 1) * n) z.Zonotope.eps_occ
             in
             stable_outputs ctx z r ~occ))
  | Config.Direct ->
      Zonotope.of_rows
        (List.init z.Zonotope.vrows (fun r ->
             apply_row ~form ~refine ctx (Zonotope.select_value_rows z r 1)))
