(* The kernel layer: bit-identity of the blocked matmul kernels against
   the seed serial kernel, the determinism contract of Dpool, the pooled
   dot-product row blocks vs their serial run, the batched
   self-attention kernels (dot product, stable softmax, softmax-sum
   refinement, stacking) against their per-pair / per-output references,
   the partial top-k selection against the full-sort reference, and
   cooperative deadline preemption inside the transformers. Also
   reachable as `dune build @kernels`. *)

open Tensor
module Z = Deept.Zonotope
module Lp = Deept.Lp

(* Bitwise equality: tolerance-free, distinguishes -0.0 from +0.0 and
   treats NaN as equal to itself — exactly the "byte-identical results"
   contract the pool promises. *)
let bits_equal_mat msg (a : Mat.t) (b : Mat.t) =
  Helpers.check_true (msg ^ ": dims") (Mat.dims a = Mat.dims b);
  Array.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float b.Mat.data.(i) then
        Alcotest.failf "%s: element %d differs bitwise: %h vs %h" msg i x
          b.Mat.data.(i))
    a.Mat.data

(* --- matmul kernels --------------------------------------------------- *)

(* Naive and blocked must agree bit-for-bit on every shape, including
   degenerate ones (empty, single row/col) and shapes that are not
   multiples of the register tile or the column tile. *)
let matmul_shapes =
  [ (0, 3, 4); (3, 0, 4); (3, 4, 0); (1, 1, 1); (1, 7, 129); (5, 1, 1);
    (2, 4, 8); (7, 13, 121); (24, 24, 344); (9, 17, 240); (33, 5, 2) ]

let test_matmul_bit_identity () =
  let rng = Rng.create 31 in
  List.iter
    (fun (m, k, n) ->
      let a = Mat.random_gaussian rng m k 1.0 in
      let b = Mat.random_gaussian rng k n 1.0 in
      let label = Printf.sprintf "%dx%dx%d" m k n in
      let reference = Mat.matmul_naive a b in
      bits_equal_mat (label ^ " blocked") reference (Mat.matmul a b);
      let at = Mat.transpose a and bt = Mat.transpose b in
      bits_equal_mat (label ^ " ta") reference (Mat.matmul_ta at b);
      bits_equal_mat (label ^ " tb") reference (Mat.matmul_tb a bt);
      bits_equal_mat (label ^ " gemm tt") reference
        (Mat.gemm ~ta:true ~tb:true at bt))
    matmul_shapes

(* The naive kernel skips zero left-hand entries, so a zero weight
   annihilates even an infinite coefficient (instead of producing
   0 * inf = NaN). The blocked kernels must preserve that. *)
let test_matmul_zero_times_inf () =
  let a = Mat.of_rows [| [| 1.0; 0.0; -2.0 |] |] in
  let b =
    Mat.of_rows [| [| 1.0; 2.0 |]; [| infinity; neg_infinity |]; [| 3.0; 4.0 |] |]
  in
  let reference = Mat.matmul_naive a b in
  Helpers.check_true "reference is finite"
    (Array.for_all Float.is_finite reference.Mat.data);
  bits_equal_mat "0*inf blocked" reference (Mat.matmul a b);
  bits_equal_mat "0*inf ta" reference (Mat.matmul_ta (Mat.transpose a) b)

(* --- Dpool ------------------------------------------------------------ *)

let test_dpool_covers_each_chunk_once () =
  let pool = Dpool.create ~force:true 3 in
  Fun.protect ~finally:(fun () -> Dpool.shutdown pool) @@ fun () ->
  let n = 101 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  Dpool.run_chunks pool ~nchunks:n (fun c -> Atomic.incr hits.(c));
  Array.iteri
    (fun c a ->
      if Atomic.get a <> 1 then
        Alcotest.failf "chunk %d ran %d times" c (Atomic.get a))
    hits

exception Boom

let test_dpool_exception_propagates () =
  let pool = Dpool.create ~force:true 2 in
  Fun.protect ~finally:(fun () -> Dpool.shutdown pool) @@ fun () ->
  Alcotest.check_raises "chunk exception reaches the caller" Boom (fun () ->
      Dpool.run_chunks pool ~nchunks:64 (fun c ->
          if c = 17 then raise Boom));
  (* The pool must stay usable after a failed job. *)
  let total = Atomic.make 0 in
  Dpool.run_chunks pool ~nchunks:10 (fun _ -> Atomic.incr total);
  Helpers.check_true "pool alive after failure" (Atomic.get total = 10)

let test_dpool_nested_call_is_serial () =
  let pool = Dpool.create ~force:true 2 in
  Fun.protect ~finally:(fun () -> Dpool.shutdown pool) @@ fun () ->
  let inner_ran = Atomic.make 0 in
  Dpool.run_chunks pool ~nchunks:4 (fun _ ->
      (* Re-entrant dispatch from inside a chunk must degrade to serial
         execution instead of deadlocking on the pool's job slot. *)
      Dpool.run_chunks pool ~nchunks:3 (fun _ -> Atomic.incr inner_ran));
  Helpers.check_true "nested chunks all ran" (Atomic.get inner_ran = 12)

(* --- the row-slab table under racing domains ------------------------ *)

(* Chunks of a 2-domain pool query fresh occupancies at once, so both
   domains race to build and cache each one's row-slab table; every
   answer must be the list-building query's. *)
let test_bands_table_pooled () =
  let ref_row_intervals ~lo ~hi ~cols bs =
    List.rev
      (List.fold_left
         (fun acc (lo, hi) ->
           match acc with
           | (plo, phi) :: tl when lo <= phi -> (plo, max phi hi) :: tl
           | _ -> (lo, hi) :: acc)
         []
         (List.sort compare
            (List.filter_map
               (fun b ->
                 if b.Bands.row_lo < hi && lo < b.Bands.row_hi then
                   let clo = max 0 b.Bands.col_lo and chi = min cols b.Bands.col_hi in
                   if clo < chi then Some (clo, chi) else None
                 else None)
               bs)))
  in
  let rng = Rng.create 0x7ab in
  let pool = Dpool.create ~force:true 2 in
  Fun.protect ~finally:(fun () -> Dpool.shutdown pool) @@ fun () ->
  let failures = Atomic.make 0 in
  for trial = 1 to 200 do
    let d = 1 + Rng.int rng 6 in
    let bs =
      List.init (Rng.int rng 60) (fun _ ->
          let col_lo = Rng.int rng 60 in
          let i = Rng.int rng 8 and h = if Rng.int rng 4 = 0 then 8 else 1 in
          { Bands.col_lo; col_hi = col_lo + 1 + Rng.int rng 9; row_lo = i * d;
            row_hi = min (8 * d) ((i + h) * d) })
    in
    let t = Bands.of_bands bs in
    let bs = Bands.to_bands ~rows:max_int ~cols:max_int t in
    Dpool.run_chunks pool ~nchunks:8 (fun c ->
        let h = if c mod 2 = 0 then 1 else d in
        for i = 0 to (8 * d / h) + 1 do
          let lo = i * h and hi = (i + 1) * h in
          if Bands.row_intervals ~lo ~hi ~cols:50 t <> ref_row_intervals ~lo ~hi ~cols:50 bs
          then Atomic.incr failures
        done);
    if Atomic.get failures > 0 then
      Alcotest.failf "trial %d: %d pooled queries differ" trial (Atomic.get failures)
  done

(* --- the pooled dot product vs serial ---------------------------------- *)

let zonotope_fields_equal msg (a : Z.t) (b : Z.t) =
  bits_equal_mat (msg ^ ": center") a.Z.center b.Z.center;
  bits_equal_mat (msg ^ ": phi") a.Z.phi b.Z.phi;
  bits_equal_mat (msg ^ ": eps") a.Z.eps b.Z.eps;
  Helpers.check_true (msg ^ ": eps_occ") (a.Z.eps_occ = b.Z.eps_occ)

(* Dot.matmul_zz under a 2-domain pool must equal the serial run down to
   the bit, including the fresh-symbol allocation order in the ctx. *)
let test_matmul_zz_pool_matches_serial () =
  let pool = Dpool.create ~force:true 2 in
  Fun.protect ~finally:(fun () -> Dpool.shutdown pool) @@ fun () ->
  let mk rng =
    ( Helpers.random_zonotope ~vrows:6 ~vcols:5 ~ep:3 ~ee:7 rng,
      Helpers.random_zonotope ~vrows:5 ~vcols:4 ~ep:3 ~ee:7 rng )
  in
  let run pool_opt =
    let rng = Rng.create 0xd07 in
    let a, b = mk rng in
    let ctx = Z.ctx () in
    ignore (Z.alloc_eps ctx 7);
    Z.set_pool ctx pool_opt;
    let out = Deept.Dot.matmul_zz ctx a b in
    (out, Z.ctx_symbols ctx)
  in
  let serial, serial_syms = run None in
  let pooled, pooled_syms = run (Some pool) in
  Helpers.check_true "same symbol count" (serial_syms = pooled_syms);
  zonotope_fields_equal "matmul_zz" serial pooled

(* End-to-end determinism: a full certification with domains=4 must give
   the exact margin of the serial run (the CI determinism gate). *)
let test_certify_domains_deterministic () =
  let program = Helpers.tiny_program ~layers:2 41 in
  let rng = Rng.create 43 in
  let x = Mat.random_gaussian rng 3 (Ir.out_dim program 0) 0.7 in
  let pred = Nn.Forward.predict program x in
  let region = Deept.Region.lp_ball ~p:Lp.L2 x ~word:1 ~radius:0.02 in
  let margin cfg = Deept.Certify.certify_margin cfg program region ~true_class:pred in
  let m1 = margin Deept.Config.fast in
  let m4 = margin (Deept.Config.with_domains 4 Deept.Config.fast) in
  if Int64.bits_of_float m1 <> Int64.bits_of_float m4 then
    Alcotest.failf "domains=1 margin %h <> domains=4 margin %h" m1 m4;
  let p1 = margin Deept.Config.precise in
  let p4 = margin (Deept.Config.with_domains 4 Deept.Config.precise) in
  if Int64.bits_of_float p1 <> Int64.bits_of_float p4 then
    Alcotest.failf "precise: domains=1 %h <> domains=4 %h" p1 p4

(* --- batched attention kernels vs the per-pair / per-output references - *)

(* The per-pair [Dot.matmul_zz]: one [vec_mat] pass per output pair and
   the Eq. 5 cascade re-norming its operand blocks for every pair. Kept
   as the oracle of the blocked kernel. *)
let ref_matmul_zz ~precise ~order ctx (a : Z.t) (b : Z.t) =
  let a = Z.pad_eps a (Z.ctx_symbols ctx) and b = Z.pad_eps b (Z.ctx_symbols ctx) in
  let n = a.Z.vrows and k = a.Z.vcols and m = b.Z.vcols in
  let ep = Z.num_phi a and ee = Z.num_eps a and p = a.Z.p in
  let gather (g : Mat.t) j =
    let e = Mat.cols g in
    let out = Mat.create k e in
    for t = 0 to k - 1 do
      Array.blit g.Mat.data (((t * m) + j) * e) out.Mat.data (t * e) e
    done;
    out
  in
  let aphi = Array.init n (fun i -> Z.phi_block a (i * k) k) in
  let aeps = Array.init n (fun i -> Z.eps_block a (i * k) k) in
  let ca = Array.init n (fun i -> Mat.row a.Z.center i) in
  let bphi = Array.init m (gather b.Z.phi) and beps = Array.init m (gather b.Z.eps) in
  let cb = Array.init m (fun j -> Mat.col b.Z.center j) in
  let nv = n * m in
  let center = Mat.matmul a.Z.center b.Z.center in
  let phi = Mat.create nv ep and eps_aff = Mat.create nv ee in
  let rad = Array.make nv 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to m - 1 do
      let v = (i * m) + j in
      if ep > 0 then
        Array.blit
          (Vecops.add (Mat.vec_mat ca.(i) bphi.(j)) (Mat.vec_mat cb.(j) aphi.(i)))
          0 phi.Mat.data (v * ep) ep;
      if ee > 0 then
        Array.blit
          (Vecops.add (Mat.vec_mat ca.(i) beps.(j)) (Mat.vec_mat cb.(j) aeps.(i)))
          0 eps_aff.Mat.data (v * ee) ee;
      let q =
        Deept.Dot.quad_bounds ~precise ~order ~p ~a1:aphi.(i) ~b1:aeps.(i)
          ~a2:bphi.(j) ~b2:beps.(j)
      in
      let itv =
        Interval.Itv.add q.Deept.Dot.phi_phi
          (Interval.Itv.add q.Deept.Dot.phi_eps
             (Interval.Itv.add q.Deept.Dot.eps_phi q.Deept.Dot.eps_eps))
      in
      let c = Interval.Itv.center itv and r = 0.5 *. Interval.Itv.width itv in
      let mid, r = if Float.is_finite c then (c, r) else (0.0, infinity) in
      center.Mat.data.(v) <- center.Mat.data.(v) +. mid;
      rad.(v) <- r
    done
  done;
  let fresh = Array.make nv (-1) and n_new = ref 0 in
  Array.iteri
    (fun v r ->
      if r > 0.0 then begin
        fresh.(v) <- !n_new;
        incr n_new
      end)
    rad;
  let base = Z.alloc_eps ctx !n_new in
  let w = base + !n_new in
  let eps = Mat.create nv w in
  for v = 0 to nv - 1 do
    Array.blit eps_aff.Mat.data (v * ee) eps.Mat.data (v * w) ee;
    if fresh.(v) >= 0 then eps.Mat.data.((v * w) + base + fresh.(v)) <- rad.(v)
  done;
  let occ =
    if
      Mat.finite_class a.Z.center <> `Finite
      || Mat.finite_class b.Z.center <> `Finite
    then Bands.full
    else
      Bands.union
        (Bands.union
           (Bands.block_rows ~bin:k ~bout:m a.Z.eps_occ)
           (Bands.widen_rows ~rows:nv b.Z.eps_occ))
        (Z.fresh_bands ~fresh ~base ~rows:n ~per_row:m)
  in
  Z.make ~p ~center ~phi ~eps |> Z.with_eps_occ occ

(* Zero-pads the ε matrices of two zonotopes to a common width. *)
let align a b =
  let w = max (Z.num_eps a) (Z.num_eps b) in
  (Z.pad_eps a w, Z.pad_eps b w)

(* The pairwise concatenations the one-pass [of_rows] / [hcat_values]
   replaced, folded left. *)
let ref_vcat a b =
  let a, b = align a b in
  Z.with_eps_occ
    (Bands.union a.Z.eps_occ
       (Bands.shift_rows (a.Z.vrows * a.Z.vcols) b.Z.eps_occ))
    (Z.make ~p:a.Z.p
       ~center:(Mat.vcat a.Z.center b.Z.center)
       ~phi:(Mat.vcat a.Z.phi b.Z.phi) ~eps:(Mat.vcat a.Z.eps b.Z.eps))

let ref_hcat a b =
  let a, b = align a b in
  let vcols = a.Z.vcols + b.Z.vcols in
  let pick (ma : Mat.t) (mb : Mat.t) =
    let e = Mat.cols ma in
    let out = Mat.create (a.Z.vrows * vcols) e in
    for i = 0 to a.Z.vrows - 1 do
      Array.blit ma.Mat.data (i * a.Z.vcols * e) out.Mat.data (i * vcols * e)
        (a.Z.vcols * e);
      Array.blit mb.Mat.data (i * b.Z.vcols * e) out.Mat.data
        ((i * vcols * e) + (a.Z.vcols * e))
        (b.Z.vcols * e)
    done;
    out
  in
  Z.with_eps_occ
    (Bands.union
       (Bands.block_rows ~bin:a.Z.vcols ~bout:vcols a.Z.eps_occ)
       (Bands.block_rows ~bin:b.Z.vcols ~bout:vcols b.Z.eps_occ))
    (Z.make ~p:a.Z.p
       ~center:(Mat.hcat a.Z.center b.Z.center)
       ~phi:(pick a.Z.phi b.Z.phi) ~eps:(pick a.Z.eps b.Z.eps))

let ref_of_rows = function [] -> assert false | z :: rest -> List.fold_left ref_vcat z rest

(* The difference matrix D(i,j) = nu_j - nu_i of a 1 x n score row, built
   explicitly as the product with the n^2 x n +-1 matrix. *)
let ref_diff (row : Z.t) =
  let n = row.Z.vcols in
  let col = Z.transpose_value row in
  let m =
    Mat.init (n * n) n (fun v t ->
        let i = v / n and j = v mod n in
        (if t = j then 1.0 else 0.0) -. if t = i then 1.0 else 0.0)
  in
  Z.reshape_value (Z.map_rows_affine col m) ~rows:n ~cols:n

(* The per-output stable softmax row: for every output a copy of row i of
   the difference matrix, its n x W exp zonotope, a sum matmul and a
   recip, stacked by pairwise [vcat]. *)
let ref_stable_row ctx (row : Z.t) =
  Z.check_deadline ctx;
  let n = row.Z.vcols in
  let d = ref_diff row in
  let db = Z.bounds d in
  let sat_bound i =
    let l_max = ref neg_infinity in
    for j = 0 to n - 1 do
      l_max := Float.max !l_max (Mat.get db.Interval.Imat.lo i j)
    done;
    if !l_max > 700.0 then Some (Float.max (exp (-. !l_max)) 1e-300) else None
  in
  let boxed u =
    let base = Z.alloc_eps ctx 1 in
    let eps = Mat.create 1 (base + 1) in
    Mat.set eps 0 base (0.5 *. u);
    Z.make ~p:row.Z.p ~center:(Mat.make 1 1 (0.5 *. u))
      ~phi:(Mat.create 1 (Z.num_phi row)) ~eps
    |> Z.with_eps_occ
         (Bands.of_bands
            [ { Bands.col_lo = base; col_hi = base + 1; row_lo = 0; row_hi = 1 } ])
  in
  let outputs =
    List.init n (fun i ->
        match sat_bound i with
        | Some u -> boxed u
        | None -> (
            let di = Z.select_value_rows d i 1 in
            try
              let e = Deept.Elementwise.exp_ ctx di in
              let t = Z.linear_map e (Mat.make n 1 1.0) [| 0.0 |] in
              Deept.Elementwise.recip ctx t
            with Z.Unbounded -> boxed 1.0))
  in
  Z.transpose_value (ref_of_rows outputs)

let ref_softmax ~refine ctx (z : Z.t) =
  ref_of_rows
    (List.init z.Z.vrows (fun r ->
         let out = ref_stable_row ctx (Z.select_value_rows z r 1) in
         if refine then Deept.Refinement.softmax_sum out else out))

(* Bitwise like [bits_equal_mat], except that a NaN matches any NaN.
   Which operand's NaN an addition of two NaNs propagates depends on the
   instruction's operand order, which ocamlopt picks per loop: the
   per-pair reference's [Mat.vec_mat] keeps the product's NaN, the
   matmul kernels keep the accumulator's. No computation reads the sign
   or payload of a NaN. *)
let bits_or_nan_equal_mat msg (a : Mat.t) (b : Mat.t) =
  Helpers.check_true (msg ^ ": dims") (Mat.dims a = Mat.dims b);
  Array.iteri
    (fun i x ->
      let y = b.Mat.data.(i) in
      if
        not
          ((Float.is_nan x && Float.is_nan y)
          || Int64.bits_of_float x = Int64.bits_of_float y)
      then Alcotest.failf "%s: element %d differs bitwise: %h vs %h" msg i x y)
    a.Mat.data

let zonotope_bits_equal ?(nan_any = false) msg (a : Z.t) (b : Z.t) =
  Helpers.check_true (msg ^ ": value shape")
    (a.Z.vrows = b.Z.vrows && a.Z.vcols = b.Z.vcols && a.Z.p = b.Z.p);
  if nan_any then begin
    bits_or_nan_equal_mat (msg ^ ": center") a.Z.center b.Z.center;
    bits_or_nan_equal_mat (msg ^ ": phi") a.Z.phi b.Z.phi;
    bits_or_nan_equal_mat (msg ^ ": eps") a.Z.eps b.Z.eps;
    Helpers.check_true (msg ^ ": eps_occ") (a.Z.eps_occ = b.Z.eps_occ)
  end
  else zonotope_fields_equal msg a b

(* A random operand of [vrows x vcols] values over [ee] symbols:
   [dead] columns (and, per value row, a further random fifth, or all of
   them) are ±0.0 and, when [banded], outside a matching occupancy; live
   entries include -0.0, and [specials] scatters inf/-inf/NaN over live
   coefficients and centers. *)
let kernel_operand rng ~p ~vrows ~vcols ~ep ~ee ~dead ~banded ~specials =
  let nv = vrows * vcols in
  let center = Mat.random_gaussian rng vrows vcols 1.0 in
  let phi = Mat.random_gaussian rng nv ep 0.3 in
  let eps = Mat.random_gaussian rng nv ee 0.3 in
  let signed_zero () = if Rng.bool rng then 0.0 else -0.0 in
  (* now and then a whole value row is dead: its tiles are all skipped *)
  let live =
    Array.init vrows (fun _ ->
        let row_dead = Rng.float rng < 0.15 in
        Array.init ee (fun c -> (not row_dead) && (not dead.(c)) && Rng.float rng > 0.2))
  in
  for v = 0 to nv - 1 do
    for c = 0 to ee - 1 do
      if not live.(v / vcols).(c) then Mat.set eps v c (signed_zero ())
      else if Rng.float rng < 0.05 then Mat.set eps v c (-0.0)
    done;
    for c = 0 to ep - 1 do
      if Rng.float rng < 0.05 then Mat.set phi v c (-0.0)
    done
  done;
  if Rng.float rng < 0.1 then Mat.set center (Rng.int rng vrows) (Rng.int rng vcols) (-0.0);
  let special () = Rng.choose rng [| infinity; neg_infinity; nan |] in
  if specials then
    for _ = 1 to 1 + Rng.int rng 2 do
      match Rng.int rng 3 with
      | 0 -> Mat.set center (Rng.int rng vrows) (Rng.int rng vcols) (special ())
      | 1 when ep > 0 -> Mat.set phi (Rng.int rng nv) (Rng.int rng ep) (special ())
      | _ ->
          let v = Rng.int rng nv in
          let cols = List.filter (fun c -> live.(v / vcols).(c)) (List.init ee Fun.id) in
          if cols <> [] then
            Mat.set eps v (Rng.choose rng (Array.of_list cols)) (special ())
    done;
  let z = Z.make ~p ~center ~phi ~eps in
  if not banded then z
  else begin
    (* one band per run of live columns in each value row *)
    let bands = ref [] in
    Array.iteri
      (fun i row ->
        let c = ref 0 in
        while !c < ee do
          if row.(!c) then begin
            let lo = !c in
            while !c < ee && row.(!c) do incr c done;
            bands :=
              { Bands.col_lo = lo; col_hi = !c; row_lo = i * vcols;
                row_hi = (i + 1) * vcols }
              :: !bands
          end
          else incr c
        done)
      live;
    Z.with_eps_occ (Bands.of_bands !bands) z
  end

let same_outcome ?nan_any msg (ref_out, ref_syms) (out, syms) =
  Helpers.check_true (msg ^ ": symbol count") (ref_syms = syms);
  match (ref_out, out) with
  | Ok r, Ok o -> zonotope_bits_equal ?nan_any msg r o
  | Error r, Error o -> Helpers.check_true (msg ^ ": same exception") (r = o)
  | Ok _, Error e -> Alcotest.failf "%s: kernel raised %s" msg (Printexc.to_string e)
  | Error e, Ok _ ->
      Alcotest.failf "%s: reference raised %s, kernel did not" msg (Printexc.to_string e)

let outcome ~width f =
  let ctx = Z.ctx () in
  ignore (Z.alloc_eps ctx width);
  let r = try Ok (f ctx) with e -> Error e in
  (r, Z.ctx_symbols ctx)

let test_matmul_zz_matches_per_pair () =
  let pool = Dpool.create ~force:true 2 in
  Fun.protect ~finally:(fun () -> Dpool.shutdown pool) @@ fun () ->
  let rng = Rng.create 0x5eed in
  let trial = ref 0 in
  List.iter
    (fun p ->
      List.iter
        (fun order ->
          List.iter
            (fun precise ->
              for _ = 1 to 40 do
                incr trial;
                let n = 1 + Rng.int rng 9 and k = 1 + Rng.int rng 9 in
                let m = 1 + Rng.int rng 9 in
                let ep = Rng.choose rng [| 0; 3 |] in
                let ee = Rng.choose rng [| 0; 1; 7; 130 |] in
                let frac = Rng.choose rng [| 0.0; 0.3; 0.6; 0.95; 1.0 |] in
                let dead = Array.init ee (fun _ -> Rng.float rng < frac) in
                let banded = Rng.float rng < 0.7 in
                let specials = Rng.float rng < 0.4 in
                let a = kernel_operand rng ~p ~vrows:n ~vcols:k ~ep ~ee ~dead ~banded ~specials in
                (* [b] sometimes narrower: the kernel pads it to the ctx width *)
                let eb = if ee > 1 && Rng.bool rng then ee - 1 - Rng.int rng (ee - 1) else ee in
                let b =
                  kernel_operand rng ~p ~vrows:k ~vcols:m ~ep ~ee:eb
                    ~dead:(Array.sub dead 0 eb) ~banded ~specials
                in
                let width = ee + if Rng.float rng < 0.2 then 2 else 0 in
                let msg =
                  Printf.sprintf "trial %d %s %s precise=%b n=%d k=%d m=%d ep=%d ee=%d/%d"
                    !trial (Lp.to_string p)
                    (match order with Deept.Config.Linf_first -> "linf-first" | _ -> "lp-first")
                    precise n k m ep ee eb
                in
                let reference = outcome ~width (fun ctx -> ref_matmul_zz ~precise ~order ctx a b) in
                let serial =
                  outcome ~width (fun ctx -> Deept.Dot.matmul_zz ~precise ~order ctx a b)
                in
                same_outcome ~nan_any:true (msg ^ " serial") reference serial;
                (* the pool shares the kernels, so it matches to the NaN bit *)
                same_outcome (msg ^ " pool") serial
                  (outcome ~width (fun ctx ->
                       Z.set_pool ctx (Some pool);
                       Deept.Dot.matmul_zz ~precise ~order ctx a b))
              done)
            [ false; true ])
        [ Deept.Config.Linf_first; Deept.Config.Lp_first ])
    [ Lp.L1; Lp.L2; Lp.Linf ];
  (* An infinite norm of [a]'s φ rows against an all-dead ε block of [b],
     with every other term zero: the dense product is inf·0 = NaN (an
     unbounded remainder), which only the finite-norm gate keeps from
     being skipped to 0. *)
  List.iter
    (fun (order, p) ->
      let a =
        Z.make ~p ~center:(Mat.of_rows [| [| 1.0; 2.0 |] |])
          ~phi:(Mat.of_rows [| [| infinity; 0.5 |]; [| 0.25; 1.0 |] |])
          ~eps:(Mat.create 2 3)
        |> Z.with_eps_occ Bands.empty
      in
      let b =
        Z.make ~p ~center:(Mat.of_rows [| [| 1.0 |]; [| -1.0 |] |])
          ~phi:(Mat.create 2 2) ~eps:(Mat.create 2 3)
        |> Z.with_eps_occ Bands.empty
      in
      same_outcome ~nan_any:true
        ("infinite norm, dead operand " ^ Lp.to_string p)
        (outcome ~width:3 (fun ctx -> ref_matmul_zz ~precise:false ~order ctx a b))
        (outcome ~width:3 (fun ctx -> Deept.Dot.matmul_zz ~order ctx a b)))
    [ (Deept.Config.Lp_first, Lp.L1); (Deept.Config.Lp_first, Lp.L2) ]

(* A [rows] x n score zonotope over [ep] phi and [ee] eps symbols.
   [`Sat] puts one position of score row 0 1000 above the rest (every
   other output saturates), [`Exp_raise] gives one score an infinite
   coefficient (its difference rows are unbounded, so exp raises),
   [`Recip_raise] gives one score a coefficient of 800 (exp's upper bound
   overflows, its symbols are minted, then recip raises), [`Twin] makes
   two scores identical (their differences are +0.0 throughout), [`Neg_zero]
   sets every center of row 0 to -0.0 or +0.0, and [`Nan] puts a NaN in
   a live coefficient or center of row 0 (D's bounds are NaN: Unbounded
   before any symbol is minted). Also returns whether the case could be
   planted, and where (the raising cases need a live column, [`Twin]
   two scores). *)
let score_rows rng ~p ~rows ~n ~ep ~ee ~banded ~case =
  let dead = Array.init ee (fun _ -> Rng.float rng < 0.4) in
  let z =
    kernel_operand rng ~p ~vrows:rows ~vcols:n ~ep ~ee ~dead ~banded
      ~specials:false
  in
  let center = Mat.copy z.Z.center and phi = Mat.copy z.Z.phi in
  let eps = Mat.copy z.Z.eps in
  let j = Rng.int rng n in
  (* a column live in score [j], so the occupancy still covers it *)
  let set_live x =
    match List.filter (fun c -> Mat.get eps j c <> 0.0) (List.init ee Fun.id) with
    | [] -> None
    | cols ->
        Mat.set eps j (Rng.choose rng (Array.of_list cols)) x;
        Some (j, j)
  in
  let planted =
    match case with
    | `Plain -> None
    | `Sat ->
        Mat.set center 0 j 1000.0;
        Some (j, j)
    | `Exp_raise -> set_live infinity
    | `Recip_raise -> set_live 800.0
    | `Twin when n >= 2 ->
        let k = (j + 1 + Rng.int rng (n - 1)) mod n in
        Mat.set center 0 k (Mat.get center 0 j);
        Array.blit phi.Mat.data (j * ep) phi.Mat.data (k * ep) ep;
        Array.blit eps.Mat.data (j * ee) eps.Mat.data (k * ee) ee;
        Some (j, k)
    | `Twin -> None
    | `Neg_zero ->
        for t = 0 to n - 1 do
          Mat.set center 0 t (if Rng.float rng < 0.7 then -0.0 else 0.0)
        done;
        Some (j, j)
    | `Nan -> (
        match Rng.int rng 3 with
        | 0 when ep > 0 ->
            Mat.set phi j (Rng.int rng ep) nan;
            Some (j, j)
        | 1 -> set_live nan
        | _ ->
            Mat.set center 0 j nan;
            Some (j, j))
  in
  (Z.with_eps_occ z.Z.eps_occ (Z.make ~p:z.Z.p ~center ~phi ~eps), planted)

let case_name = function
  | `Plain -> "plain"
  | `Sat -> "saturated"
  | `Exp_raise -> "exp raises"
  | `Recip_raise -> "recip raises"
  | `Twin -> "twin scores"
  | `Neg_zero -> "-0.0 centers"
  | `Nan -> "NaN"

let test_softmax_matches_per_output () =
  let rng = Rng.create 0x50f7 in
  List.iter
    (fun p ->
      List.iter
        (fun n ->
          List.iter
            (fun case ->
              (* every phi width x eps width, over 1..3 score rows *)
              for t = 0 to 5 do
                let ep = [| 0; 3 |].(t mod 2) and ee = [| 0; 12; 130 |].(t mod 3) in
                let rows = 1 + Rng.int rng 3 and banded = Rng.bool rng in
                let z, planted = score_rows rng ~p ~rows ~n ~ep ~ee ~banded ~case in
                let base_msg =
                  Printf.sprintf "%s n=%d %s ep=%d ee=%d rows=%d banded=%b"
                    (Lp.to_string p) n (case_name case) ep ee rows banded
                in
                (* two identical scores: D is +0.0 between them both ways,
                   so its bounds there are [+0.0, +0.0] *)
                (match (case, planted) with
                | `Twin, Some (j, k) ->
                    let db = Z.bounds (ref_diff (Z.select_value_rows z 0 1)) in
                    List.iter
                      (fun (a, b) ->
                        List.iter
                          (fun (m : Mat.t) ->
                            Helpers.check_true (base_msg ^ ": twin bound +0.0")
                              (Int64.bits_of_float (Mat.get m a b) = 0L))
                          [ db.Interval.Imat.lo; db.Interval.Imat.hi ])
                      [ (j, k); (k, j) ]
                | _ -> ());
                List.iter
                  (fun refine ->
                    let msg = Printf.sprintf "%s refine=%b" base_msg refine in
                    let width = Z.num_eps z in
                    let got =
                      outcome ~width (fun ctx ->
                          Deept.Softmax_t.apply ~form:Deept.Config.Stable ~refine ctx z)
                    in
                    same_outcome msg
                      (outcome ~width (fun ctx -> ref_softmax ~refine ctx z))
                      got;
                    match (case, got) with
                    (* the raising cases reach their fallback: every output
                       of score row 0 is the [0, 1] box, and a failing recip
                       comes after at least one exp symbol per output *)
                    | (`Exp_raise | `Recip_raise), (Ok out, syms)
                      when planted <> None && n >= 2 && not refine ->
                        for i = 0 to n - 1 do
                          Helpers.check_true (msg ^ ": boxed")
                            (Mat.get out.Z.center 0 i = 0.5)
                        done;
                        if case = `Recip_raise then
                          Helpers.check_true (msg ^ ": exp symbols kept")
                            (syms - width >= 2 * n)
                    | `Nan, _ when planted <> None && n >= 2 ->
                        Helpers.check_true (msg ^ ": Unbounded, no symbol minted")
                          (got = (Error Z.Unbounded, width))
                    | _ -> ())
                  [ false; true ]
              done)
            [ `Plain; `Sat; `Exp_raise; `Recip_raise; `Twin; `Neg_zero; `Nan ])
        [ 1; 2; 5; 9; 14 ])
    [ Lp.L1; Lp.L2; Lp.Linf ]

(* The two-branch scan [Mat.finite_class] ran before its branch-free
   first pass. *)
let ref_finite_class (m : Mat.t) =
  let n = Array.length m.Mat.data in
  let has_inf = ref false and has_nan = ref false in
  let i = ref 0 in
  while (not !has_nan) && !i < n do
    let x = Array.unsafe_get m.Mat.data !i in
    if Float.is_nan x then has_nan := true
    else if not (Float.is_finite x) then has_inf := true;
    incr i
  done;
  if !has_nan then `Nan else if !has_inf then `Inf else `Finite

let test_finite_class_matches_scan () =
  let rng = Rng.create 0xf1a5 in
  let class_name = function `Finite -> "finite" | `Inf -> "inf" | `Nan -> "nan" in
  let check msg (m : Mat.t) =
    let expected = ref_finite_class m and got = Mat.finite_class m in
    if expected <> got then
      Alcotest.failf "%s: %s, two-branch scan says %s" msg (class_name got)
        (class_name expected)
  in
  (* lengths 0..9, then 4k + r around the unrolled loop's tail *)
  let lengths =
    List.init 10 Fun.id
    @ List.concat_map (fun k -> List.init 4 (fun r -> (4 * k) + r)) [ 4; 25 ]
  in
  List.iter
    (fun len ->
      (* finite entries of every kind, including signed zeros and the
         extremes whose difference is still exactly 0.0 *)
      let finite () =
        match Rng.int rng 6 with
        | 0 -> 0.0
        | 1 -> -0.0
        | 2 -> Float.max_float
        | 3 -> -.Float.min_float
        | _ -> Rng.gaussian_scaled rng ~mean:0.0 ~std:1e3
      in
      let base = Array.init len (fun _ -> finite ()) in
      let shape a =
        if len mod 2 = 0 && len > 0 then Mat.of_array ~rows:2 ~cols:(len / 2) a
        else Mat.of_array ~rows:1 ~cols:len a
      in
      check (Printf.sprintf "len %d finite" len) (shape (Array.copy base));
      for at = 0 to len - 1 do
        List.iter
          (fun x ->
            let a = Array.copy base in
            a.(at) <- x;
            check (Printf.sprintf "len %d %h at %d" len x at) (shape a))
          [ infinity; neg_infinity; nan ]
      done;
      (* inf and NaN together, in both orders *)
      for at = 0 to len - 1 do
        for bt = 0 to len - 1 do
          if at <> bt && (len < 20 || Rng.float rng < 0.05) then begin
            let a = Array.copy base in
            a.(at) <- (if Rng.bool rng then infinity else neg_infinity);
            a.(bt) <- nan;
            check (Printf.sprintf "len %d inf at %d, NaN at %d" len at bt) (shape a)
          end
        done
      done)
    lengths

(* The parent's breakpoint search, with its boxed-tuple list sorted by
   [Array.sort]: the oracle of the allocation-free version, on inputs
   with many tied breakpoints. *)
let ref_minimize_abs_sum ~r ~s ~allowed =
  let eval t =
    let acc = ref 0.0 in
    Array.iteri (fun i ri -> acc := !acc +. Float.abs (ri +. (s.(i) *. t))) r;
    !acc
  in
  let bps = ref [] in
  for i = 0 to Array.length r - 1 do
    if s.(i) <> 0.0 then bps := (-.r.(i) /. s.(i), Float.abs s.(i), allowed.(i)) :: !bps
  done;
  let bps = Array.of_list !bps in
  if Array.length bps = 0 then 0.0
  else begin
    Array.sort (fun (a, _, _) (b, _, _) -> compare a b) bps;
    let total = Array.fold_left (fun acc (_, w, _) -> acc +. w) 0.0 bps in
    let median = ref (Array.length bps - 1) in
    let acc = ref 0.0 in
    (try
       Array.iteri
         (fun i (_, w, _) ->
           acc := !acc +. w;
           if !acc >= 0.5 *. total then begin
             median := i;
             raise Exit
           end)
         bps
     with Exit -> ());
    let t_of i = let t, _, _ = bps.(i) in t in
    let ok i = let _, _, a = bps.(i) in a in
    if ok !median then t_of !median
    else begin
      let left = ref (!median - 1) in
      while !left >= 0 && not (ok !left) do decr left done;
      let right = ref (!median + 1) in
      while !right < Array.length bps && not (ok !right) do incr right done;
      match (!left >= 0, !right < Array.length bps) with
      | false, false -> 0.0
      | true, false -> t_of !left
      | false, true -> t_of !right
      | true, true ->
          if eval (t_of !left) <= eval (t_of !right) then t_of !left else t_of !right
    end
  end

let test_minimize_abs_sum_matches_reference () =
  let rng = Rng.create 0xab5 in
  for trial = 1 to 2000 do
    let n = Rng.int rng 40 in
    (* small integer grids make equal breakpoints (and NaN ones) common *)
    let pick () =
      match Rng.int rng 12 with
      | 0 -> 0.0
      | 1 -> -0.0
      | 2 -> nan
      | _ -> float_of_int (Rng.int rng 7 - 3)
    in
    let r = Array.init n (fun _ -> pick ()) and s = Array.init n (fun _ -> pick ()) in
    let allowed = Array.init n (fun _ -> Rng.float rng < 0.6) in
    let expected = ref_minimize_abs_sum ~r ~s ~allowed in
    let got = Deept.Refinement.minimize_abs_sum ~r ~s ~allowed in
    if Int64.bits_of_float expected <> Int64.bits_of_float got then
      Alcotest.failf "trial %d (n=%d): %h vs reference %h" trial n got expected
  done

(* The breakpoint sort against [Array.sort] by [Float.compare] of the
   keys, from random start orders, on keys drawn from small grids (many
   ties) with ±0.0, ±inf and NaN mixed in, and on long arrays. *)
let test_sort_by_key_matches_array_sort () =
  let rng = Rng.create 0x50e7 in
  for trial = 1 to 20_000 do
    let n = if trial mod 100 = 0 then 700 + Rng.int rng 100 else Rng.int rng 60 in
    let k =
      Array.init n (fun _ ->
          match Rng.int rng 14 with
          | 0 -> 0.0
          | 1 -> -0.0
          | 2 -> nan
          | 3 -> infinity
          | 4 -> neg_infinity
          | 5 -> Rng.gaussian rng
          | _ -> float_of_int (Rng.int rng 9 - 4))
    in
    let start = Array.init n Fun.id in
    if Rng.bool rng then
      for i = n - 1 downto 1 do
        let j = Rng.int rng (i + 1) in
        let t = start.(i) in
        start.(i) <- start.(j);
        start.(j) <- t
      done;
    let expected = Array.copy start and got = Array.copy start in
    Array.sort (fun i j -> Float.compare k.(i) k.(j)) expected;
    Deept.Refinement.sort_by_key k got;
    if expected <> got then Alcotest.failf "trial %d (n=%d): permutations differ" trial n
  done

(* The insertion of [by] zero columns at [at] that [linear_join ~own]
   replaced: ε columns [at ..] move right, the occupancy follows
   ([Bands.insert_gap]). *)
let ref_insert_eps_gap (z : Z.t) ~at ~by =
  if by = 0 then z
  else begin
    let n = Z.num_vars z and e = Z.num_eps z in
    let w = e + by in
    let eps = Mat.create n w in
    for v = 0 to n - 1 do
      Array.blit z.Z.eps.Mat.data (v * e) eps.Mat.data (v * w) at;
      Array.blit z.Z.eps.Mat.data ((v * e) + at) eps.Mat.data ((v * w) + at + by) (e - at)
    done;
    Z.with_eps_occ
      (Bands.insert_gap ~rows:n ~cols:e ~at ~by z.Z.eps_occ)
      (Z.make ~p:z.Z.p ~center:z.Z.center ~phi:z.Z.phi ~eps)
  end

(* Heads in their own symbol spaces from [w0] shared symbols, joined by
   [linear_join ~own:w0], against the join of the heads with the earlier
   heads' symbol counts inserted at [w0]: finite and infinite weights,
   banded and full occupancies, special coefficients, heads that mint
   nothing. *)
let test_linear_join_own_matches_gap () =
  let rng = Rng.create 0x901 in
  for trial = 1 to 300 do
    let nheads = 1 + Rng.int rng 4 and vrows = 1 + Rng.int rng 4 in
    let w0 = Rng.choose rng [| 0; 3; 40; 130 |] and ep = Rng.choose rng [| 0; 2 |] in
    let specials = Rng.float rng < 0.15 in
    let heads =
      List.init nheads (fun _ ->
          let ee = w0 + Rng.choose rng [| 0; 1; 7; 30; 125 |] in
          kernel_operand rng ~p:Lp.L2 ~vrows ~vcols:(1 + Rng.int rng 4) ~ep ~ee
            ~dead:(Array.init ee (fun _ -> Rng.float rng < 0.3))
            ~banded:(Rng.float rng < 0.8) ~specials)
    in
    let cols_in = List.fold_left (fun acc z -> acc + z.Z.vcols) 0 heads in
    let vout = 1 + Rng.int rng 6 in
    let w = Mat.random_gaussian rng cols_in vout 1.0 in
    for _ = 1 to Rng.int rng 3 do
      Mat.set w (Rng.int rng cols_in) (Rng.int rng vout) 0.0
    done;
    if Rng.float rng < 0.1 then
      Mat.set w (Rng.int rng cols_in) (Rng.int rng vout) (Rng.choose rng [| infinity; nan |]);
    let b = Array.init vout (fun _ -> Rng.gaussian rng) in
    let _, gapped =
      List.fold_left_map
        (fun minted z -> (minted + Z.num_eps z - w0, ref_insert_eps_gap z ~at:w0 ~by:minted))
        0 heads
    in
    zonotope_bits_equal
      (Printf.sprintf "trial %d heads=%d w0=%d" trial nheads w0)
      (Z.linear_join gapped w b) (Z.linear_join ~own:w0 heads w b)
  done

(* [scale_fresh] of a dot product's fresh result against [scale] of the
   same product: every factor kind, and the result lives in the
   product's own matrices. *)
let test_scale_fresh_matches_scale () =
  let rng = Rng.create 0x5ca1 in
  for trial = 1 to 100 do
    let n = 1 + Rng.int rng 4 and k = 1 + Rng.int rng 4 and m = 1 + Rng.int rng 4 in
    let ee = Rng.choose rng [| 0; 5; 60 |] in
    let operand rows cols =
      kernel_operand rng ~p:Lp.L2 ~vrows:rows ~vcols:cols ~ep:2 ~ee
        ~dead:(Array.init ee (fun _ -> Rng.float rng < 0.3))
        ~banded:(Rng.float rng < 0.8) ~specials:false
    in
    let a = operand n k and bt = operand m k in
    let product () =
      let ctx = Z.ctx () in
      ignore (Z.alloc_eps ctx ee);
      Deept.Dot.matmul_zz ctx a (Z.transpose_value bt)
    in
    let s =
      Rng.choose rng [| 0.5; -0.35355339059327373; 0.0; -0.0; infinity; nan; 3.0 |]
    in
    let fresh = product () in
    let got = Z.scale_fresh s fresh in
    zonotope_bits_equal ~nan_any:true
      (Printf.sprintf "trial %d s=%h" trial s)
      (Z.scale s (product ())) got;
    Helpers.check_true "scaled in place"
      (got.Z.center == fresh.Z.center && got.Z.phi == fresh.Z.phi
     && got.Z.eps == fresh.Z.eps)
  done

(* An elementwise transformer on an operand narrower than the ctx,
   against the same transformer on the operand [pad_eps]-padded to the
   ctx width: slopes of both signs (so the padding's scaled zeros carry
   both signs), banded and full occupancies, and the raising cases. *)
let test_elementwise_narrow_matches_padded () =
  let rng = Rng.create 0xe1e in
  let rules =
    [|
      ("relu", Deept.Elementwise.relu);
      ("tanh", Deept.Elementwise.tanh_);
      ("exp", Deept.Elementwise.exp_);
      ("recip", fun ctx z -> Deept.Elementwise.recip ctx z);
    |]
  in
  for trial = 1 to 200 do
    let vrows = 1 + Rng.int rng 3 and vcols = 1 + Rng.int rng 4 in
    let cur = Rng.choose rng [| 0; 3; 50 |] and extra = Rng.choose rng [| 0; 1; 20 |] in
    let z =
      kernel_operand rng ~p:Lp.Linf ~vrows ~vcols ~ep:1 ~ee:cur
        ~dead:(Array.init cur (fun _ -> Rng.float rng < 0.3))
        ~banded:(Rng.float rng < 0.7) ~specials:false
    in
    let name, rule = Rng.choose rng rules in
    let z =
      if name = "recip" then Z.add_const z (Mat.make vrows vcols (20.0 +. Rng.float rng))
      else z
    in
    let run z =
      let ctx = Z.ctx () in
      ignore (Z.alloc_eps ctx (cur + extra));
      match rule ctx z with r -> Ok (r, Z.ctx_symbols ctx) | exception e -> Error e
    in
    let msg = Printf.sprintf "trial %d %s cur=%d extra=%d" trial name cur extra in
    match (run (Z.pad_eps z (cur + extra)), run z) with
    | Ok (r, wr), Ok (g, wg) ->
        Helpers.check_true (msg ^ ": symbols") (wr = wg);
        zonotope_bits_equal msg r g
    | Error a, Error b -> Helpers.check_true (msg ^ ": same exception") (a = b)
    | _ -> Alcotest.failf "%s: one side raised" msg
  done

(* [of_rows] against the pairwise fold, the projection of values side
   by side ([linear_join], which replaced the one-pass [hcat_values])
   against [linear_map] of the pairwise concatenation, and [add] against
   [Mat.add] of the [align]-padded operands, on operands of different
   widths with full and banded occupancy and -0.0 entries. *)
let test_stack_and_add_match_padded () =
  let rng = Rng.create 0x57ac in
  for trial = 1 to 60 do
    let msg = Printf.sprintf "trial %d" trial in
    let parts = 1 + Rng.int rng 5 and vrows = 1 + Rng.int rng 3 in
    let vcols = 1 + Rng.int rng 3 in
    let operand () =
      let ee = Rng.int rng 9 in
      kernel_operand rng ~p:Lp.L2 ~vrows ~vcols ~ep:2 ~ee
        ~dead:(Array.init ee (fun _ -> Rng.float rng < 0.3))
        ~banded:(Rng.bool rng) ~specials:false
    in
    let zs = List.init parts (fun _ -> operand ()) in
    let check name r o = zonotope_bits_equal (msg ^ " " ^ name) r o in
    check "of_rows" (ref_of_rows zs) (Z.of_rows zs);
    let cols_in = List.fold_left (fun acc z -> acc + z.Z.vcols) 0 zs in
    let w = Mat.random_gaussian rng cols_in 3 1.0 and b = [| 0.5; -1.0; 0.0 |] in
    check "hcat + linear_map"
      (Z.linear_map
         (match zs with [] -> assert false | z :: rest -> List.fold_left ref_hcat z rest)
         w b)
      (Z.linear_join zs w b);
    let a = operand () and b = operand () in
    let pa, pb = align a b in
    let padded =
      Z.with_eps_occ
        (Bands.union pa.Z.eps_occ pb.Z.eps_occ)
        (Z.make ~p:pa.Z.p
           ~center:(Mat.add pa.Z.center pb.Z.center)
           ~phi:(Mat.add pa.Z.phi pb.Z.phi) ~eps:(Mat.add pa.Z.eps pb.Z.eps))
    in
    check "add" padded (Z.add a b)
  done

(* --- one-pass affine and residual transfers ------------------------------ *)

(* The per-value-row map [linear_map] ran before the in-place kernel:
   each block copied out with [sub_rows], mapped into a fresh matrix by
   [matmul_ta] and blitted back. *)
let ref_map_coeff_blocks ?occ vrows vcols_in vcols_out (w : Mat.t) (g : Mat.t) =
  let e = Mat.cols g in
  let out = Mat.create (vrows * vcols_out) e in
  if e > 0 then begin
    let cols_for =
      match occ with
      | Some o when (not (Bands.is_full o)) && Mat.finite_class w = `Finite ->
          fun i ->
            Some
              (Bands.row_intervals ~lo:(i * vcols_in) ~hi:((i + 1) * vcols_in) ~cols:e o)
      | _ -> fun _ -> None
    in
    for i = 0 to vrows - 1 do
      let block = Mat.sub_rows g (i * vcols_in) vcols_in in
      let mapped = Mat.matmul_ta ?cols:(cols_for i) w block in
      Array.blit mapped.Mat.data 0 out.Mat.data (i * vcols_out * e) (vcols_out * e)
    done
  end;
  out

let scrub_nan (m : Mat.t) =
  Array.iteri (fun i x -> if Float.is_nan x then m.Mat.data.(i) <- infinity) m.Mat.data

let ref_linear_map (z : Z.t) w b =
  let vcols = Mat.cols w in
  let phi = ref_map_coeff_blocks z.Z.vrows z.Z.vcols vcols w z.Z.phi in
  let eps = ref_map_coeff_blocks ~occ:z.Z.eps_occ z.Z.vrows z.Z.vcols vcols w z.Z.eps in
  if Mat.finite_class z.Z.phi = `Inf || Mat.finite_class z.Z.eps = `Inf then begin
    scrub_nan phi;
    scrub_nan eps
  end;
  Z.with_eps_occ
    (if Mat.finite_class w = `Finite then
       Bands.block_rows ~bin:z.Z.vcols ~bout:vcols z.Z.eps_occ
     else Bands.full)
    (Z.make ~p:z.Z.p
       ~center:(Mat.add_row_broadcast (Mat.matmul z.Z.center w) b)
       ~phi ~eps)

(* The column-by-column centering loop [center_rows] ran before the
   row-major one: every live column walked down its value row twice
   with stride e. *)
let ref_center_rows (z : Z.t) ~gamma ~beta =
  let d = z.Z.vcols in
  let fd = float_of_int d in
  let center =
    let means = Mat.row_means z.Z.center in
    Mat.mapi (fun i j v -> (gamma.(j) *. (v -. means.(i))) +. beta.(j)) z.Z.center
  in
  let gamma_finite = Array.for_all Float.is_finite gamma in
  let coeff ?occ (m : Mat.t) =
    let e = Mat.cols m in
    let out = Mat.create (Mat.rows m) e in
    if e > 0 then
      for i = 0 to z.Z.vrows - 1 do
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
  Z.with_eps_occ
    (if gamma_finite then Bands.block_rows ~bin:d ~bout:d z.Z.eps_occ else Bands.full)
    (Z.make ~p:z.Z.p ~center ~phi:(coeff z.Z.phi) ~eps:(coeff ~occ:z.Z.eps_occ z.Z.eps))

(* [Mat.matmul_ta_acc] against its contract written out: every listed
   output column continues its stored running sum over the ascending
   k terms (zero weights skipped), the rest of [out] is untouched. Row
   blocks at offsets, [b] narrower than [out], aligned and unaligned
   interval starts, an empty interval list (a value row with nothing
   live), -0.0 entries and stored sums. *)
let test_matmul_ta_acc_contract () =
  let rng = Rng.create 0xacc in
  for trial = 1 to 200 do
    let k = 1 + Rng.int rng 9 and m = 1 + Rng.int rng 9 in
    let nb = Rng.choose rng [| 1; 3; 4; 7; 120; 121; 250 |] in
    let nout = nb + Rng.choose rng [| 0; 0; 1; 5 |] in
    let brows = k + Rng.int rng 6 and orows = m + Rng.int rng 6 in
    let b_row = Rng.int rng (brows - k + 1) and out_row = Rng.int rng (orows - m + 1) in
    let a = Mat.random_gaussian rng k m 1.0 in
    for _ = 1 to Rng.int rng (k * m) do
      Mat.set a (Rng.int rng k) (Rng.int rng m) 0.0
    done;
    let b = Mat.random_gaussian rng brows nb 1.0 in
    for _ = 1 to Rng.int rng 8 do
      Mat.set b (Rng.int rng brows) (Rng.int rng nb) (-0.0)
    done;
    let out = Mat.random_gaussian rng orows nout 1.0 in
    if Rng.bool rng then Mat.fill out 0.0;
    let cols =
      match Rng.int rng 5 with
      | 0 -> None
      | 1 -> Some []
      | 2 -> Some [ (0, min nb 120) ]
      | 3 -> Some [ (min nb 3, min nb 9); (min nb 121, min nb 130) ]
      | _ -> Some [ (min nb 1, min nb 2); (min nb 4, nb) ]
    in
    let expected = Mat.copy out in
    let live j =
      match cols with
      | None -> true
      | Some ivs -> List.exists (fun (lo, hi) -> lo <= j && j < hi) ivs
    in
    for r = 0 to m - 1 do
      for j = 0 to nb - 1 do
        if live j then begin
          let s = ref (Mat.get expected (out_row + r) j) in
          for p = 0 to k - 1 do
            let x = Mat.get a p r in
            if x <> 0.0 then s := !s +. (x *. Mat.get b (b_row + p) j)
          done;
          Mat.set expected (out_row + r) j !s
        end
      done
    done;
    Mat.matmul_ta_acc ?cols a b ~b_row out ~out_row;
    bits_equal_mat (Printf.sprintf "trial %d k=%d m=%d nb=%d nout=%d" trial k m nb nout)
      expected out
  done

(* [linear_map] (in place, no per-row copy) against [ref_linear_map], on
   banded and full operands with dead value rows (no live interval),
   unaligned live runs, φ and ε widths 0, zero and infinite weights and
   poisoned coefficients. *)
let test_linear_map_in_place () =
  let rng = Rng.create 0x11a9 in
  for trial = 1 to 150 do
    let vrows = 1 + Rng.int rng 9 and vin = 1 + Rng.int rng 7 in
    let vout = 1 + Rng.int rng 7 in
    let ep = Rng.choose rng [| 0; 3 |] and ee = Rng.choose rng [| 0; 1; 7; 130; 263 |] in
    let dead = Array.init ee (fun _ -> Rng.float rng < 0.5) in
    let specials = Rng.float rng < 0.3 in
    let z =
      kernel_operand rng ~p:Lp.L2 ~vrows ~vcols:vin ~ep ~ee ~dead
        ~banded:(Rng.float rng < 0.8) ~specials
    in
    let w = Mat.random_gaussian rng vin vout 1.0 in
    for _ = 1 to Rng.int rng 4 do
      Mat.set w (Rng.int rng vin) (Rng.int rng vout) 0.0
    done;
    if Rng.float rng < 0.15 then
      Mat.set w (Rng.int rng vin) (Rng.int rng vout) (Rng.choose rng [| infinity; neg_infinity |]);
    let b = Array.init vout (fun _ -> Rng.gaussian rng) in
    zonotope_bits_equal
      (Printf.sprintf "trial %d vrows=%d %d->%d ep=%d ee=%d" trial vrows vin vout ep ee)
      (ref_linear_map z w b) (Z.linear_map z w b)
  done

(* [add_center_rows a b] against [center_rows (add a b)], and
   [center_rows] (row by row) against the column-walk reference: ε
   widths ea < eb, ea > eb and ea = eb, -0.0 in live and dead columns,
   banded and full occupancy, non-finite γ, infinite and NaN
   coefficients. *)
let test_add_center_one_pass () =
  let rng = Rng.create 0xadd1 in
  for trial = 1 to 200 do
    let vrows = 1 + Rng.int rng 5 and d = 1 + Rng.int rng 6 in
    let ep = Rng.choose rng [| 0; 2 |] in
    let ea = Rng.choose rng [| 0; 1; 9; 140; 300 |] in
    let eb =
      match trial mod 3 with
      | 0 -> ea
      | 1 -> ea + 1 + Rng.int rng 40
      | _ -> if ea > 0 then Rng.int rng ea else 0
    in
    let specials = Rng.float rng < 0.2 in
    let operand ee =
      kernel_operand rng ~p:Lp.Linf ~vrows ~vcols:d ~ep ~ee
        ~dead:(Array.init ee (fun _ -> Rng.float rng < 0.4))
        ~banded:(Rng.float rng < 0.75) ~specials
    in
    let a = operand ea and b = operand eb in
    let gamma = Array.init d (fun _ -> Rng.gaussian rng) in
    if Rng.float rng < 0.1 then
      gamma.(Rng.int rng d) <- Rng.choose rng [| infinity; nan; 0.0 |];
    let beta = Array.init d (fun _ -> Rng.gaussian rng) in
    let msg = Printf.sprintf "trial %d vrows=%d d=%d ea=%d eb=%d" trial vrows d ea eb in
    zonotope_bits_equal ~nan_any:specials (msg ^ " center_rows")
      (ref_center_rows a ~gamma ~beta) (Z.center_rows a ~gamma ~beta);
    let two_pass = Z.center_rows (Z.add a b) ~gamma ~beta in
    zonotope_bits_equal ~nan_any:specials (msg ^ " two-pass reference")
      (ref_center_rows (Z.add a b) ~gamma ~beta) two_pass;
    zonotope_bits_equal (msg ^ " add_center_rows") two_pass
      (Z.add_center_rows a b ~gamma ~beta)
  done

(* The output projection accumulated head by head ([linear_join])
   against [linear_map] of the heads concatenated by the pairwise fold:
   heads of different ε widths and value widths, banded and full, with
   poisoned coefficients, and a [wo] with zero and infinite entries
   (whose dense NaN over the padded columns must survive). *)
let test_linear_join_matches_hcat () =
  let rng = Rng.create 0x4ead in
  for trial = 1 to 120 do
    let heads = 2 + Rng.int rng 3 and vrows = 1 + Rng.int rng 5 in
    let ep = Rng.choose rng [| 0; 3 |] in
    let specials = Rng.float rng < 0.2 in
    let zs =
      List.init heads (fun _ ->
          let ee = Rng.choose rng [| 0; 1; 8; 130; 200 |] in
          kernel_operand rng ~p:Lp.L1 ~vrows ~vcols:(1 + Rng.int rng 4) ~ep ~ee
            ~dead:(Array.init ee (fun _ -> Rng.float rng < 0.4))
            ~banded:(Rng.float rng < 0.75) ~specials)
    in
    let cols_in = List.fold_left (fun acc z -> acc + z.Z.vcols) 0 zs in
    let d = 1 + Rng.int rng 6 in
    let wo = Mat.random_gaussian rng cols_in d 1.0 in
    for _ = 1 to Rng.int rng 4 do
      Mat.set wo (Rng.int rng cols_in) (Rng.int rng d) 0.0
    done;
    if trial mod 4 = 0 then
      Mat.set wo (Rng.int rng cols_in) (Rng.int rng d) (Rng.choose rng [| infinity; neg_infinity |]);
    let bo = Array.init d (fun _ -> Rng.gaussian rng) in
    let hcat = match zs with [] -> assert false | z :: rest -> List.fold_left ref_hcat z rest in
    zonotope_bits_equal
      (Printf.sprintf "trial %d heads=%d widths %s" trial heads
         (String.concat "," (List.map (fun z -> string_of_int (Z.num_eps z)) zs)))
      (Z.linear_map hcat wo bo) (Z.linear_join zs wo bo)
  done

(* The one Q/K/V map ([linear_split]) against three [linear_map]s, each
   cut into heads by [select_value_cols]: every slice and its occupancy,
   with an infinite entry in one of the weights now and then (only that
   map's slices go full). *)
let test_linear_split_matches_maps () =
  let rng = Rng.create 0x9cf in
  for trial = 1 to 100 do
    let heads = 1 + Rng.int rng 3 and d = 1 + Rng.int rng 6 in
    let dk = 1 + Rng.int rng 3 and dv = 1 + Rng.int rng 3 in
    let ee = Rng.choose rng [| 0; 5; 130 |] in
    let x =
      kernel_operand rng ~p:Lp.L2 ~vrows:(1 + Rng.int rng 5) ~vcols:d
        ~ep:(Rng.choose rng [| 0; 2 |]) ~ee
        ~dead:(Array.init ee (fun _ -> Rng.float rng < 0.4))
        ~banded:(Rng.float rng < 0.8) ~specials:(Rng.float rng < 0.2)
    in
    let weight cols =
      let w = Mat.random_gaussian rng d cols 1.0 in
      if Rng.float rng < 0.1 then Mat.set w (Rng.int rng d) (Rng.int rng cols) infinity;
      (w, Array.init cols (fun _ -> Rng.gaussian rng))
    in
    let maps = [ weight (heads * dk); weight (heads * dk); weight (heads * dv) ] in
    let split = Z.linear_split x maps ~parts:heads in
    Helpers.check_true "three maps" (List.length split = 3);
    List.iteri
      (fun i ((w, b), parts) ->
        let full = Z.linear_map x w b in
        let di = Mat.cols w / heads in
        Array.iteri
          (fun h part ->
            zonotope_bits_equal
              (Printf.sprintf "trial %d map %d head %d" trial i h)
              (Z.select_value_cols full (h * di) di)
              part)
          parts)
      (List.combine maps split)
  done

(* --- head-local attention vs one shared counter --------------------------- *)

(* The head loop [Attention_t.apply] replaced: every head on the one
   symbol counter, so head h pads its operands to the symbols heads
   0..h-1 minted. *)
let ref_attention ~(cfg : Deept.Config.t) ~precise ctx (att : Ir.attention) x =
  let qs, ks, vs =
    match
      Z.linear_split x
        [ (att.Ir.wq, att.Ir.bq); (att.Ir.wk, att.Ir.bk); (att.Ir.wv, att.Ir.bv) ]
        ~parts:att.Ir.heads
    with
    | [ qs; ks; vs ] -> (qs, ks, vs)
    | _ -> assert false
  in
  let scale = 1.0 /. sqrt (float_of_int (Mat.cols att.Ir.wq / att.Ir.heads)) in
  let order = cfg.Deept.Config.order in
  let heads =
    List.init att.Ir.heads (fun h ->
        let scores =
          Z.scale scale
            (Deept.Dot.matmul_zz ~precise ~order ctx qs.(h) (Z.transpose_value ks.(h)))
        in
        let p =
          Deept.Softmax_t.apply ~form:cfg.Deept.Config.softmax
            ~refine:cfg.Deept.Config.refine_softmax_sum ctx scores
        in
        Deept.Dot.matmul_zz ~precise ~order ctx p vs.(h))
  in
  Z.linear_join heads att.Ir.wo att.Ir.bo

(* Runs [program] on [region] op by op with the zonotope transformers
   Propagate dispatches to, reducing each layer input as it does, and
   hands every attention op's input to [at_attention ~width ~precise att
   x] ([width]: the symbol count there). Its result, a value and the
   symbol count after it, continues the run; [None] ends it, as does the
   last attention op. *)
let walk_layers (cfg : Deept.Config.t) program region at_attention =
  let ctx = Z.ctx () in
  ignore (Z.alloc_eps ctx (Z.num_eps region));
  let vals = Array.make (Ir.num_values program) region in
  let layers = Ir.depth_of_kind program "self_attention" in
  let layer = ref 0 and stopped = ref false in
  let ops = program.Ir.ops in
  let i = ref 0 in
  while !layer < layers && not !stopped do
    let get v = vals.(v) in
    vals.(!i + 1) <-
      (match ops.(!i) with
      | Ir.Linear { src; w; b } -> Z.linear_map (get src) w b
      | Ir.Relu src -> Deept.Elementwise.relu ctx (get src)
      | Ir.Tanh src -> Deept.Elementwise.tanh_ ctx (get src)
      | Ir.Add (a, b) -> Z.add (get a) (get b)
      | Ir.Center_norm { src; gamma; beta; divide_std } ->
          if divide_std then Deept.Std_norm.apply ctx (get src) ~gamma ~beta
          else Z.center_rows (get src) ~gamma ~beta
      | Ir.Self_attention { src; att } ->
          if cfg.Deept.Config.reduction_k > 0 then
            vals.(src) <-
              Deept.Reduction.decorrelate_min_k ctx (get src) cfg.Deept.Config.reduction_k;
          let precise =
            Deept.Propagate.use_precise cfg ~layer:!layer ~total:layers
          in
          incr layer;
          (match at_attention ~width:(Z.ctx_symbols ctx) ~precise att (get src) with
          | Some (out, width) ->
              Z.reset_symbols ctx width;
              out
          | None ->
              stopped := true;
              get src)
      | Ir.Pool_first src -> Z.pool_first (get src)
      | Ir.Positional { src; pos } -> Z.positional (get src) pos);
    incr i
  done

(* [f] on a fresh ctx that has allocated [width] symbols: its result or
   exception, and the symbol count after it. *)
let on_ctx ~width f =
  let ctx = Z.ctx () in
  ignore (Z.alloc_eps ctx width);
  let r = try Ok (f ctx) with e -> Error e in
  (r, Z.ctx_symbols ctx)

(* What Propagate makes of an attention op's outcome: the abort an
   exception becomes, the poison abort of a non-finite output, or
   [None] when the run goes on. *)
let verdict_of = function
  | Error Z.Unbounded -> Some Deept.Verdict.Unbounded
  | Error (Deept.Verdict.Abort r) -> Some r
  | Error e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e)
  | Ok (z : Z.t) ->
      if
        List.for_all
          (fun m -> Mat.finite_class m = `Finite)
          [ z.Z.center; z.Z.phi; z.Z.eps ]
      then None
      else Some Deept.Verdict.Numerical_fault

(* Head-local attention equals the shared-counter loop bit for bit: every
   center, phi and eps entry, the occupancy, and the counter after the
   op, on every layer input of 4-9 token sentences (sst_3 even lengths,
   sst_6 odd) in each norm, under Fast and Precise, Stable and Direct
   softmax, with the layer input's own bands and with a full occupancy
   (each model meets all eight combinations). Where the op raises, both
   must raise the same exception; the counter is then left in the
   raising head's space, by contract. Each layer input is run once more
   with an infinite center entry: there the reference writes inf * 0 =
   NaN into other heads' columns, which head-local never forms, so only
   the outcome must agree (the same exception, or the same verdict
   Propagate draws from the output). *)
let test_head_local_attention () =
  let compared = ref 0 in
  List.iter
    (fun (name, lengths) ->
      if Sys.file_exists (Printf.sprintf "../data/%s.model" name) then begin
        Zoo.data_dir := "../data";
        let entry = Zoo.entry name in
        let model = Zoo.load_or_train ~log:(fun _ -> ()) name in
        let program = Nn.Model.to_ir model in
        let test = (Zoo.corpus_of entry.Zoo.corpus).Text.Corpus.test in
        List.iteri
          (fun li len ->
            let toks, _ = List.find (fun (t, _) -> Array.length t = len) test in
            let x = Nn.Model.embed_tokens model toks in
            List.iteri
              (fun pi (p, radius) ->
                let k = (3 * li) + pi in
                let variant = if k land 1 = 0 then Deept.Config.Fast else Deept.Config.Precise in
                let softmax = if k land 2 = 0 then Deept.Config.Stable else Deept.Config.Direct in
                let full = k land 4 <> 0 in
                let cfg = { Deept.Config.fast with Deept.Config.variant; softmax } in
                let region = Deept.Region.lp_ball ~p x ~word:(len / 2) ~radius in
                let label layer =
                  Printf.sprintf "%s len %d %s layer %d %s %s %s" name len
                    (Lp.to_string p) layer
                    (if variant = Deept.Config.Fast then "fast" else "precise")
                    (if softmax = Deept.Config.Stable then "stable" else "direct")
                    (if full then "full" else "banded")
                in
                let layer = ref 0 in
                walk_layers cfg program region (fun ~width ~precise att x ->
                    let msg = label !layer in
                    incr layer;
                    let x = if full then Z.with_eps_occ Bands.full x else x in
                    let run f x = on_ctx ~width (fun ctx -> f ~cfg ~precise ctx att x) in
                    let r, r_syms = run ref_attention x in
                    let o, o_syms = run Deept.Attention_t.apply x in
                    (match (r, o) with
                    | Ok r, Ok o ->
                        incr compared;
                        bits_equal_mat (msg ^ ": center") r.Z.center o.Z.center;
                        bits_equal_mat (msg ^ ": phi") r.Z.phi o.Z.phi;
                        bits_equal_mat (msg ^ ": eps") r.Z.eps o.Z.eps;
                        let bands (z : Z.t) =
                          Bands.to_bands ~rows:(Z.num_vars z) ~cols:(Z.num_eps z) z.Z.eps_occ
                        in
                        Helpers.check_true (msg ^ ": eps_occ") (bands r = bands o);
                        Helpers.check_true (msg ^ ": symbol count") (r_syms = o_syms)
                    | Error r, Error o -> Helpers.check_true (msg ^ ": same exception") (r = o)
                    | _ -> Alcotest.failf "%s: only one of the two raised" msg);
                    let bad = { x with Z.center = Mat.copy x.Z.center } in
                    Mat.set bad.Z.center 0 0 infinity;
                    let r_bad, _ = run ref_attention bad
                    and o_bad, _ = run Deept.Attention_t.apply bad in
                    Helpers.check_true (msg ^ ": infinite center, same outcome")
                      (verdict_of r_bad = verdict_of o_bad);
                    match o with
                    | Ok o when verdict_of (Ok o) = None -> Some (o, o_syms)
                    | _ -> None))
              [ (Lp.L1, 0.05); (Lp.L2, 0.05); (Lp.Linf, 0.01) ])
          lengths
      end)
    [ ("sst_3", [ 4; 6; 8 ]); ("sst_6", [ 5; 7; 9 ]) ];
  if Sys.file_exists "../data/sst_3.model" then
    Helpers.check_true "some layers compared" (!compared > 0)

(* --- partial top-k selection ------------------------------------------ *)

(* Reference: the full sort the heap selection replaced. *)
let top_k_sorted s k =
  let w = Array.length s in
  let order = Array.init w (fun j -> j) in
  Array.sort
    (fun a b -> match compare s.(b) s.(a) with 0 -> compare a b | c -> c)
    order;
  let keep = Array.sub order 0 (min k w) in
  Array.sort compare keep;
  keep

let test_top_k_matches_sort () =
  let rng = Rng.create 77 in
  for trial = 1 to 300 do
    let w = 1 + Rng.int rng 60 in
    let k = Rng.int rng (w + 3) in
    (* Draw from a small discrete set so ties are common — tie-breaking
       towards the smaller index is the part a heap gets wrong easily. *)
    let s = Array.init w (fun _ -> float_of_int (Rng.int rng 5)) in
    let expected = top_k_sorted s k in
    let got = Deept.Reduction.top_k_indices s k in
    if expected <> got then
      Alcotest.failf "trial %d (w=%d k=%d): heap selection differs from sort"
        trial w k
  done;
  Helpers.check_true "k=0 empty" (Deept.Reduction.top_k_indices [| 1.0 |] 0 = [||]);
  Helpers.check_true "k>=w identity"
    (Deept.Reduction.top_k_indices [| 3.0; 1.0 |] 5 = [| 0; 1 |])

(* decorrelate_min_k is deterministic and built on the selection above, so
   equality of the keep set implies equality of the reduction; still check
   the reduced bounds enclose the exact ones (soundness of the fold). *)
let test_decorrelate_bounds_unchanged () =
  let rng = Rng.create 91 in
  let z = Helpers.random_zonotope ~vrows:4 ~vcols:6 ~ep:3 ~ee:40 rng in
  let s = Deept.Reduction.scores z in
  Helpers.check_true "keep set matches sorted reference"
    (top_k_sorted s 8 = Deept.Reduction.top_k_indices s 8);
  let reduce () =
    let ctx = Z.ctx () in
    ignore (Z.alloc_eps ctx 40);
    Deept.Reduction.decorrelate_min_k ctx z 8
  in
  let r1 = reduce () and r2 = reduce () in
  zonotope_fields_equal "decorrelate deterministic" r1 r2;
  let exact = Z.bounds z and reduced = Z.bounds r1 in
  for v = 0 to Z.num_vars z - 1 do
    Helpers.check_true "reduced lo <= exact lo"
      (reduced.Interval.Imat.lo.Mat.data.(v)
       <= exact.Interval.Imat.lo.Mat.data.(v) +. 1e-12);
    Helpers.check_true "reduced hi >= exact hi"
      (reduced.Interval.Imat.hi.Mat.data.(v)
       >= exact.Interval.Imat.hi.Mat.data.(v) -. 1e-12)
  done

(* --- cooperative deadline polls inside the transformers ---------------- *)

let expired ctx = Z.set_deadline ctx (Some (Unix.gettimeofday () -. 1.0))

let test_softmax_preempted () =
  let rng = Rng.create 12 in
  let z = Helpers.random_zonotope ~vrows:4 ~vcols:4 ~ep:2 ~ee:3 ~scale:0.1 rng in
  (* sanity: same op completes with no deadline armed *)
  let ctx = Z.ctx () in
  ignore (Z.alloc_eps ctx 3);
  ignore (Deept.Softmax_t.apply ~form:Deept.Config.Stable ~refine:false ctx z);
  let ctx = Z.ctx () in
  ignore (Z.alloc_eps ctx 3);
  expired ctx;
  Alcotest.check_raises "softmax preempted mid-op"
    (Deept.Verdict.Abort Deept.Verdict.Timeout) (fun () ->
      ignore (Deept.Softmax_t.apply ~form:Deept.Config.Stable ~refine:false ctx z))

let test_elementwise_preempted () =
  let rng = Rng.create 13 in
  let z = Helpers.random_zonotope ~vrows:5 ~vcols:5 ~ep:2 ~ee:3 rng in
  let ctx = Z.ctx () in
  ignore (Z.alloc_eps ctx 3);
  ignore (Deept.Elementwise.relu ctx z);
  let ctx = Z.ctx () in
  ignore (Z.alloc_eps ctx 3);
  expired ctx;
  Alcotest.check_raises "elementwise preempted mid-op"
    (Deept.Verdict.Abort Deept.Verdict.Timeout) (fun () ->
      ignore (Deept.Elementwise.relu ctx z))

let () =
  Alcotest.run "kernels"
    [
      ( "matmul",
        [
          Alcotest.test_case "bit identity all kernels" `Quick
            test_matmul_bit_identity;
          Alcotest.test_case "zero annihilates inf" `Quick
            test_matmul_zero_times_inf;
          Alcotest.test_case "finite_class = two-branch scan" `Quick
            test_finite_class_matches_scan;
        ] );
      ( "dpool",
        [
          Alcotest.test_case "each chunk exactly once" `Quick
            test_dpool_covers_each_chunk_once;
          Alcotest.test_case "exception propagates" `Quick
            test_dpool_exception_propagates;
          Alcotest.test_case "nested call serial" `Quick
            test_dpool_nested_call_is_serial;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "matmul_zz pool = serial" `Quick
            test_matmul_zz_pool_matches_serial;
          Alcotest.test_case "certify domains 1 = 4" `Slow
            test_certify_domains_deterministic;
          Alcotest.test_case "bands row table pooled = reference" `Quick
            test_bands_table_pooled;
        ] );
      ( "attention kernels",
          [
            Alcotest.test_case "matmul_zz = per-pair reference" `Quick
              test_matmul_zz_matches_per_pair;
            Alcotest.test_case "stable softmax = per-output reference" `Quick
              test_softmax_matches_per_output;
            Alcotest.test_case "minimize_abs_sum = list reference" `Quick
              test_minimize_abs_sum_matches_reference;
            Alcotest.test_case "breakpoint sort = Array.sort" `Quick
              test_sort_by_key_matches_array_sort;
            Alcotest.test_case "stack, hcat, add = padded folds" `Quick
              test_stack_and_add_match_padded;
            Alcotest.test_case "head-local attention = shared counter" `Quick
              test_head_local_attention;
          ] );
      ( "one pass",
        [
          Alcotest.test_case "matmul_ta_acc contract" `Quick
            test_matmul_ta_acc_contract;
          Alcotest.test_case "linear_map in place = per-row copies" `Quick
            test_linear_map_in_place;
          Alcotest.test_case "add_center_rows = center_rows (add)" `Quick
            test_add_center_one_pass;
          Alcotest.test_case "linear_join = linear_map (hcat)" `Quick
            test_linear_join_matches_hcat;
          Alcotest.test_case "linear_split = three maps" `Quick
            test_linear_split_matches_maps;
          Alcotest.test_case "linear_join ~own = gap + linear_join" `Quick
            test_linear_join_own_matches_gap;
          Alcotest.test_case "scale_fresh = scale (product)" `Quick
            test_scale_fresh_matches_scale;
          Alcotest.test_case "elementwise narrow = pad_eps + apply" `Quick
            test_elementwise_narrow_matches_padded;
        ] );
      ( "top-k",
        [
          Alcotest.test_case "heap matches sort" `Quick test_top_k_matches_sort;
          Alcotest.test_case "decorrelate bounds" `Quick
            test_decorrelate_bounds_unchanged;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "softmax preempted" `Quick test_softmax_preempted;
          Alcotest.test_case "elementwise preempted" `Quick
            test_elementwise_preempted;
        ] );
    ]
