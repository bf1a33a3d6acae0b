(* Sparsity-aware zonotope kernels: the Bands occupancy algebra, the
   tile-skipping matmul kernels' bit-identity contract, dead-symbol
   compaction (standalone and through decorrelate / branch refinement)
   and the report oracles: child processes running the exact same
   queries under DEEPT_NO_SPARSE=1 and under MAT_NAIVE=1 must each
   print a bit-identical report. Also reachable as
   `dune build @sparse`. *)

open Tensor
module C = Deept.Config
module V = Deept.Verdict
module Z = Deept.Zonotope
module Lp = Deept.Lp

let check_true = Helpers.check_true

let bits_equal_mats msg (a : Mat.t) (b : Mat.t) =
  check_true (msg ^ ": dims") (Mat.dims a = Mat.dims b);
  Array.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float b.Mat.data.(i) then
        Alcotest.failf "%s: element %d differs bitwise: %h vs %h" msg i x
          b.Mat.data.(i))
    a.Mat.data

let band ~cols:(col_lo, col_hi) ~rows:(row_lo, row_hi) =
  { Bands.col_lo; col_hi; row_lo; row_hi }

(* ---------------- Bands algebra ---------------- *)

let test_bands_normalize () =
  check_true "full is full" (Bands.is_full Bands.full);
  check_true "empty is empty" (Bands.is_empty Bands.empty);
  check_true "full never empty" (not (Bands.is_empty Bands.full));
  (* degenerate rectangles are dropped *)
  check_true "degenerate drops to empty"
    (Bands.is_empty
       (Bands.of_bands
          [ band ~cols:(3, 3) ~rows:(0, 5); band ~cols:(2, 4) ~rows:(7, 7) ]));
  (* same-row touching columns merge into one rectangle *)
  let merged =
    Bands.of_bands [ band ~cols:(0, 2) ~rows:(0, 4); band ~cols:(2, 5) ~rows:(0, 4) ]
  in
  (match Bands.to_bands ~rows:4 ~cols:5 merged with
  | [ b ] ->
      check_true "merged covers both"
        (b.Bands.col_lo = 0 && b.Bands.col_hi = 5 && b.Bands.row_lo = 0
        && b.Bands.row_hi = 4)
  | l -> Alcotest.failf "expected 1 merged band, got %d" (List.length l));
  (* containment collapses *)
  let contained =
    Bands.of_bands [ band ~cols:(0, 6) ~rows:(0, 6); band ~cols:(2, 3) ~rows:(1, 2) ]
  in
  check_true "contained band absorbed"
    (List.length (Bands.to_bands ~rows:6 ~cols:6 contained) = 1);
  (* to_bands concretizes full and clips to the shape *)
  (match Bands.to_bands ~rows:3 ~cols:7 Bands.full with
  | [ b ] ->
      check_true "full concretizes to the dense band"
        (b.Bands.col_lo = 0 && b.Bands.col_hi = 7 && b.Bands.row_lo = 0
        && b.Bands.row_hi = 3)
  | _ -> Alcotest.fail "full should concretize to one band");
  check_true "zero shape concretizes to nothing"
    (Bands.to_bands ~rows:0 ~cols:7 Bands.full = [])

let test_bands_queries () =
  let t =
    Bands.of_bands [ band ~cols:(1, 3) ~rows:(0, 2); band ~cols:(6, 8) ~rows:(1, 4) ]
  in
  check_true "col_intervals are the live columns"
    (Bands.col_intervals ~cols:10 t = [ (1, 3); (6, 8) ]);
  check_true "col_intervals clip to the width"
    (Bands.col_intervals ~cols:7 t = [ (1, 3); (6, 7) ]);
  check_true "row_intervals keep only bands meeting the rows"
    (Bands.row_intervals ~lo:0 ~hi:1 ~cols:10 t = [ (1, 3) ]);
  check_true "row_intervals see both when rows overlap both"
    (Bands.row_intervals ~lo:1 ~hi:2 ~cols:10 t = [ (1, 3); (6, 8) ]);
  check_true "full yields the dense interval"
    (Bands.col_intervals ~cols:10 Bands.full = [ (0, 10) ]);
  check_true "mem inside" (Bands.mem t ~row:1 ~col:2);
  check_true "mem outside col" (not (Bands.mem t ~row:1 ~col:4));
  check_true "mem outside row" (not (Bands.mem t ~row:3 ~col:2));
  let dead = Bands.dead_cols ~cols:10 t in
  check_true "dead_cols marks exactly the uncovered columns"
    (dead = [| true; false; false; true; true; true; false; false; true; true |]);
  (* area counts overlaps once *)
  let overlapping =
    Bands.of_bands [ band ~cols:(0, 4) ~rows:(0, 3); band ~cols:(2, 6) ~rows:(1, 5) ]
  in
  (* rows 0: cols 0-4 (4); rows 1-2: cols 0-6 (12); rows 3-4: cols 2-6 (8) *)
  Alcotest.(check int) "area" 24 (Bands.area ~rows:5 ~cols:6 overlapping);
  Helpers.check_float "density" (24.0 /. 30.0)
    (Bands.density ~rows:5 ~cols:6 overlapping);
  Helpers.check_float "full density" 1.0 (Bands.density ~rows:5 ~cols:6 Bands.full);
  Alcotest.(check int) "empty area" 0 (Bands.area ~rows:5 ~cols:6 Bands.empty)

let test_bands_transforms () =
  let t = Bands.of_bands [ band ~cols:(2, 5) ~rows:(1, 3) ] in
  check_true "shift_rows translates"
    (Bands.row_intervals ~lo:11 ~hi:12 ~cols:9 (Bands.shift_rows 10 t) = [ (2, 5) ]);
  check_true "restrict_rows rebases"
    (Bands.row_intervals ~lo:0 ~hi:1 ~cols:9 (Bands.restrict_rows ~lo:2 ~hi:3 t)
    = [ (2, 5) ]);
  check_true "restrict_rows outside is empty"
    (Bands.is_empty (Bands.restrict_rows ~lo:5 ~hi:9 t));
  check_true "widen_rows covers all rows"
    (Bands.row_intervals ~lo:99 ~hi:100 ~cols:9 (Bands.widen_rows ~rows:100 t)
    = [ (2, 5) ]);
  (* block_rows: rows [1,3) of 2-scalar blocks = blocks [0,2) = rows [0,6)
     of 3-scalar blocks *)
  (match Bands.to_bands ~rows:6 ~cols:9 (Bands.block_rows ~bin:2 ~bout:3 t) with
  | [ b ] -> check_true "block_rows rescales" (b.Bands.row_lo = 0 && b.Bands.row_hi = 6)
  | _ -> Alcotest.fail "block_rows should keep one band");
  check_true "union with full is full"
    (Bands.is_full (Bands.union t Bands.full));
  check_true "add to full stays full"
    (Bands.is_full (Bands.add Bands.full (band ~cols:(0, 1) ~rows:(0, 1))));
  (* remap: drop column 3, shift 4 to 3 *)
  let t = Bands.of_bands [ band ~cols:(2, 5) ~rows:(0, 2) ] in
  let remapped =
    Bands.remap_cols
      (fun c -> if c = 3 then None else if c > 3 then Some (c - 1) else Some c)
      t
  in
  check_true "remap_cols rewrites the range"
    (Bands.col_intervals ~cols:9 remapped = [ (2, 4) ]);
  check_true "remap_cols dropping everything empties"
    (Bands.is_empty (Bands.remap_cols (fun _ -> None) t));
  (* insert_gap on a 4 x 10 matrix, 3 columns at 5: a column left of the
     gap keeps its liveness, one right of it takes its liveness along,
     and the gap is dead, whichever way the bands meet column 5 *)
  let rows = 4 and cols = 10 and at = 5 and by = 3 in
  List.iter
    (fun (what, t) ->
      let g = Bands.insert_gap ~rows ~cols ~at ~by t in
      for r = 0 to rows - 1 do
        for c = 0 to cols - 1 do
          let c' = if c < at then c else c + by in
          if Bands.mem g ~row:r ~col:c' <> Bands.mem t ~row:r ~col:c then
            Alcotest.failf "insert_gap %s: cell (%d, %d) at column %d changed liveness"
              what r c c'
        done;
        for c = at to at + by - 1 do
          if Bands.mem g ~row:r ~col:c then
            Alcotest.failf "insert_gap %s: gap cell (%d, %d) is live" what r c
        done
      done)
    [
      ("band ending at the gap", Bands.of_bands [ band ~cols:(2, 5) ~rows:(0, 2) ]);
      ("band starting at it", Bands.of_bands [ band ~cols:(5, 8) ~rows:(1, 3) ]);
      ("band straddling it", Bands.of_bands [ band ~cols:(3, 7) ~rows:(0, 4) ]);
      ( "bands on both sides",
        Bands.of_bands [ band ~cols:(0, 2) ~rows:(0, 1); band ~cols:(7, 10) ~rows:(2, 4) ] );
      ("full", Bands.full);
      ("empty", Bands.empty);
    ];
  check_true "insert_gap keeps empty empty"
    (Bands.is_empty (Bands.insert_gap ~rows ~cols ~at ~by Bands.empty));
  check_true "insert_gap by 0 is the identity"
    (Bands.is_full (Bands.insert_gap ~rows ~cols ~at ~by:0 Bands.full))

(* Over-approximation property: whatever of_bands / union / add do
   (merging, capping into bounding boxes), every point of every input
   band stays covered. *)
let test_bands_over_approximation () =
  let rng = Rng.create 4242 in
  for _ = 1 to 50 do
    let nbands = 1 + Rng.int rng 200 in
    let bs =
      List.init nbands (fun _ ->
          let col_lo = Rng.int rng 40 and row_lo = Rng.int rng 40 in
          band
            ~cols:(col_lo, col_lo + 1 + Rng.int rng 8)
            ~rows:(row_lo, row_lo + 1 + Rng.int rng 8))
    in
    let t = Bands.of_bands bs in
    List.iter
      (fun b ->
        for r = b.Bands.row_lo to b.Bands.row_hi - 1 do
          for c = b.Bands.col_lo to b.Bands.col_hi - 1 do
            if not (Bands.mem t ~row:r ~col:c) then
              Alcotest.failf "normalization lost point (%d, %d)" r c
          done
        done)
      bs
  done

(* The list-building queries and normalization the row-slab table and
   the canonical fast paths replaced: the oracles of their tests. *)
let ref_merge ivs =
  List.rev
    (List.fold_left
       (fun acc (lo, hi) ->
         match acc with
         | (plo, phi) :: tl when lo <= phi -> (plo, max phi hi) :: tl
         | _ -> (lo, hi) :: acc)
       [] (List.sort compare ivs))

let ref_row_intervals ~lo ~hi ~cols bs =
  if cols <= 0 then []
  else
    ref_merge
      (List.filter_map
         (fun b ->
           if b.Bands.row_lo < hi && lo < b.Bands.row_hi then begin
             let clo = max 0 b.Bands.col_lo and chi = min cols b.Bands.col_hi in
             if clo < chi then Some (clo, chi) else None
           end
           else None)
         bs)

let ref_normalize bs =
  let try_merge a b =
    let open Bands in
    let contains o i =
      o.col_lo <= i.col_lo && i.col_hi <= o.col_hi && o.row_lo <= i.row_lo
      && i.row_hi <= o.row_hi
    in
    if contains a b then Some a
    else if contains b a then Some b
    else if
      a.row_lo = b.row_lo && a.row_hi = b.row_hi && b.col_lo <= a.col_hi
      && a.col_lo <= b.col_hi
    then Some { a with col_lo = min a.col_lo b.col_lo; col_hi = max a.col_hi b.col_hi }
    else if
      a.col_lo = b.col_lo && a.col_hi = b.col_hi && b.row_lo <= a.row_hi
      && a.row_lo <= b.row_hi
    then Some { a with row_lo = min a.row_lo b.row_lo; row_hi = max a.row_hi b.row_hi }
    else None
  in
  let bs =
    List.filter (fun b -> b.Bands.col_lo < b.Bands.col_hi && b.Bands.row_lo < b.Bands.row_hi) bs
  in
  let bs =
    List.sort
      (fun a b ->
        compare
          (a.Bands.col_lo, a.Bands.row_lo, a.Bands.col_hi, a.Bands.row_hi)
          (b.Bands.col_lo, b.Bands.row_lo, b.Bands.col_hi, b.Bands.row_hi))
      bs
  in
  let pass bs =
    List.rev
      (List.fold_left
         (fun acc b ->
           match acc with
           | prev :: tl -> (
               match try_merge prev b with Some m -> m :: tl | None -> b :: prev :: tl)
           | [] -> [ b ])
         [] bs)
  in
  let rec cap bs =
    if List.length bs <= 128 then bs
    else
      let rec pairup = function
        | a :: b :: tl ->
            {
              Bands.col_lo = min a.Bands.col_lo b.Bands.col_lo;
              col_hi = max a.Bands.col_hi b.Bands.col_hi;
              row_lo = min a.Bands.row_lo b.Bands.row_lo;
              row_hi = max a.Bands.row_hi b.Bands.row_hi;
            }
            :: pairup tl
        | l -> l
      in
      cap (pairup bs)
  in
  cap (pass (pass bs))

(* The raw band list of an occupancy (columns and rows are non-negative
   in these tests, so the clip is the identity). *)
let raw t = Bands.to_bands ~rows:max_int ~cols:max_int t

(* Random band sets of every kind the transfers make: scattered
   rectangles (up to past the cap), per-value-row bands under wide ones,
   and row-uniform (canonical) lists. *)
let random_bands rng =
  match Rng.int rng 4 with
  | 0 ->
      List.init (Rng.int rng 200) (fun _ ->
          let col_lo = Rng.int rng 60 and row_lo = Rng.int rng 40 in
          band ~cols:(col_lo, col_lo + 1 + Rng.int rng 9) ~rows:(row_lo, row_lo + 1 + Rng.int rng 9))
  | 1 ->
      let d = 1 + Rng.int rng 6 in
      List.init (Rng.int rng 30) (fun _ ->
          let col_lo = Rng.int rng 60 in
          let cols = (col_lo, col_lo + 1 + Rng.int rng 9) in
          if Rng.int rng 4 = 0 then band ~cols ~rows:(0, 6 * d)
          else
            let i = Rng.int rng 6 in
            band ~cols ~rows:(i * d, (i + 1) * d))
  | 2 ->
      let r0 = Rng.int rng 10 in
      let r1 = r0 + 1 + Rng.int rng 10 in
      List.init (Rng.int rng 12) (fun _ ->
          let col_lo = Rng.int rng 60 in
          band ~cols:(col_lo, col_lo + 1 + Rng.int rng 6) ~rows:(r0, r1))
  | _ -> []

(* The area sweep the slab table replaced: slabs between the clipped
   bands' row edges, each as tall as it is times its merged width. *)
let ref_area ~rows ~cols t =
  let bs = Bands.to_bands ~rows ~cols t in
  let edges =
    List.sort_uniq compare (List.concat_map (fun b -> [ b.Bands.row_lo; b.Bands.row_hi ]) bs)
  in
  let rec slabs acc = function
    | r0 :: (r1 :: _ as tl) ->
        let width =
          List.fold_left
            (fun w (lo, hi) -> w + hi - lo)
            0
            (ref_merge
               (List.filter_map
                  (fun b ->
                    if b.Bands.row_lo <= r0 && r1 <= b.Bands.row_hi then
                      Some (b.Bands.col_lo, b.Bands.col_hi)
                    else None)
                  bs))
        in
        slabs (acc + ((r1 - r0) * width)) tl
    | _ -> acc
  in
  slabs 0 edges

(* Every row query of [t] against the list reference: single rows, row
   blocks aligned to their height and not, [cols] that clip and that do
   not, and rows outside every band; and the area of every clipped
   shape. *)
let check_row_queries msg t =
  List.iter
    (fun (rows, cols) ->
      if Bands.area ~rows ~cols t <> ref_area ~rows ~cols t then
        Alcotest.failf "%s: area ~rows:%d ~cols:%d differs" msg rows cols)
    [ (0, 10); (5, 0); (7, 33); (48, 70); (100, 1000) ];
  let bs = if Bands.is_full t then None else Some (raw t) in
  List.iter
    (fun cols ->
      for h = 1 to 7 do
        for lo = -2 to 46 do
          let hi = lo + h in
          let expected =
            match bs with
            | None -> if cols > 0 then [ (0, cols) ] else []
            | Some bs -> ref_row_intervals ~lo ~hi ~cols bs
          in
          if Bands.row_intervals ~lo ~hi ~cols t <> expected then
            Alcotest.failf "%s: row_intervals ~lo:%d ~hi:%d ~cols:%d differs" msg lo hi cols
        done
      done;
      let expected =
        match bs with
        | None -> if cols > 0 then [ (0, cols) ] else []
        | Some bs -> ref_row_intervals ~lo:min_int ~hi:max_int ~cols bs
      in
      if Bands.col_intervals ~cols t <> expected then
        Alcotest.failf "%s: col_intervals ~cols:%d differs" msg cols)
    [ 0; 1; 10; 33; 70; 1000 ]

let test_row_table_matches_reference () =
  let rng = Rng.create 0x51ab in
  check_row_queries "full" Bands.full;
  check_row_queries "empty" Bands.empty;
  for trial = 1 to 300 do
    check_row_queries (Printf.sprintf "trial %d" trial) (Bands.of_bands (random_bands rng))
  done

(* The row transforms and unions skip normalizing lists already in
   normal form; their band lists must be the ones normalizing gives. *)
let test_transforms_match_normalize () =
  let rng = Rng.create 0x707 in
  for trial = 1 to 2000 do
    let xs = random_bands rng and ys = random_bands rng in
    let a = Bands.of_bands xs and b = Bands.of_bands ys in
    let check what got expected =
      if raw got <> ref_normalize expected then
        Alcotest.failf "trial %d: %s differs from the normalized list" trial what
    in
    check "of_bands" a xs;
    check "union" (Bands.union a b) (raw a @ raw b);
    let d = Rng.int rng 9 and lo = Rng.int rng 12 in
    let hi = lo + Rng.int rng 12 in
    let map f = List.map f (raw a) in
    check "shift_rows" (Bands.shift_rows d a)
      (map (fun c -> { c with Bands.row_lo = c.Bands.row_lo + d; row_hi = c.Bands.row_hi + d }));
    check "widen_rows" (Bands.widen_rows ~rows:d a)
      (map (fun c -> { c with Bands.row_lo = 0; row_hi = d }));
    check "restrict_rows"
      (Bands.restrict_rows ~lo ~hi a)
      (List.filter_map
         (fun c ->
           let rlo = max lo c.Bands.row_lo and rhi = min hi c.Bands.row_hi in
           if rlo < rhi then Some { c with Bands.row_lo = rlo - lo; row_hi = rhi - lo }
           else None)
         (raw a));
    let bin = 1 + Rng.int rng 5 and bout = 1 + Rng.int rng 5 in
    check "block_rows"
      (Bands.block_rows ~bin ~bout a)
      (map (fun c ->
           {
             c with
             Bands.row_lo = c.Bands.row_lo / bin * bout;
             row_hi = (c.Bands.row_hi + bin - 1) / bin * bout;
           }));
    match raw b with
    | c :: _ -> check "add" (Bands.add a c) (c :: raw a)
    | [] -> ()
  done

(* ---------------- tile-skipping kernels ---------------- *)

(* A k x n matrix whose only nonzero columns are the live intervals —
   plus signed zeros in the dead ones, which the contract allows the
   skipped tiles to canonicalize away only in the *output* (the operand
   is never written). *)
let banded_right rng k n live =
  let b = Mat.create k n in
  List.iter
    (fun (lo, hi) ->
      for i = 0 to k - 1 do
        for j = lo to hi - 1 do
          b.Mat.data.((i * n) + j) <- Rng.uniform rng (-1.0) 1.0
        done
      done)
    live;
  b

let cols_shapes =
  [
    ((1, 1, 1), [ (0, 1) ]);
    ((3, 4, 8), [ (0, 2); (5, 7) ]);
    ((7, 13, 121), [ (0, 17); (40, 41); (90, 121) ]);
    ((24, 24, 344), [ (100, 200) ]);
    ((9, 17, 240), []);
    ((5, 6, 64), [ (0, 64) ]);
  ]

let test_cols_kernels_bit_identity () =
  let rng = Rng.create 555 in
  List.iter
    (fun ((m, k, n), live) ->
      let a = Mat.random_gaussian rng m k 1.0 in
      let b = banded_right rng k n live in
      let label = Printf.sprintf "%dx%dx%d" m k n in
      let dense = Mat.matmul a b in
      bits_equal_mats (label ^ " cols") dense (Mat.matmul ~cols:live a b);
      let at = Mat.transpose a in
      bits_equal_mats (label ^ " ta cols") dense (Mat.matmul_ta ~cols:live at b);
      let bt = Mat.transpose b in
      bits_equal_mats (label ^ " tb cols") dense (Mat.matmul_tb ~cols:live a bt))
    cols_shapes

(* ---------------- dead-symbol compaction ---------------- *)

(* Zero the listed eps columns of z and return it with the matching
   banded occupancy (one band per live column over all rows). *)
let kill_columns z dead =
  let nv = Z.num_vars z and ne = Z.num_eps z in
  List.iter
    (fun j ->
      for v = 0 to nv - 1 do
        z.Z.eps.Mat.data.((v * ne) + j) <- 0.0
      done)
    dead;
  let live =
    List.filter (fun j -> not (List.mem j dead)) (List.init ne Fun.id)
  in
  Z.with_eps_occ
    (Bands.of_bands
       (List.map (fun j -> band ~cols:(j, j + 1) ~rows:(0, nv)) live))
    z

let test_compact_drops_dead () =
  if not Bands.enabled then ()
  else begin
    let rng = Rng.create 909 in
    let z = Helpers.random_zonotope ~vrows:3 ~vcols:4 ~ep:2 ~ee:7 rng in
    let zs = kill_columns z [ 1; 4; 5 ] in
    let before = Z.bounds zs in
    check_true "density dropped below 1" (Z.eps_density zs < 1.0);
    let zc = Z.compact zs in
    Alcotest.(check int) "dead columns dropped" 4 (Z.num_eps zc);
    bits_equal_mats "compaction keeps the bounds (lo)" before.Interval.Imat.lo
      (Z.bounds zc).Interval.Imat.lo;
    bits_equal_mats "compaction keeps the bounds (hi)" before.Interval.Imat.hi
      (Z.bounds zc).Interval.Imat.hi;
    (* the surviving columns keep their coefficients bit for bit *)
    let ne = Z.num_eps zs in
    let live = [ 0; 2; 3; 6 ] in
    List.iteri
      (fun j' j ->
        for v = 0 to Z.num_vars zs - 1 do
          let old_c = zs.Z.eps.Mat.data.((v * ne) + j)
          and new_c = zc.Z.eps.Mat.data.((v * 4) + j') in
          if Int64.bits_of_float old_c <> Int64.bits_of_float new_c then
            Alcotest.failf "column %d -> %d: %h <> %h" j j' old_c new_c
        done)
      live;
    (* a full occupancy is not compactable *)
    let zf = Z.with_eps_occ Bands.full zs in
    Alcotest.(check int) "full occ: compact is the identity" ne
      (Z.num_eps (Z.compact zf));
    (* idempotent *)
    Alcotest.(check int) "compact is idempotent" 4 (Z.num_eps (Z.compact zc))
  end

(* The skip inside Reduction (scores / fold) is claimed bit-identical:
   a banded input must give the exact bounds of the same matrices run
   with occupancy information withheld. *)
let test_decorrelate_sparse_matches_dense () =
  let rng = Rng.create 911 in
  let z = Helpers.random_zonotope ~vrows:4 ~vcols:5 ~ep:3 ~ee:24 rng in
  let zs = kill_columns z [ 2; 3; 9; 10; 11; 17; 20; 21; 22; 23 ] in
  let zd = Z.with_eps_occ Bands.full zs in
  check_true "scores agree bitwise"
    (Array.for_all2
       (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
       (Deept.Reduction.scores zs) (Deept.Reduction.scores zd));
  let reduce z0 =
    let ctx = Z.ctx () in
    ignore (Z.alloc_eps ctx (Z.num_eps z0));
    Deept.Reduction.decorrelate_min_k ctx z0 6
  in
  let rs = reduce zs and rd = reduce zd in
  bits_equal_mats "reduced bounds lo" (Z.bounds rd).Interval.Imat.lo
    (Z.bounds rs).Interval.Imat.lo;
  bits_equal_mats "reduced bounds hi" (Z.bounds rd).Interval.Imat.hi
    (Z.bounds rs).Interval.Imat.hi;
  if Bands.enabled then
    check_true "banded reduction is no wider than the dense one"
      (Z.num_eps rs <= Z.num_eps rd)

(* Branch refinement on an L2 ball: the branch builder compacts each
   branch after restrict_symbol. Every branch shares the parent region,
   so the full report must not depend on the order the wave evaluates
   its branches in. *)
let imprecise_l2_query () =
  let program = Helpers.tiny_program ~layers:2 43 in
  let x = Mat.random_gaussian (Rng.create 143) 3 (Ir.out_dim program 0) 0.7 in
  let pred = Nn.Forward.predict program x in
  let found = ref None in
  List.iter
    (fun radius ->
      if !found = None then begin
        let region = Deept.Region.lp_ball ~p:Lp.L2 x ~word:1 ~radius in
        if
          Deept.Certify.certify_v C.fast program region ~true_class:pred
          = V.Unknown V.Imprecise
        then found := Some region
      end)
    [ 0.02; 0.05; 0.1; 0.2; 0.5; 1.0; 2.0 ];
  match !found with
  | Some region -> (program, region, pred)
  | None -> Alcotest.fail "no imprecise L2 radius found on the sweep"

let serial_l2_report () =
  let program, region, pred = imprecise_l2_query () in
  let serial =
    Deept.Brefine.certify_v ~wave:Deept.Brefine.serial_wave
      (C.with_refine (Some C.default_refine) C.fast)
      program region ~true_class:pred
  in
  check_true "symbols were split" (serial.Deept.Brefine.split <> []);
  (program, region, pred, serial)

let test_branch_compaction_any_order () =
  let program, region, pred, serial = serial_l2_report () in
  let module B = Deept.Brefine in
  let reversed : B.wave =
   fun f n ->
    let out = Array.make n None in
    for i = n - 1 downto 0 do
      out.(i) <- Some (f i)
    done;
    Array.map Option.get out
  in
  let backwards =
    B.certify_v ~wave:reversed
      (C.with_refine (Some C.default_refine) C.fast)
      program region ~true_class:pred
  in
  check_true "reversed = serial (full report)" (serial = backwards)

(* restrict_symbol itself: the minted eps column is live (one-hot band),
   so compaction keeps it; widths are unchanged. *)
let test_restrict_minted_column_is_live () =
  if not Bands.enabled then ()
  else begin
    let rng = Rng.create 31 in
    let x = Mat.random_gaussian rng 3 4 0.7 in
    let parent = Deept.Region.lp_ball ~p:Lp.L2 x ~word:1 ~radius:0.05 in
    let child = Z.restrict_symbol parent (Z.Phi 1) Z.Lower in
    Alcotest.(check int) "one minted column"
      (Z.num_eps parent + 1) (Z.num_eps child);
    Alcotest.(check int) "compaction keeps the live minted column"
      (Z.num_eps child)
      (Z.num_eps (Z.compact child))
  end

(* ---------------- dense-vs-sparse oracle ---------------- *)

(* A deterministic battery of real queries whose printed report must be
   bit-identical (%h margins, exact radii, verdict strings) whether the
   sparse machinery is on or off, and whether the products run on the
   blocked or the naive kernel. The tests re-execute this binary with
   TEST_SPARSE_REPORT=1 and DEEPT_NO_SPARSE=1 or MAT_NAIVE=1 and diff
   the output. *)
let report () =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let program = Helpers.tiny_program ~layers:2 43 in
  let x = Mat.random_gaussian (Rng.create 143) 3 (Ir.out_dim program 0) 0.7 in
  let pred = Nn.Forward.predict program x in
  List.iter
    (fun (pn, name) ->
      List.iter
        (fun radius ->
          let region = Deept.Region.lp_ball ~p:pn x ~word:1 ~radius in
          pf "%s r=%g fast margin %h verdict %s\n" name radius
            (Deept.Certify.certify_margin C.fast program region ~true_class:pred)
            (V.to_string
               (Deept.Certify.certify_v C.fast program region ~true_class:pred));
          pf "%s r=%g precise margin %h\n" name radius
            (Deept.Certify.certify_margin C.precise program region
               ~true_class:pred))
        [ 0.01; 0.05; 0.2 ])
    [ (Lp.L2, "l2"); (Lp.Linf, "linf"); (Lp.L1, "l1") ];
  (* heavy decorrelation exercises the reduction skip + compaction *)
  let region = Deept.Region.lp_ball ~p:Lp.Linf x ~word:1 ~radius:0.05 in
  pf "reduction_k=8 margin %h\n"
    (Deept.Certify.certify_margin
       { C.fast with C.reduction_k = 8 }
       program region ~true_class:pred);
  pf "domains=2 margin %h\n"
    (Deept.Certify.certify_margin
       (C.with_domains 2 C.fast)
       program region ~true_class:pred);
  pf "radius fast l2 %h\n"
    (Deept.Certify.certified_radius C.fast program ~p:Lp.L2 x ~word:1
       ~true_class:pred ());
  (* branch-and-bound refinement through the engine *)
  let o =
    Deept.Engine.certify ~falsify_samples:0
      (C.with_refine (Some C.default_refine) C.fast)
      program region ~true_class:pred
  in
  pf "refine engine %s@%s attempts=%d\n"
    (V.to_string o.Deept.Engine.verdict)
    o.Deept.Engine.rung_name
    (List.length o.Deept.Engine.attempts);
  (* a first rung that overruns the symbol budget in layer 1: the next
     rung resumes at that layer's input *)
  let budget = C.with_budget ~max_eps:170 C.fast in
  let o =
    Deept.Engine.certify ~falsify_samples:0 budget program region
      ~true_class:pred
  in
  pf "budget ladder %s@%s attempts=%s\n"
    (V.to_string o.Deept.Engine.verdict)
    o.Deept.Engine.rung_name
    (String.concat " "
       (List.map
          (fun (a : Deept.Engine.attempt) ->
            a.Deept.Engine.rung_name ^ "=" ^ V.to_string a.Deept.Engine.verdict)
          o.Deept.Engine.attempts));
  let ck = ref None in
  (try
     ignore
       (Deept.Propagate.run ~on_budget:(fun c -> ck := Some c) budget program region)
   with V.Abort _ -> ());
  (match (!ck, Deept.Engine.default_ladder budget) with
  | Some c, _ :: Deept.Engine.Abstract { rname; cfg } :: _ ->
      pf "budget resumed %s at op %d margin %h\n" rname
        (Deept.Propagate.checkpoint_op c)
        (Deept.Certify.margin
           (Deept.Propagate.run ~from:c cfg program region)
           ~true_class:pred)
  | _ -> pf "budget: no resumed rung\n");
  (* committed-model pins, when the checkout has them *)
  if Sys.file_exists "../data/small_3.model" then begin
    Zoo.data_dir := "../data";
    let entry = Zoo.entry "small_3" in
    let model = Zoo.load_or_train ~log:(fun _ -> ()) "small_3" in
    let c = Zoo.corpus_of entry.Zoo.corpus in
    let program = Nn.Model.to_ir model in
    let toks, label = List.nth c.Text.Corpus.test 0 in
    let x = Nn.Model.embed_tokens model toks in
    pf "small_3 fast l2 radius %.12g\n"
      (Deept.Certify.certified_radius C.fast program ~p:Lp.L2 x ~word:1
         ~true_class:label ());
    pf "small_3 precise certifies 0.17578125: %b\n"
      (Deept.Certify.certify C.precise program
         (Deept.Region.lp_ball ~p:Lp.L2 x ~word:1 ~radius:0.17578125)
         ~true_class:label);
    let edge = 0.0576171875 in
    let cfg =
      C.with_refine (Some (C.refine ~top_k:1 ~max_branches:2 ~depth:1 ())) C.precise
    in
    let r =
      Deept.Brefine.certify_v cfg program
        (Deept.Region.lp_ball ~p:Lp.Linf x ~word:1 ~radius:edge)
        ~true_class:label
    in
    pf "small_3 refined edge %s branches=%d depth=%d\n"
      (V.to_string r.Deept.Brefine.verdict)
      r.Deept.Brefine.branches r.Deept.Brefine.depth
  end;
  if Sys.file_exists "../data/sst_3.model" then begin
    Zoo.data_dir := "../data";
    let model = Zoo.load_or_train ~log:(fun _ -> ()) "sst_3" in
    let c = Zoo.corpus_of (Zoo.entry "sst_3").Zoo.corpus in
    let program = Nn.Model.to_ir model in
    let toks, label = List.nth c.Text.Corpus.test 0 in
    let x = Nn.Model.embed_tokens model toks in
    (* the paper's headline search on the recorded model: the same
       (idx 0, word 1, l2, 10 iters) query bench/radius.ml pins *)
    pf "sst_3 fast l2 radius %.17g\n"
      (Deept.Certify.certified_radius C.fast program ~p:Lp.L2 x ~word:1
         ~true_class:label ())
  end;
  Buffer.contents b

let contains_sub s sub =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  go 0

(* The report, computed once and shared by both oracles below. *)
let blocked_sparse_report = lazy (report ())

(* Re-execute this binary in report mode with [setting] (an env
   assignment) added and return what it printed. *)
let child_report setting =
  let out = Filename.temp_file "sparse_report" ".txt" in
  Fun.protect ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
  @@ fun () ->
  let env =
    Array.append
      (Array.of_seq
         (Seq.filter
            (fun s ->
              not
                (List.exists
                   (fun prefix -> String.starts_with ~prefix s)
                   [ "DEEPT_NO_SPARSE="; "MAT_NAIVE="; "TEST_SPARSE_REPORT=" ]))
            (Array.to_seq (Unix.environment ()))))
      [| setting; "TEST_SPARSE_REPORT=1" |]
  in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env Unix.stdin fd Unix.stderr
  in
  Unix.close fd;
  let _, status = Unix.waitpid [] pid in
  check_true (setting ^ " child exited cleanly") (status = Unix.WEXITED 0);
  In_channel.with_open_text out In_channel.input_all

let test_report_identical_no_sparse () =
  let mine = Lazy.force blocked_sparse_report in
  (* the committed pins must appear verbatim on the sparse path (the
     child-diff below then proves the dense path prints them too) *)
  if Sys.file_exists "../data/small_3.model" then
    List.iter
      (fun sub -> check_true sub (contains_sub mine sub))
      [
        "small_3 fast l2 radius 0.181640625";
        "small_3 precise certifies 0.17578125: true";
      ];
  if Sys.file_exists "../data/sst_3.model" then
    check_true "sst_3 pin" (contains_sub mine "sst_3 fast l2 radius 0.1474609375");
  let theirs = child_report "DEEPT_NO_SPARSE=1" in
  if mine <> theirs then
    Alcotest.failf
      "sparse and DEEPT_NO_SPARSE=1 reports differ:\n\
       --- sparse ---\n%s--- dense ---\n%s" mine theirs

(* The same report with every product on the naive reference kernel
   (which also ignores the tile-skipping [?cols]): the batched
   dot-product kernels route the affine part and the Eq. 5 cascades
   through [Mat.matmul]/[matmul_ta], so this diffs them against the
   naive loop end to end. *)
let test_report_identical_mat_naive () =
  let mine = Lazy.force blocked_sparse_report in
  let theirs = child_report "MAT_NAIVE=1" in
  if mine <> theirs then
    Alcotest.failf
      "blocked and MAT_NAIVE=1 reports differ:\n\
       --- blocked ---\n%s--- naive ---\n%s" mine theirs

let () =
  (* Child mode: print the report under whatever mode the environment
     selected and exit before alcotest parses argv. *)
  match Sys.getenv_opt "TEST_SPARSE_REPORT" with
  | Some "1" ->
      print_string (report ());
      exit 0
  | _ ->
      Alcotest.run "sparse"
        [
          ( "bands",
            [
              Alcotest.test_case "normalize + merge" `Quick test_bands_normalize;
              Alcotest.test_case "queries" `Quick test_bands_queries;
              Alcotest.test_case "transforms" `Quick test_bands_transforms;
              Alcotest.test_case "over-approximation" `Quick
                test_bands_over_approximation;
              Alcotest.test_case "row table = list reference" `Quick
                test_row_table_matches_reference;
              Alcotest.test_case "transforms = normalize" `Quick
                test_transforms_match_normalize;
            ] );
          ( "kernels",
            [
              Alcotest.test_case "?cols bit identity" `Quick
                test_cols_kernels_bit_identity;
            ] );
          ( "compaction",
            [
              Alcotest.test_case "drops dead columns" `Quick
                test_compact_drops_dead;
              Alcotest.test_case "decorrelate sparse = dense" `Quick
                test_decorrelate_sparse_matches_dense;
              Alcotest.test_case "branch compaction in any order" `Quick
                test_branch_compaction_any_order;
              Alcotest.test_case "restrict-minted column live" `Quick
                test_restrict_minted_column_is_live;
            ] );
          ( "oracle",
            [
              Alcotest.test_case "report sparse = DEEPT_NO_SPARSE" `Slow
                test_report_identical_no_sparse;
              Alcotest.test_case "report blocked = MAT_NAIVE" `Slow
                test_report_identical_mat_naive;
            ] );
        ]
