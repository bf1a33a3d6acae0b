type t = { rows : int; cols : int; data : float array }

let check_dims r c =
  if r < 0 || c < 0 then invalid_arg "Mat: negative dimension"

let create rows cols =
  check_dims rows cols;
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let make rows cols v =
  check_dims rows cols;
  { rows; cols; data = Array.make (rows * cols) v }

let init rows cols f =
  check_dims rows cols;
  let data = Array.make (rows * cols) 0.0 in
  for i = 0 to rows - 1 do
    let base = i * cols in
    for j = 0 to cols - 1 do
      Array.unsafe_set data (base + j) (f i j)
    done
  done;
  { rows; cols; data }

let of_array ~rows ~cols data =
  if Array.length data <> rows * cols then
    invalid_arg "Mat.of_array: size mismatch";
  { rows; cols; data }

let of_rows rws =
  let rows = Array.length rws in
  if rows = 0 then { rows = 0; cols = 0; data = [||] }
  else begin
    let cols = Array.length rws.(0) in
    Array.iter
      (fun r -> if Array.length r <> cols then invalid_arg "Mat.of_rows: ragged rows")
      rws;
    init rows cols (fun i j -> rws.(i).(j))
  end

let row_vector v = { rows = 1; cols = Array.length v; data = Array.copy v }
let col_vector v = { rows = Array.length v; cols = 1; data = Array.copy v }

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let random_uniform rng rows cols s =
  init rows cols (fun _ _ -> Rng.uniform rng (-.s) s)

let random_gaussian rng rows cols std =
  init rows cols (fun _ _ -> Rng.gaussian_scaled rng ~mean:0.0 ~std)

let copy m = { m with data = Array.copy m.data }

let rows m = m.rows
let cols m = m.cols
let dims m = (m.rows, m.cols)

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Mat.get";
  Array.unsafe_get m.data ((i * m.cols) + j)

let set m i j v =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Mat.set";
  Array.unsafe_set m.data ((i * m.cols) + j) v

let row m i =
  if i < 0 || i >= m.rows then invalid_arg "Mat.row";
  Array.sub m.data (i * m.cols) m.cols

let col m j =
  if j < 0 || j >= m.cols then invalid_arg "Mat.col";
  Array.init m.rows (fun i -> Array.unsafe_get m.data ((i * m.cols) + j))

let to_rows m = Array.init m.rows (fun i -> row m i)

let transpose m =
  init m.cols m.rows (fun i j -> Array.unsafe_get m.data ((j * m.cols) + i))

let hcat a b =
  if a.rows <> b.rows then invalid_arg "Mat.hcat: row mismatch";
  let cols = a.cols + b.cols in
  let data = Array.make (a.rows * cols) 0.0 in
  for i = 0 to a.rows - 1 do
    Array.blit a.data (i * a.cols) data (i * cols) a.cols;
    Array.blit b.data (i * b.cols) data ((i * cols) + a.cols) b.cols
  done;
  { rows = a.rows; cols; data }

let vcat a b =
  if a.cols <> b.cols then invalid_arg "Mat.vcat: column mismatch";
  let data = Array.append a.data b.data in
  { rows = a.rows + b.rows; cols = a.cols; data }

let sub_rows m start n =
  if start < 0 || n < 0 || start + n > m.rows then invalid_arg "Mat.sub_rows";
  { rows = n; cols = m.cols; data = Array.sub m.data (start * m.cols) (n * m.cols) }

let sub_cols m start n =
  if start < 0 || n < 0 || start + n > m.cols then invalid_arg "Mat.sub_cols";
  init m.rows n (fun i j -> Array.unsafe_get m.data ((i * m.cols) + start + j))

let reshape m ~rows ~cols =
  if rows * cols <> m.rows * m.cols then invalid_arg "Mat.reshape: size mismatch";
  { rows; cols; data = Array.copy m.data }

let select_cols m idx =
  Array.iter (fun j -> if j < 0 || j >= m.cols then invalid_arg "Mat.select_cols") idx;
  init m.rows (Array.length idx) (fun i k ->
      Array.unsafe_get m.data ((i * m.cols) + Array.unsafe_get idx k))

let map f m = { m with data = Array.map f m.data }

let mapi f m =
  init m.rows m.cols (fun i j -> f i j (Array.unsafe_get m.data ((i * m.cols) + j)))

let zip f a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Mat.zip: shape mismatch";
  let n = Array.length a.data in
  let data = Array.make n 0.0 in
  for i = 0 to n - 1 do
    Array.unsafe_set data i
      (f (Array.unsafe_get a.data i) (Array.unsafe_get b.data i))
  done;
  { a with data }

(* The pointwise helpers below are direct loops rather than [map]/[zip]
   with a float closure: without flambda the closure call boxes every
   element. *)
let same_shape_zeros name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg ("Mat." ^ name ^ ": shape mismatch");
  Array.make (Array.length a.data) 0.0

let add a b =
  let data = same_shape_zeros "add" a b in
  for i = 0 to Array.length data - 1 do
    Array.unsafe_set data i (Array.unsafe_get a.data i +. Array.unsafe_get b.data i)
  done;
  { a with data }

let sub a b =
  let data = same_shape_zeros "sub" a b in
  for i = 0 to Array.length data - 1 do
    Array.unsafe_set data i (Array.unsafe_get a.data i -. Array.unsafe_get b.data i)
  done;
  { a with data }

let mul a b =
  let data = same_shape_zeros "mul" a b in
  for i = 0 to Array.length data - 1 do
    Array.unsafe_set data i (Array.unsafe_get a.data i *. Array.unsafe_get b.data i)
  done;
  { a with data }

let scale s m =
  let data = Array.make (Array.length m.data) 0.0 in
  for i = 0 to Array.length data - 1 do
    Array.unsafe_set data i (s *. Array.unsafe_get m.data i)
  done;
  { m with data }

let add_scalar s m =
  let data = Array.make (Array.length m.data) 0.0 in
  for i = 0 to Array.length data - 1 do
    Array.unsafe_set data i (s +. Array.unsafe_get m.data i)
  done;
  { m with data }

let abs m =
  let data = Array.make (Array.length m.data) 0.0 in
  for i = 0 to Array.length data - 1 do
    Array.unsafe_set data i (Float.abs (Array.unsafe_get m.data i))
  done;
  { m with data }

let neg m =
  let data = Array.make (Array.length m.data) 0.0 in
  for i = 0 to Array.length data - 1 do
    Array.unsafe_set data i (Float.neg (Array.unsafe_get m.data i))
  done;
  { m with data }

let add_in_place dst src =
  if dst.rows <> src.rows || dst.cols <> src.cols then
    invalid_arg "Mat.add_in_place: shape mismatch";
  for i = 0 to Array.length dst.data - 1 do
    Array.unsafe_set dst.data i
      (Array.unsafe_get dst.data i +. Array.unsafe_get src.data i)
  done

let axpy a x y =
  if x.rows <> y.rows || x.cols <> y.cols then invalid_arg "Mat.axpy: shape mismatch";
  for i = 0 to Array.length y.data - 1 do
    Array.unsafe_set y.data i
      (Array.unsafe_get y.data i +. (a *. Array.unsafe_get x.data i))
  done

let scale_in_place s m =
  for i = 0 to Array.length m.data - 1 do
    Array.unsafe_set m.data i (s *. Array.unsafe_get m.data i)
  done

let fill m v = Array.fill m.data 0 (Array.length m.data) v

(* ---------------- matrix products ----------------

   Three kernels compute the same sums in the same order (ascending over
   the inner dimension), so their results are bit-identical on finite
   data and certification verdicts do not depend on which one ran:

   - [naive_into]: the original i-k-j kernel, kept verbatim as the
     reference implementation and as the [MAT_NAIVE=1] escape hatch.
   - blocked: a register-tiled kernel (2 output rows x 4 output columns
     accumulated in registers over the full inner dimension) that does
     ~1 load per multiply-add where the naive kernel does a load and a
     store of the output per multiply-add.
   - blocked + column restriction: the same kernel driven only over the
     live column intervals of a band occupancy ([with_jtiles ?cols]).
     Each output element is still one full-k ascending dot product, so
     which tiles run cannot change a computed bit; skipped outputs keep
     the +0.0 the buffer was allocated with, which equals the dense
     result exactly when the left operand is finite (callers gate on
     that — see DESIGN.md section 14).

   All kernels skip zero left-hand entries exactly like the original
   naive kernel: this keeps genuine sparsity in the coefficient blocks
   cheap, and — more importantly — preserves the annihilation semantics
   a zero weight must have even against an infinite coefficient
   (0 * inf is NaN in IEEE, but a zero weight means the input provably
   does not contribute). The skip is always on the same operand, so
   blocked and naive results agree bit-for-bit on infinities too.

   The entry points below the kernels add the shape checks and the
   output allocation, and run the row kernel over every output row.
   [matmul_ta_acc] is the transposed kernel's in-place entry point: it
   reads a row block of [b] and accumulates into a row block of an
   existing output, continuing each output's running sum from the value
   stored there; [matmul_ta] is its case of a fresh output at offset 0.
   [?cols] restricts the computed output columns to the given sorted
   live intervals (a [Bands] occupancy's view of the right operand);
   skipped columns keep the +0.0 of the fresh output buffer. Callers
   pass it only when the skipped columns are provably zero in the dense
   result too (left operand finite, right-operand columns dead), which
   keeps the sparse and dense paths bit-identical. The [MAT_NAIVE=1]
   escape hatch ignores [?cols] and computes the dense product — same
   bits, by the same argument. *)

(* Unchecked loads and stores for the kernel loops. The kernels go
   through these one-line accessors on purpose, not through
   [Array.unsafe_get]/[unsafe_set] spelled inline: both forms inline, but
   ocamlopt compiles them differently. With the accessors each indexed
   load or store addresses through one lea; written inline, every index
   becomes mov/add/shl, and [naive_into]'s accumulate is emitted with
   its addends swapped, which changes which NaN survives a NaN + NaN. *)
let bget (b : float array) i = Array.unsafe_get b i
let bset (b : float array) i v = Array.unsafe_set b i v

let use_naive =
  match Sys.getenv_opt "MAT_NAIVE" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

(* Columns are processed in tiles of this many output columns: the tile
   of [b] ([k] rows x [jtile] columns, ~23 KB at k = 24) stays in L1
   across every row of the output instead of being re-streamed from L2/L3
   once per row pair. Tiling only reorders {e which} outputs are computed
   when — each output is still one full-[k] ascending dot product — so it
   cannot change a bit of the result. *)
let jtile = 120

(* i-k-j loop order: the inner loop walks both [b] and [out] contiguously.
   The [n] columns are read from [b] and accumulated into [out] at row
   offsets and row strides, as in [mm_ta_rows]. *)
let naive_into ~m ~k ~n ~ldb ~ldo ~boff ~ooff (a : float array)
    (b : float array) (out : float array) =
  for i = 0 to m - 1 do
    let arow = i * k and orow = ooff + (i * ldo) in
    for p = 0 to k - 1 do
      let aip = bget a (arow + p) in
      if aip <> 0.0 then begin
        let brow = boff + (p * ldb) in
        for j = 0 to n - 1 do
          bset out (orow + j) (bget out (orow + j) +. (aip *. bget b (brow + j)))
        done
      end
    done
  done

(* One output row of A.B with 4-column register accumulators, restricted
   to columns [jlo, jhi). Also the remainder path of the 2-row tile: the
   per-row arithmetic is identical (ascending p, one accumulator per
   output), which is what keeps blocked results independent of row-range
   boundaries. *)
let mm_row ~k ~n (a : float array) (b : float array) (out : float array) i
    ~jlo ~jhi =
  let a0 = i * k and o0 = i * n in
  let j = ref jlo in
  while !j + 3 < jhi do
    let j0 = !j in
    let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
    for p = 0 to k - 1 do
      let x = bget a (a0 + p) in
      if x <> 0.0 then begin
        let br = (p * n) + j0 in
        s0 := !s0 +. (x *. bget b br);
        s1 := !s1 +. (x *. bget b (br + 1));
        s2 := !s2 +. (x *. bget b (br + 2));
        s3 := !s3 +. (x *. bget b (br + 3))
      end
    done;
    bset out (o0 + j0) !s0;
    bset out (o0 + j0 + 1) !s1;
    bset out (o0 + j0 + 2) !s2;
    bset out (o0 + j0 + 3) !s3;
    j := j0 + 4
  done;
  while !j < jhi do
    let j0 = !j in
    let s = ref 0.0 in
    for p = 0 to k - 1 do
      let x = bget a (a0 + p) in
      if x <> 0.0 then s := !s +. (x *. bget b ((p * n) + j0))
    done;
    bset out (o0 + j0) !s;
    incr j
  done

(* Blocked A.B restricted to output rows [r0, r1) and columns [jlo, jhi):
   a 2x4 register tile over full-k dot products, with single-row and
   narrow-column remainder paths that accumulate in the same
   (ascending p) order. *)
let mm_rows ~k ~n (a : float array) (b : float array) (out : float array) r0 r1
    ~jlo ~jhi =
  let i = ref r0 in
  while !i + 1 < r1 do
    let i0 = !i in
    let a0 = i0 * k and a1 = (i0 + 1) * k in
    let o0 = i0 * n and o1 = (i0 + 1) * n in
    let j = ref jlo in
    while !j + 3 < jhi do
      let j0 = !j in
      let s00 = ref 0.0 and s01 = ref 0.0 and s02 = ref 0.0 and s03 = ref 0.0 in
      let s10 = ref 0.0 and s11 = ref 0.0 and s12 = ref 0.0 and s13 = ref 0.0 in
      for p = 0 to k - 1 do
        let x0 = bget a (a0 + p) in
        let x1 = bget a (a1 + p) in
        let br = (p * n) + j0 in
        let b0 = bget b br in
        let b1 = bget b (br + 1) in
        let b2 = bget b (br + 2) in
        let b3 = bget b (br + 3) in
        if x0 <> 0.0 then begin
          s00 := !s00 +. (x0 *. b0);
          s01 := !s01 +. (x0 *. b1);
          s02 := !s02 +. (x0 *. b2);
          s03 := !s03 +. (x0 *. b3)
        end;
        if x1 <> 0.0 then begin
          s10 := !s10 +. (x1 *. b0);
          s11 := !s11 +. (x1 *. b1);
          s12 := !s12 +. (x1 *. b2);
          s13 := !s13 +. (x1 *. b3)
        end
      done;
      bset out (o0 + j0) !s00;
      bset out (o0 + j0 + 1) !s01;
      bset out (o0 + j0 + 2) !s02;
      bset out (o0 + j0 + 3) !s03;
      bset out (o1 + j0) !s10;
      bset out (o1 + j0 + 1) !s11;
      bset out (o1 + j0 + 2) !s12;
      bset out (o1 + j0 + 3) !s13;
      j := j0 + 4
    done;
    while !j < jhi do
      let j0 = !j in
      let s0 = ref 0.0 and s1 = ref 0.0 in
      for p = 0 to k - 1 do
        let bv = bget b ((p * n) + j0) in
        let x0 = bget a (a0 + p) in
        let x1 = bget a (a1 + p) in
        if x0 <> 0.0 then s0 := !s0 +. (x0 *. bv);
        if x1 <> 0.0 then s1 := !s1 +. (x1 *. bv)
      done;
      bset out (o0 + j0) !s0;
      bset out (o1 + j0) !s1;
      incr j
    done;
    i := i0 + 2
  done;
  if !i < r1 then mm_row ~k ~n a b out !i ~jlo ~jhi

(* A^T.B restricted to output rows [r0, r1) and columns [jlo, jhi)
   (a is k x m, read with stride m): same 2x4 tile, same ascending-p
   accumulation, no transpose copy. [b] is read from element [boff] on
   with row stride [ldb], and [out] written from element [ooff] on with
   row stride [ldo], so one row block of a coefficient matrix maps
   straight into a row block of another, possibly wider, one. Each
   accumulator starts from the value [out] holds: +0.0 in a fresh
   output, which is the seed every other kernel uses, or the running sum
   of an earlier call over the same outputs. *)
let mm_ta_rows ~k ~m ~ldb ~ldo ~boff ~ooff (a : float array) (b : float array)
    (out : float array) r0 r1 ~jlo ~jhi =
  let row1 i0 =
    let o0 = ooff + (i0 * ldo) in
    let j = ref jlo in
    while !j + 3 < jhi do
      let j0 = !j in
      let s0 = ref (bget out (o0 + j0)) and s1 = ref (bget out (o0 + j0 + 1)) in
      let s2 = ref (bget out (o0 + j0 + 2)) and s3 = ref (bget out (o0 + j0 + 3)) in
      for p = 0 to k - 1 do
        let x = bget a ((p * m) + i0) in
        if x <> 0.0 then begin
          let br = boff + (p * ldb) + j0 in
          s0 := !s0 +. (x *. bget b br);
          s1 := !s1 +. (x *. bget b (br + 1));
          s2 := !s2 +. (x *. bget b (br + 2));
          s3 := !s3 +. (x *. bget b (br + 3))
        end
      done;
      bset out (o0 + j0) !s0;
      bset out (o0 + j0 + 1) !s1;
      bset out (o0 + j0 + 2) !s2;
      bset out (o0 + j0 + 3) !s3;
      j := j0 + 4
    done;
    while !j < jhi do
      let j0 = !j in
      let s = ref (bget out (o0 + j0)) in
      for p = 0 to k - 1 do
        let x = bget a ((p * m) + i0) in
        if x <> 0.0 then s := !s +. (x *. bget b (boff + (p * ldb) + j0))
      done;
      bset out (o0 + j0) !s;
      incr j
    done
  in
  let i = ref r0 in
  while !i + 1 < r1 do
    let i0 = !i in
    let o0 = ooff + (i0 * ldo) in
    let o1 = o0 + ldo in
    let j = ref jlo in
    while !j + 3 < jhi do
      let j0 = !j in
      let s00 = ref (bget out (o0 + j0)) and s01 = ref (bget out (o0 + j0 + 1)) in
      let s02 = ref (bget out (o0 + j0 + 2)) and s03 = ref (bget out (o0 + j0 + 3)) in
      let s10 = ref (bget out (o1 + j0)) and s11 = ref (bget out (o1 + j0 + 1)) in
      let s12 = ref (bget out (o1 + j0 + 2)) and s13 = ref (bget out (o1 + j0 + 3)) in
      for p = 0 to k - 1 do
        let ar = (p * m) + i0 in
        let x0 = bget a ar in
        let x1 = bget a (ar + 1) in
        let br = boff + (p * ldb) + j0 in
        let b0 = bget b br in
        let b1 = bget b (br + 1) in
        let b2 = bget b (br + 2) in
        let b3 = bget b (br + 3) in
        if x0 <> 0.0 then begin
          s00 := !s00 +. (x0 *. b0);
          s01 := !s01 +. (x0 *. b1);
          s02 := !s02 +. (x0 *. b2);
          s03 := !s03 +. (x0 *. b3)
        end;
        if x1 <> 0.0 then begin
          s10 := !s10 +. (x1 *. b0);
          s11 := !s11 +. (x1 *. b1);
          s12 := !s12 +. (x1 *. b2);
          s13 := !s13 +. (x1 *. b3)
        end
      done;
      bset out (o0 + j0) !s00;
      bset out (o0 + j0 + 1) !s01;
      bset out (o0 + j0 + 2) !s02;
      bset out (o0 + j0 + 3) !s03;
      bset out (o1 + j0) !s10;
      bset out (o1 + j0 + 1) !s11;
      bset out (o1 + j0 + 2) !s12;
      bset out (o1 + j0 + 3) !s13;
      j := j0 + 4
    done;
    while !j < jhi do
      let j0 = !j in
      let s0 = ref (bget out (o0 + j0)) and s1 = ref (bget out (o1 + j0)) in
      for p = 0 to k - 1 do
        let ar = (p * m) + i0 in
        let bv = bget b (boff + (p * ldb) + j0) in
        let x0 = bget a ar in
        let x1 = bget a (ar + 1) in
        if x0 <> 0.0 then s0 := !s0 +. (x0 *. bv);
        if x1 <> 0.0 then s1 := !s1 +. (x1 *. bv)
      done;
      bset out (o0 + j0) !s0;
      bset out (o1 + j0) !s1;
      incr j
    done;
    i := i0 + 2
  done;
  if !i < r1 then row1 !i

(* A.B^T restricted to output rows [r0, r1) and columns [jlo, jhi): both
   operands are walked along contiguous rows, so no transpose copy of [b]
   is needed (the tile of [b] here is [jhi - jlo] contiguous rows). *)
let mm_tb_rows ~k ~n (a : float array) (b : float array) (out : float array)
    r0 r1 ~jlo ~jhi =
  for i = r0 to r1 - 1 do
    let a0 = i * k and o0 = i * n in
    for j = jlo to jhi - 1 do
      let b0 = j * k in
      let s = ref 0.0 in
      for p = 0 to k - 1 do
        let x = bget a (a0 + p) in
        if x <> 0.0 then s := !s +. (x *. bget b (b0 + p))
      done;
      bset out (o0 + j) !s
    done
  done

(* Drive a row-range kernel over the column tiles: tile loop outside,
   rows inside, so one [b] tile serves every row before the next tile is
   streamed in. With [cols] (sorted live column intervals from a
   [Bands.t]), only tiles inside the intervals run and dead output
   columns keep their allocated +0.0 — the tile-skip path. Per-element
   accumulation order does not depend on tile boundaries, so unaligned
   interval starts compute the same bits as the dense sweep. *)
let with_jtiles ?cols ~n body r0 r1 =
  let sweep lo hi =
    let jlo = ref lo in
    while !jlo < hi do
      let jhi = min hi (!jlo + jtile) in
      body r0 r1 ~jlo:!jlo ~jhi;
      jlo := jhi
    done
  in
  match cols with
  | None -> sweep 0 n
  | Some ivs -> List.iter (fun (lo, hi) -> sweep (max 0 lo) (min n hi)) ivs

let matmul_naive a b =
  if a.cols <> b.rows then invalid_arg "Mat.matmul: inner dimension mismatch";
  let m = a.rows and k = a.cols and n = b.cols in
  let out = Array.make (m * n) 0.0 in
  naive_into ~m ~k ~n ~ldb:n ~ldo:n ~boff:0 ~ooff:0 a.data b.data out;
  { rows = m; cols = n; data = out }

let matmul ?cols a b =
  if a.cols <> b.rows then invalid_arg "Mat.matmul: inner dimension mismatch";
  if use_naive then matmul_naive a b
  else begin
    let m = a.rows and k = a.cols and n = b.cols in
    let out = Array.make (m * n) 0.0 in
    with_jtiles ?cols ~n (mm_rows ~k ~n a.data b.data out) 0 m;
    { rows = m; cols = n; data = out }
  end

let matmul_ta_acc ?cols ?b_cols ?out_col a b ~b_row out ~out_row =
  let m = a.cols and k = a.rows in
  let c0, c1 = Option.value b_cols ~default:(0, b.cols) in
  let dst = Option.value out_col ~default:c0 in
  let n = c1 - c0 in
  if c0 < 0 || c1 > b.cols || n < 0 then
    invalid_arg "Mat.matmul_ta_acc: column window out of range";
  if dst < 0 || dst + n > out.cols then invalid_arg "Mat.matmul_ta_acc: b wider than out";
  if b_row < 0 || b_row + k > b.rows || out_row < 0 || out_row + m > out.rows then
    invalid_arg "Mat.matmul_ta_acc: row block out of range";
  let boff = (b_row * b.cols) + c0 and ooff = (out_row * out.cols) + dst in
  if use_naive then
    naive_into ~m ~k ~n ~ldb:b.cols ~ldo:out.cols ~boff ~ooff (transpose a).data
      b.data out.data
  else
    (* the window's column j is [b]'s column c0 + j *)
    let cols =
      if c0 = 0 then cols
      else Option.map (List.map (fun (lo, hi) -> (lo - c0, hi - c0))) cols
    in
    with_jtiles ?cols ~n
      (mm_ta_rows ~k ~m ~ldb:b.cols ~ldo:out.cols ~boff ~ooff a.data b.data out.data)
      0 m

let matmul_ta ?cols a b =
  if a.rows <> b.rows then invalid_arg "Mat.matmul_ta: inner dimension mismatch";
  let out = create a.cols b.cols in
  matmul_ta_acc ?cols a b ~b_row:0 out ~out_row:0;
  out

let matmul_tb ?cols a b =
  if a.cols <> b.cols then invalid_arg "Mat.matmul_tb: inner dimension mismatch";
  if use_naive then matmul_naive a (transpose b)
  else begin
    let m = a.rows and k = a.cols and n = b.rows in
    let out = Array.make (m * n) 0.0 in
    with_jtiles ?cols ~n (mm_tb_rows ~k ~n a.data b.data out) 0 m;
    { rows = m; cols = n; data = out }
  end

let gemm ?(ta = false) ?(tb = false) a b =
  match (ta, tb) with
  | false, false -> matmul a b
  | true, false -> matmul_ta a b
  | false, true -> matmul_tb a b
  | true, true -> matmul_tb (transpose a) b

let mat_vec m v =
  if Array.length v <> m.cols then invalid_arg "Mat.mat_vec: size mismatch";
  Array.init m.rows (fun i ->
      let base = i * m.cols in
      let acc = ref 0.0 in
      for j = 0 to m.cols - 1 do
        acc := !acc +. (Array.unsafe_get m.data (base + j) *. Array.unsafe_get v j)
      done;
      !acc)

let vec_mat v m =
  if Array.length v <> m.rows then invalid_arg "Mat.vec_mat: size mismatch";
  let out = Array.make m.cols 0.0 in
  for i = 0 to m.rows - 1 do
    let vi = Array.unsafe_get v i in
    if vi <> 0.0 then begin
      let base = i * m.cols in
      for j = 0 to m.cols - 1 do
        Array.unsafe_set out j
          (Array.unsafe_get out j +. (vi *. Array.unsafe_get m.data (base + j)))
      done
    end
  done;
  out

let add_row_broadcast m v =
  if Array.length v <> m.cols then invalid_arg "Mat.add_row_broadcast";
  mapi (fun _ j x -> x +. Array.unsafe_get v j) m

let mul_row_broadcast m v =
  if Array.length v <> m.cols then invalid_arg "Mat.mul_row_broadcast";
  mapi (fun _ j x -> x *. Array.unsafe_get v j) m

let fold f acc m = Array.fold_left f acc m.data
let sum m = fold ( +. ) 0.0 m
let frobenius m = sqrt (fold (fun acc x -> acc +. (x *. x)) 0.0 m)
let max_abs m = fold (fun acc x -> Float.max acc (Float.abs x)) 0.0 m

(* [x -. x] is +0.0 for a finite [x] and NaN for an infinite or NaN one,
   so the first pass's sum is exactly 0.0 iff every entry is finite: it
   settles the common case with no branch per entry (four accumulators
   keep the adds independent). Only a poisoned matrix pays for the
   second, branching scan that tells NaN from Inf. *)
let finite_class m =
  let d = m.data in
  let n = Array.length d in
  let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
  let i = ref 0 in
  while !i + 3 < n do
    let k = !i in
    let x0 = Array.unsafe_get d k and x1 = Array.unsafe_get d (k + 1) in
    let x2 = Array.unsafe_get d (k + 2) and x3 = Array.unsafe_get d (k + 3) in
    s0 := !s0 +. (x0 -. x0);
    s1 := !s1 +. (x1 -. x1);
    s2 := !s2 +. (x2 -. x2);
    s3 := !s3 +. (x3 -. x3);
    i := k + 4
  done;
  while !i < n do
    let x = Array.unsafe_get d !i in
    s0 := !s0 +. (x -. x);
    incr i
  done;
  if !s0 +. !s1 +. !s2 +. !s3 = 0.0 then `Finite
  else begin
    let has_inf = ref false and has_nan = ref false in
    let i = ref 0 in
    while (not !has_nan) && !i < n do
      let x = Array.unsafe_get d !i in
      if Float.is_nan x then has_nan := true
      else if not (Float.is_finite x) then has_inf := true;
      incr i
    done;
    if !has_nan then `Nan else if !has_inf then `Inf else `Finite
  end

let row_sums m =
  Array.init m.rows (fun i ->
      let base = i * m.cols in
      let acc = ref 0.0 in
      for j = 0 to m.cols - 1 do
        acc := !acc +. Array.unsafe_get m.data (base + j)
      done;
      !acc)

let row_means m =
  let s = row_sums m in
  Array.map (fun x -> x /. float_of_int m.cols) s

let col_sums m =
  let out = Array.make m.cols 0.0 in
  for i = 0 to m.rows - 1 do
    let base = i * m.cols in
    for j = 0 to m.cols - 1 do
      Array.unsafe_set out j
        (Array.unsafe_get out j +. Array.unsafe_get m.data (base + j))
    done
  done;
  out

let row_lp_norms m p =
  Array.init m.rows (fun i ->
      let base = i * m.cols in
      if p = infinity then begin
        let acc = ref 0.0 in
        for j = 0 to m.cols - 1 do
          acc := Float.max !acc (Float.abs (Array.unsafe_get m.data (base + j)))
        done;
        !acc
      end
      else if p = 1.0 then begin
        let acc = ref 0.0 in
        for j = 0 to m.cols - 1 do
          acc := !acc +. Float.abs (Array.unsafe_get m.data (base + j))
        done;
        !acc
      end
      else if p = 2.0 then begin
        (* scaled to avoid overflow on huge entries *)
        let mx = ref 0.0 in
        for j = 0 to m.cols - 1 do
          mx := Float.max !mx (Float.abs (Array.unsafe_get m.data (base + j)))
        done;
        if !mx = 0.0 || not (Float.is_finite !mx) then !mx
        else begin
          let acc = ref 0.0 in
          for j = 0 to m.cols - 1 do
            let x = Array.unsafe_get m.data (base + j) /. !mx in
            acc := !acc +. (x *. x)
          done;
          !mx *. sqrt !acc
        end
      end
      else begin
        let acc = ref 0.0 in
        for j = 0 to m.cols - 1 do
          acc := !acc +. (Float.abs (Array.unsafe_get m.data (base + j)) ** p)
        done;
        !acc ** (1.0 /. p)
      end)

let equal ?(tol = 0.0) a b =
  a.rows = b.rows && a.cols = b.cols
  &&
  let ok = ref true in
  for i = 0 to Array.length a.data - 1 do
    if Float.abs (Array.unsafe_get a.data i -. Array.unsafe_get b.data i) > tol then
      ok := false
  done;
  !ok

let pp ppf m =
  let max_show = 8 in
  Format.fprintf ppf "@[<v>mat %dx%d" m.rows m.cols;
  for i = 0 to min m.rows max_show - 1 do
    Format.fprintf ppf "@,[";
    for j = 0 to min m.cols max_show - 1 do
      Format.fprintf ppf "%s%.4g" (if j > 0 then " " else "") (get m i j)
    done;
    if m.cols > max_show then Format.fprintf ppf " ...";
    Format.fprintf ppf "]"
  done;
  if m.rows > max_show then Format.fprintf ppf "@,...";
  Format.fprintf ppf "@]"
