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

   The kernel bodies live in [Mat_kern], generated from the single
   shared source kern_body.inc (the Bigarray backend compiles the same
   text — see the header comment there for the loop structure and the
   bit-identity argument). This module adds the shape checks, the
   output allocation and the [Dpool] row sharding:

   - blocked + pool: the blocked kernel sharded over disjoint output-row
     ranges on a [Dpool]. Chunk boundaries depend only on the problem
     size, and every output row is computed by exactly one chunk with
     the same arithmetic, so pool size cannot change a single bit.
   - [?cols] restricts the computed output columns to the given sorted
     live intervals (a [Bands] occupancy's view of the right operand);
     skipped columns keep the +0.0 of the fresh output buffer. Callers
     pass it only when the skipped columns are provably zero in the
     dense result too (left operand finite, right-operand columns dead),
     which keeps the sparse and dense paths bit-identical. The
     [MAT_NAIVE=1] escape hatch ignores [?cols] and computes the dense
     product — same bits, by the same argument. *)

(* i-k-j loop order: the inner loop walks both [b] and [out] contiguously. *)
let matmul_naive a b =
  if a.cols <> b.rows then invalid_arg "Mat.matmul: inner dimension mismatch";
  let m = a.rows and k = a.cols and n = b.cols in
  let out = Array.make (m * n) 0.0 in
  Mat_kern.naive_into ~m ~k ~n a.data b.data out;
  { rows = m; cols = n; data = out }

let use_naive = Mat_kern.use_naive

(* Below this many multiply-adds the pool dispatch overhead outweighs the
   parallel win; the blocked kernel runs on the calling domain. *)
let par_threshold = 32_768

(* Row-chunking: ~[par_threshold/8] multiply-adds per chunk (so wide
   products split into single-row chunks and narrow ones into fat row
   bands), floored so a job never splits into more than 2 chunks per
   domain — each chunk claim is a mutex round-trip, and on heavily
   oversubscribed machines that dispatch overhead would otherwise eat
   the blocked kernel's win. Every output row is computed entirely by
   one chunk with the same arithmetic, so chunk boundaries (and hence
   the pool size) cannot change a bit of the result. *)
let with_rows ?pool ~rows ~row_work body =
  match pool with
  | Some p when Dpool.size p > 1 && rows * row_work >= par_threshold ->
      let balance = 2 * Dpool.size p in
      let chunk =
        max ((rows + balance - 1) / balance)
          ((par_threshold / 8 / max 1 row_work) + 1)
      in
      Dpool.run_ranges p ~n:rows ~chunk (fun ~start ~stop -> body start stop)
  | _ -> body 0 rows

let matmul ?pool ?cols a b =
  if a.cols <> b.rows then invalid_arg "Mat.matmul: inner dimension mismatch";
  if use_naive then matmul_naive a b
  else begin
    let m = a.rows and k = a.cols and n = b.cols in
    let out = Array.make (m * n) 0.0 in
    with_rows ?pool ~rows:m ~row_work:(k * n) (fun r0 r1 ->
        Mat_kern.with_jtiles ?cols ~n (Mat_kern.mm_rows ~k ~n a.data b.data out)
          r0 r1);
    { rows = m; cols = n; data = out }
  end

let matmul_ta ?pool ?cols a b =
  if a.rows <> b.rows then invalid_arg "Mat.matmul_ta: inner dimension mismatch";
  if use_naive then matmul_naive (transpose a) b
  else begin
    let m = a.cols and k = a.rows and n = b.cols in
    let out = Array.make (m * n) 0.0 in
    with_rows ?pool ~rows:m ~row_work:(k * n) (fun r0 r1 ->
        Mat_kern.with_jtiles ?cols ~n
          (Mat_kern.mm_ta_rows ~k ~m ~n a.data b.data out)
          r0 r1);
    { rows = m; cols = n; data = out }
  end

let matmul_tb ?pool ?cols a b =
  if a.cols <> b.cols then invalid_arg "Mat.matmul_tb: inner dimension mismatch";
  if use_naive then matmul_naive a (transpose b)
  else begin
    let m = a.rows and k = a.cols and n = b.rows in
    let out = Array.make (m * n) 0.0 in
    with_rows ?pool ~rows:m ~row_work:(k * n) (fun r0 r1 ->
        Mat_kern.with_jtiles ?cols ~n (Mat_kern.mm_tb_rows ~k ~n a.data b.data out)
          r0 r1);
    { rows = m; cols = n; data = out }
  end

let gemm ?pool ?(ta = false) ?(tb = false) a b =
  match (ta, tb) with
  | false, false -> matmul ?pool a b
  | true, false -> matmul_ta ?pool a b
  | false, true -> matmul_tb ?pool a b
  | true, true -> matmul_tb ?pool (transpose a) b

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
