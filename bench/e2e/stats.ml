(* Order statistics shared by the benchmark and [compare]. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile, [q] in (0, 1]: the value with at least
   [q * n] samples at or below it. *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(min (n - 1) (max 0 (int_of_float (ceil (q *. float_of_int n)) - 1)))

(* First and third quartile exactly as Python's
   [statistics.quantiles(xs, n=4)] (the default "exclusive" method), so
   the spread [compare] reports is the one the benchmark is judged by. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (0.0, 0.0)
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)
