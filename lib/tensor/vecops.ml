let check_same a b name =
  if Array.length a <> Array.length b then invalid_arg ("Vecops." ^ name ^ ": length mismatch")

let dot a b =
  check_same a b "dot";
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (Array.unsafe_get a i *. Array.unsafe_get b i)
  done;
  !acc

(* Direct loops: without flambda an [Array.map]/[fold_left] float
   closure boxes every element. *)
let add a b =
  check_same a b "add";
  let out = Array.make (Array.length a) 0.0 in
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set out i (Array.unsafe_get a i +. Array.unsafe_get b i)
  done;
  out

let sub a b =
  check_same a b "sub";
  let out = Array.make (Array.length a) 0.0 in
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set out i (Array.unsafe_get a i -. Array.unsafe_get b i)
  done;
  out

let scale s v =
  let out = Array.make (Array.length v) 0.0 in
  for i = 0 to Array.length v - 1 do
    Array.unsafe_set out i (s *. Array.unsafe_get v i)
  done;
  out

let axpy a x y =
  check_same x y "axpy";
  for i = 0 to Array.length y - 1 do
    Array.unsafe_set y i (Array.unsafe_get y i +. (a *. Array.unsafe_get x i))
  done

let l1 v =
  let acc = ref 0.0 in
  for i = 0 to Array.length v - 1 do
    acc := !acc +. Float.abs (Array.unsafe_get v i)
  done;
  !acc

let linf v =
  let acc = ref 0.0 in
  for i = 0 to Array.length v - 1 do
    acc := Float.max !acc (Float.abs (Array.unsafe_get v i))
  done;
  !acc

(* Scaled two-pass form: naive summing of squares overflows for entries
   beyond ~1e154, which certification of saturated softmax layers hits. *)
let l2 v =
  let m = linf v in
  if m = 0.0 || not (Float.is_finite m) then m
  else begin
    let acc = ref 0.0 in
    for i = 0 to Array.length v - 1 do
      let r = Array.unsafe_get v i /. m in
      acc := !acc +. (r *. r)
    done;
    m *. sqrt !acc
  end

let lp v p =
  if p = 1.0 then l1 v
  else if p = 2.0 then l2 v
  else if p = infinity then linf v
  else if p < 1.0 then invalid_arg "Vecops.lp: p must be >= 1"
  else (Array.fold_left (fun acc x -> acc +. (Float.abs x ** p)) 0.0 v) ** (1.0 /. p)

let sum v = Array.fold_left ( +. ) 0.0 v
let mean v = if Array.length v = 0 then 0.0 else sum v /. float_of_int (Array.length v)
let max v = Array.fold_left Float.max neg_infinity v
let min v = Array.fold_left Float.min infinity v

let argmax v =
  if Array.length v = 0 then invalid_arg "Vecops.argmax: empty";
  let best = ref 0 in
  for i = 1 to Array.length v - 1 do
    if v.(i) > v.(!best) then best := i
  done;
  !best

let logsumexp v =
  let m = max v in
  if m = neg_infinity then neg_infinity
  else m +. log (Array.fold_left (fun acc x -> acc +. exp (x -. m)) 0.0 v)

let softmax v =
  let m = max v in
  let e = Array.map (fun x -> exp (x -. m)) v in
  let s = sum e in
  Array.map (fun x -> x /. s) e

let approx_equal ?(tol = 1e-9) a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= tol) a b
