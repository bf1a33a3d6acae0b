(* Bracket search over a monotone radius predicate.

   A margin-guided search on bisection's dyadic grid: each probe reports
   its margin with its outcome, and the next grid point is placed by
   regula falsi between the two bracket margins, with bisection as the
   fallback. It only ever probes radii that float bisection could have
   probed, so on a monotone predicate it returns bisection's bracket. *)

type outcome = Good of float | Bad of float | Faulted of Verdict.unknown_reason

type probe = float -> outcome

type stats = {
  bracket_probes : int;
  bisect_probes : int;
  faulted : (float * Verdict.unknown_reason) list;
}

type result = { radius : float; good : float; bad : float; stats : stats }

let probe_of certifies r =
  match certifies r with
  | true -> Good nan
  | false -> Bad nan
  | exception Verdict.Abort reason -> Faulted reason
  | exception Zonotope.Unbounded -> Faulted Verdict.Unbounded

(* Point [k] of the [n]-step grid over [g, b] ([n] a power of two): the
   float that bisection of [g, b] computes when its bracket narrows onto
   [k], by replaying its 0.5 *. (good +. bad) midpoint recursion. *)
let grid_point ~n g b k =
  let rec go i j g b =
    if k = i then g
    else if k = j then b
    else
      let m = (i + j) / 2 and mid = 0.5 *. (g +. b) in
      if k < m then go i m g mid else go m j mid b
  in
  go 0 n g b

(* The next grid index strictly inside (i, j): regula falsi between the
   bracket margins [mi] (certified end) and [mj] (failed end), rounded
   to the nearest index; the midpoint index when [bisect] is set or the
   margins cannot be interpolated. *)
let next_index ~bisect i mi j mj =
  if bisect || not (Float.is_finite mi && Float.is_finite mj && mi > mj) then
    i + ((j - i) / 2)
  else
    let x = float_of_int i +. (float_of_int (j - i) *. mi /. (mi -. mj)) in
    max (i + 1) (min (j - 1) (int_of_float (Float.round x)))

type kept = Neither | Kept_good | Kept_bad

(* Probe the grid midpoint first and [hi] only when it certifies, grow
   past [hi] as bisection does (hi, 2hi, 4hi, 8hi; stop at the first
   failure), then refine the bracket on its [2^iters]-step grid until a
   certified point (or [lo]) and a failed one are adjacent. A fault
   counts Bad with an unknown ([nan]) margin. *)
let run ~lo ~hi ~iters probe =
  let bracket_probes = ref 0 and bisect_probes = ref 0 in
  let faulted = ref [] in
  let eval count r =
    incr count;
    match probe r with
    | Good m -> (true, m)
    | Bad m -> (false, m)
    | Faulted reason ->
        faulted := (r, reason) :: !faulted;
        (false, nan)
  in
  let n = 1 lsl iters in
  (* Refine the bracket (i, j) of the n-step grid over [g, b]. Illinois
     rule: an end kept twice in a row has its margin halved. [w1] and
     [w2] are the widths before the last two probes; when those probes
     did not halve the bracket, the next one bisects, so the bracket
     halves at least once in every three probes. *)
  let refine ~g ~b (i, mi) (j, mj) =
    let point = grid_point ~n g b in
    let rec go i mi j mj kept w1 w2 =
      let w = j - i in
      if w <= 1 then (point i, point j)
      else
        let k = next_index ~bisect:(2 * w > w2) i mi j mj in
        match eval bisect_probes (point k) with
        | true, m ->
            let mj = if kept = Kept_bad then mj /. 2.0 else mj in
            go k m j mj Kept_bad w w1
        | false, m ->
            let mi = if kept = Kept_good then mi /. 2.0 else mi in
            go i mi k m Kept_good w w1
    in
    go i mi j mj Neither max_int max_int
  in
  (* Growth past a certified [good]: probe r, 2r, 4r, ... ([k] probes at
     most) and refine [good, first failure] on a fresh grid. *)
  let rec grow k good mg r =
    if k = 0 then (good, infinity)
    else
      match eval bracket_probes r with
      | true, m -> grow (k - 1) r m (r *. 2.0)
      | false, m -> refine ~g:good ~b:r (0, mg) (n, m)
  in
  let good, bad =
    (* with no grid midpoint, growth alone decides the bracket *)
    if iters = 0 then grow 4 lo nan hi
    else
      match eval bisect_probes (0.5 *. (lo +. hi)) with
      | false, m -> refine ~g:lo ~b:hi (0, nan) (n / 2, m)
      | true, m -> (
          match eval bracket_probes hi with
          | false, mh -> refine ~g:lo ~b:hi (n / 2, m) (n, mh)
          | true, mh -> grow 3 hi mh (2.0 *. hi))
  in
  {
    radius = good;
    good;
    bad;
    stats =
      {
        bracket_probes = !bracket_probes;
        bisect_probes = !bisect_probes;
        faulted = List.rev !faulted;
      };
  }

(* Grid indices are ints: 2^iters must stay well inside max_int. *)
let max_iters = 60

let search ?(lo = 0.0) ?(hi = 0.5) ?(iters = 10) probe =
  if hi <= lo then invalid_arg "Psearch.search: hi <= lo";
  if not (Float.is_finite hi && Float.is_finite lo) then
    invalid_arg "Psearch.search: bracket must be finite";
  if iters < 0 || iters > max_iters then
    invalid_arg "Psearch.search: iters outside [0, 60]";
  run ~lo ~hi ~iters probe
