(* Bracket search over a monotone radius predicate.

   The sequential executor is a margin-guided search on bisection's
   dyadic grid: each probe reports its margin with its outcome, and the
   next grid point is placed by regula falsi between the two bracket
   margins, with bisection as the fallback. It only ever probes radii
   that float bisection could have probed, so on a monotone predicate
   it returns bisection's bracket. The grid executor evaluates n
   deterministic radii per round concurrently and folds the outcomes in
   RADIUS ORDER: the new bracket is the largest contiguous all-Good
   prefix, so the result depends only on the probed radii and the
   predicate — never on which probe finished first. With n = 1 the grid
   degenerates to bisection bit-for-bit (the midpoint is special-cased to
   the 0.5 *. (g +. b) formula). *)

type outcome = Good of float | Bad of float | Faulted of Verdict.unknown_reason

type probe = float -> outcome

type runner = probe -> float array -> outcome array

type executor = Sequential | Grid of int

type stats = {
  bracket_probes : int;
  bisect_probes : int;
  rounds : int;
  faulted : (float * Verdict.unknown_reason) list;
}

type result = { radius : float; good : float; bad : float; stats : stats }

let probe_of certifies r =
  match certifies r with
  | true -> Good nan
  | false -> Bad nan
  | exception Verdict.Abort reason -> Faulted reason
  | exception Zonotope.Unbounded -> Faulted Verdict.Unbounded

(* ---------------- generic wave runners ---------------- *)

(* The scheduling substrate shared by the radius probes below and by
   Brefine's branch waves: evaluate [f 0 .. f (n-1)], return results in
   index order. Results must be plain data (they may cross the Marshal
   boundary), and [f] must be deterministic — a crashed fork worker is
   never retried, it is mapped through [crash]. *)
type 'r wave = (int -> 'r) -> int -> 'r array

let serial_wave f n =
  if n = 0 then [||]
  else begin
    (* explicit ascending loop: the evaluation order is part of the
       determinism contract, not an Array.init implementation detail *)
    let out = Array.make n (f 0) in
    for i = 1 to n - 1 do
      out.(i) <- f i
    done;
    out
  end

(* One forked process per index over the Supervisor plumbing. The work
   closure is inherited by fork, not marshalled; only the result crosses
   the pipe. A crashed worker surfaces as [crash reason] in its slot. *)
let fork_wave ~crash f n =
  if n = 0 then [||]
  else if Tensor.Dpool.domains_active () then
    (* The OCaml 5 runtime forbids Unix.fork while worker domains are
       live (e.g. a --domains pool built for a shared prefix): degrade
       to in-process evaluation rather than crash. *)
    serial_wave f n
  else begin
    (* Forked children inherit buffered stdio; flush now or every worker
       re-emits the parent's pending output on exit. *)
    flush stdout;
    flush stderr;
    let jobs = List.init n (fun i -> (i, i)) in
    let pool = Config.pool ~workers:n ~max_retries:0 () in
    let results = Supervisor.run ~pool ~worker:(fun _ i -> f i) jobs in
    let out = Array.make n None in
    List.iter
      (fun (r : _ Supervisor.job_result) ->
        out.(r.Supervisor.job) <-
          Some
            (match r.Supervisor.outcome with
            | Ok o -> o
            | Error fl -> crash (Supervisor.failure_reason fl)))
      results;
    Array.map
      (function Some r -> r | None -> crash Verdict.Worker_crashed)
      out
  end

(* ---------------- probe runners ---------------- *)

let serial_runner probe radii =
  serial_wave (fun i -> probe radii.(i)) (Array.length radii)

(* Probes are deterministic, so a crashed worker is not retried — the
   crash is reported as a Faulted outcome (counted "bad" by the fold)
   instead of being re-run to crash again. Outcomes are plain data (no
   closures), so they cross the Marshal boundary unchanged. *)
let fork_runner probe radii =
  fork_wave
    ~crash:(fun reason -> Faulted reason)
    (fun i -> probe radii.(i))
    (Array.length radii)

(* ---------------- the search ---------------- *)

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

(* Sequential: probe the grid midpoint first and [hi] only when it
   certifies, grow past [hi] as bisection does (hi, 2hi, 4hi, 8hi; stop
   at the first failure), then refine the bracket on its
   [2^iters]-step grid until a certified point (or [lo]) and a failed
   one are adjacent. A fault counts Bad with an unknown ([nan]) margin. *)
let sequential ~lo ~hi ~iters probe =
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
        rounds = 0;
        faulted = List.rev !faulted;
      };
  }

(* Fold one wave of outcomes in radius order (points ascending): the new
   [good] is the last point of the leading all-Good prefix, the new [bad]
   the first non-Good point. Every outcome after the first non-Good is
   ignored for the bracket (it was speculative work), but its faults are
   still recorded. *)
let fold_wave ~good ~bad ~faulted points outcomes =
  let n = Array.length points in
  let first_bad = ref n in
  for i = 0 to n - 1 do
    (match outcomes.(i) with
    | Good _ -> ()
    | Bad _ -> if !first_bad = n then first_bad := i
    | Faulted reason ->
        if !first_bad = n then first_bad := i;
        faulted := (points.(i), reason) :: !faulted)
  done;
  let good = if !first_bad > 0 then points.(!first_bad - 1) else good in
  let bad = if !first_bad < n then points.(!first_bad) else bad in
  (good, bad)

(* Smallest round count whose final bracket width is at most
   bisection's. Bisection: width W / 2^iters. Grid: each round divides
   the width by n+1, and when the bracket came from wave-0's interior
   points it already starts n-times narrower than bisection's [lo, hi],
   which is worth crediting: n * (n+1)^R >= 2^iters. *)
let default_rounds ~n ~iters ~wave0_credit =
  if iters <= 0 then 0
  else begin
    let target = 2.0 ** float_of_int iters in
    let target = if wave0_credit then target /. float_of_int n else target in
    let base = float_of_int (n + 1) in
    let r = ref 0 and w = ref 1.0 in
    while !w < target do
      incr r;
      w := !w *. base
    done;
    !r
  end

let grid ~n ~lo ~hi ~iters ~rounds ~runner probe =
  let bracket_probes = ref 0 and bisect_probes = ref 0 in
  let faulted = ref [] in
  let run points =
    let outcomes = runner probe points in
    if Array.length outcomes <> Array.length points then
      invalid_arg "Psearch: runner returned wrong arity";
    outcomes
  in
  (* Wave 0: speculative split of [lo, hi] into n subintervals; the top
     point is exactly [hi] so n = 1 probes the sequential start. *)
  let span = hi -. lo in
  let points =
    Array.init n (fun i ->
        let k = i + 1 in
        if k = n then hi else lo +. (span *. float_of_int k /. float_of_int n))
  in
  bracket_probes := !bracket_probes + n;
  let good, bad = fold_wave ~good:lo ~bad:infinity ~faulted points (run points) in
  let wave0_credit = bad <> infinity && n > 1 in
  (* Growth waves: the predicate held everywhere up to [hi]; double past
     it like the sequential search (which stops at 8 * hi). *)
  let good = ref good and bad = ref bad in
  while !bad = infinity && !good < hi *. 8.0 do
    let top = !good in
    let points = Array.init n (fun i -> top *. (2.0 ** float_of_int (i + 1))) in
    bracket_probes := !bracket_probes + n;
    let g, b = fold_wave ~good:!good ~bad:!bad ~faulted points (run points) in
    good := g;
    bad := b
  done;
  let rounds_done = ref 0 in
  if !bad <> infinity then begin
    let nrounds =
      match rounds with
      | Some r -> r
      | None -> default_rounds ~n ~iters ~wave0_credit
    in
    for _ = 1 to nrounds do
      let g = !good and b = !bad in
      let points =
        if n = 1 then [| 0.5 *. (g +. b) |]
        else
          Array.init n (fun i ->
              g +. ((b -. g) *. float_of_int (i + 1) /. float_of_int (n + 1)))
      in
      bisect_probes := !bisect_probes + n;
      let g, b = fold_wave ~good:g ~bad:b ~faulted points (run points) in
      good := g;
      bad := b;
      incr rounds_done
    done
  end;
  {
    radius = !good;
    good = !good;
    bad = !bad;
    stats =
      {
        bracket_probes = !bracket_probes;
        bisect_probes = !bisect_probes;
        rounds = !rounds_done;
        faulted = List.rev !faulted;
      };
  }

(* Grid indices are ints: 2^iters must stay well inside max_int. *)
let max_iters = 60

let search ?(lo = 0.0) ?(hi = 0.5) ?(iters = 10) ?rounds ?(exec = Sequential)
    ?(runner = serial_runner) probe =
  if hi <= lo then invalid_arg "Psearch.search: hi <= lo";
  if not (Float.is_finite hi && Float.is_finite lo) then
    invalid_arg "Psearch.search: bracket must be finite";
  if iters < 0 || iters > max_iters then
    invalid_arg "Psearch.search: iters outside [0, 60]";
  match exec with
  | Sequential -> sequential ~lo ~hi ~iters probe
  | Grid n ->
      if n < 1 then invalid_arg "Psearch.search: Grid needs n >= 1";
      grid ~n ~lo ~hi ~iters ~rounds ~runner probe
