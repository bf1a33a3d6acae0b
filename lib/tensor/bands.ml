(* Column-band occupancy: a small over-approximation of the nonzero
   support of a coefficient matrix. See bands.mli for the invariant
   (outside the band union |x| = 0.0; inside, no promise) and for why
   [full] is always a sound fallback.

   Everything here is shape-relative: a [t] carries no matrix
   dimensions of its own, and [Full] means "all of whatever matrix this
   annotates". Extractors take the concrete shape and clip. *)

type band = { col_lo : int; col_hi : int; row_lo : int; row_hi : int }

(* The row-slab table of a band list (DESIGN.md section 14). [edges] are
   the distinct row boundaries of the bands, ascending, so each band
   either covers slab [k] = rows [edges.(k), edges.(k + 1)) or misses
   it; [slabs.(k)] is the sorted, disjoint union of the column ranges of
   the bands covering slab [k], and [all] the union over every row.
   [col_min]/[col_max] bound every column range, so a query whose width
   covers them returns a cached list as it is. [blocks] caches the
   unions over aligned row blocks of one height (a value row's
   variables), which the per-value-row kernels ask for. *)
type table = {
  edges : int array;
  slabs : (int * int) list array;
  all : (int * int) list;
  col_min : int;
  col_max : int;
  blocks : (int * (int * int) list array) option Atomic.t;
}
(* The band list of an occupancy is in normal form ([normalize]). Its
   table is built on the first row query and cached: domains that race
   on a cold cache each build the same table and publish it through the
   atomic, so a reader sees either no table or a whole one. *)
type t = Full | Bands of { bands : band list; table : table option Atomic.t }

let enabled =
  match Sys.getenv_opt "DEEPT_NO_SPARSE" with
  | None | Some "" | Some "0" -> true
  | Some _ -> false

let normal bands = Bands { bands; table = Atomic.make None }
let full = Full
let empty = normal []

(* Bands are maintained per value row of the op that minted the
   symbols, so a deep network accumulates one band per (nonlinear op x
   value row). Past this cap neighbouring bands (sorted by column) are
   coalesced into bounding boxes: coarser but still sound, and it
   bounds the band list every transform walks and the slab table a row
   query reads. *)
let max_bands = 128

let icmp (x : int) y = if x < y then -1 else if x > y then 1 else 0

let degenerate b = b.col_lo >= b.col_hi || b.row_lo >= b.row_hi

let contains outer inner =
  outer.col_lo <= inner.col_lo
  && inner.col_hi <= outer.col_hi
  && outer.row_lo <= inner.row_lo
  && inner.row_hi <= outer.row_hi

let bbox a b =
  {
    col_lo = min a.col_lo b.col_lo;
    col_hi = max a.col_hi b.col_hi;
    row_lo = min a.row_lo b.row_lo;
    row_hi = max a.row_hi b.row_hi;
  }

(* Merge exactly when the union is itself a rectangle (containment, or
   equal rows with touching columns, or equal columns with touching
   rows) — those merges lose nothing. Bands whose columns neither
   overlap nor touch never merge. *)
let try_merge a b =
  if b.col_lo > a.col_hi || a.col_lo > b.col_hi then None
  else if contains a b then Some a
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

let rec cap bs =
  if List.length bs <= max_bands then bs
  else
    let rec pairup = function
      | a :: b :: tl -> bbox a b :: pairup tl
      | l -> l
    in
    cap (pairup bs)

let compare_band a b =
  if a.col_lo <> b.col_lo then icmp a.col_lo b.col_lo
  else if a.row_lo <> b.row_lo then icmp a.row_lo b.row_lo
  else if a.col_hi <> b.col_hi then icmp a.col_hi b.col_hi
  else icmp a.row_hi b.row_hi

let rec is_sorted = function
  | a :: (b :: _ as tl) -> compare_band a b <= 0 && is_sorted tl
  | _ -> true

(* Linear merge against the accumulator head; a merged band keeps the
   head's col_lo, so the list stays sorted and two passes catch the
   chains one pass leaves behind. Then the cap. *)
let merge_passes bs =
  (* a pass that merges nothing returns its input *)
  let rec quiet = function
    | a :: (b :: _ as tl) -> try_merge a b = None && quiet tl
    | _ -> true
  in
  let pass bs =
    if quiet bs then bs
    else
      List.rev
        (List.fold_left
           (fun acc b ->
             match acc with
             | prev :: tl -> (
                 match try_merge prev b with
                 | Some m -> m :: tl
                 | None -> b :: prev :: tl)
             | [] -> [ b ])
           [] bs)
  in
  cap (pass (pass bs))

(* A list that is already sorted skips the sort, which would return it
   unchanged (equal bands are identical). *)
let normalize bs =
  let bs =
    if List.exists degenerate bs then List.filter (fun b -> not (degenerate b)) bs
    else bs
  in
  merge_passes (if is_sorted bs then bs else List.sort compare_band bs)

let of_bands bs = normal (normalize bs)

(* A band list is canonical when all its bands span the same rows and
   their column ranges ascend with a gap between neighbours, at most
   [max_bands] of them. [normalize] returns such a list as it is: the
   sort keeps it (distinct [col_lo]s, ascending), no two bands touch, so
   no pass merges, and the cap does not fire. Changing the common row
   range to another non-empty one keeps it canonical, and two canonical
   lists over the same rows normalize together to the canonical union
   of their column ranges ([union]). The per-output occupancies of the
   stable softmax are all of this kind. *)
let canonical = function
  | [] -> true
  | b :: _ as bs ->
      let rec go n prev = function
        | [] -> n <= max_bands
        | c :: tl ->
            c.row_lo = b.row_lo && c.row_hi = b.row_hi && c.col_lo > prev.col_hi
            && c.col_lo < c.col_hi && go (n + 1) c tl
      in
      b.col_lo < b.col_hi && b.row_lo < b.row_hi && go 1 b (List.tl bs)

let clip ~rows ~cols b =
  {
    col_lo = max 0 b.col_lo;
    col_hi = min cols b.col_hi;
    row_lo = max 0 b.row_lo;
    row_hi = min rows b.row_hi;
  }

let to_bands ~rows ~cols = function
  | Full ->
      if rows > 0 && cols > 0 then
        [ { col_lo = 0; col_hi = cols; row_lo = 0; row_hi = rows } ]
      else []
  | Bands { bands; _ } ->
      List.filter
        (fun b -> not (degenerate b))
        (List.map (clip ~rows ~cols) bands)

let is_full = function Full -> true | Bands _ -> false

let is_empty t = enabled && match t with Bands { bands = []; _ } -> true | _ -> false

(* The canonical union of two canonical lists over the same rows: a
   linear merge of their column ranges by [col_lo], joining ranges that
   touch, then the cap. *)
let union_canonical xs ys =
  let push acc b =
    match acc with
    | p :: tl when b.col_lo <= p.col_hi -> { p with col_hi = max p.col_hi b.col_hi } :: tl
    | _ -> b :: acc
  in
  let rec go acc xs ys =
    match (xs, ys) with
    | [], [] -> List.rev acc
    | b :: tl, [] | [], b :: tl -> go (push acc b) tl []
    | x :: xt, y :: yt ->
        if x.col_lo <= y.col_lo then go (push acc x) xt ys else go (push acc y) xs yt
  in
  cap (go [] xs ys)

let same_rows xs ys =
  match (xs, ys) with
  | x :: _, y :: _ -> x.row_lo = y.row_lo && x.row_hi = y.row_hi
  | _ -> true

let union a b =
  match (a, b) with
  | Full, _ | _, Full -> Full
  | Bands { bands = xs; _ }, Bands { bands = ys; _ } ->
      if same_rows xs ys && canonical xs && canonical ys then
        normal (union_canonical xs ys)
      else
        (* both lists are free of degenerate bands, and when each is
           sorted (a merge pass can leave a list sorted by [col_lo]
           only), merging them is [normalize]'s sort of the
           concatenation *)
        normal
          (merge_passes
             (if is_sorted xs && is_sorted ys then List.merge compare_band xs ys
              else List.sort compare_band (xs @ ys)))

let add t b = union t (of_bands [ b ])

(* [f] rewrites only a band's rows, as a function of its rows alone, so
   a canonical list stays canonical under it unless its rows go empty. *)
let map_rows f = function
  | Full -> Full
  | Bands { bands = b :: _ as bs; _ } when canonical bs ->
      let r = f b in
      if r.row_lo < r.row_hi then
        normal (List.map (fun c -> { c with row_lo = r.row_lo; row_hi = r.row_hi }) bs)
      else empty
  | Bands { bands; _ } -> of_bands (List.map f bands)

let shift_rows d t =
  map_rows (fun b -> { b with row_lo = b.row_lo + d; row_hi = b.row_hi + d }) t

let restrict_rows ~lo ~hi t =
  map_rows
    (fun b ->
      let rlo = max lo b.row_lo and rhi = min hi b.row_hi in
      if rlo < rhi then { b with row_lo = rlo - lo; row_hi = rhi - lo }
      else { b with row_lo = 0; row_hi = 0 })
    t

let widen_rows ~rows t = map_rows (fun b -> { b with row_lo = 0; row_hi = rows }) t

let block_rows ~bin ~bout t =
  if bin <= 0 || bout <= 0 then Full
  else
    map_rows
      (fun b ->
        {
          b with
          row_lo = b.row_lo / bin * bout;
          row_hi = (b.row_hi + bin - 1) / bin * bout;
        })
      t

(* ---------------- row queries ---------------- *)

(* The sorted, disjoint union of half-open intervals given sorted by
   [lo], touching ones joined; a list with a gap between every two
   neighbours is its own union. *)
let merge_sorted ivs =
  let rec gaps = function
    | (_, hi) :: ((lo, _) :: _ as tl) -> hi < lo && gaps tl
    | _ -> true
  in
  if gaps ivs then ivs
  else
    List.rev
      (List.fold_left
         (fun acc (lo, hi) ->
           match acc with
           | (plo, phi) :: tl when lo <= phi -> (plo, max phi hi) :: tl
           | _ -> (lo, hi) :: acc)
         [] ivs)

(* Bands come sorted by [col_lo] (normal form), so walking them from the
   last leaves every slab's column ranges sorted by their start. A
   canonical list is one slab whose column ranges are already merged. *)
let build bands =
  let edges, slabs =
    match bands with
    | b :: _ when canonical bands ->
        ([| b.row_lo; b.row_hi |], [| List.map (fun b -> (b.col_lo, b.col_hi)) bands |])
    | _ ->
        (* insertion into the sorted distinct prefix [a.(0 .. n-1)] *)
        let a = Array.make (2 * List.length bands) 0 and n = ref 0 in
        let insert e =
          let j = ref !n in
          while !j > 0 && a.(!j - 1) > e do
            decr j
          done;
          if !j = 0 || a.(!j - 1) <> e then begin
            Array.blit a !j a (!j + 1) (!n - !j);
            a.(!j) <- e;
            incr n
          end
        in
        List.iter
          (fun b ->
            insert b.row_lo;
            insert b.row_hi)
          bands;
        let edges = Array.sub a 0 !n in
        (* index of row boundary [r] in [edges] *)
        let index r =
          let lo = ref 0 and hi = ref (Array.length edges - 1) in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            if edges.(mid) < r then lo := mid + 1 else hi := mid
          done;
          !lo
        in
        let acc = Array.make (Array.length edges - 1) [] in
        List.iter
          (fun b ->
            for k = index b.row_lo to index b.row_hi - 1 do
              acc.(k) <- (b.col_lo, b.col_hi) :: acc.(k)
            done)
          (List.rev bands);
        (edges, Array.map merge_sorted acc)
  in
  {
    edges;
    slabs;
    all = merge_sorted (List.map (fun b -> (b.col_lo, b.col_hi)) bands);
    col_min = List.fold_left (fun m b -> min m b.col_lo) 0 bands;
    col_max = List.fold_left (fun m b -> max m b.col_hi) 0 bands;
    blocks = Atomic.make None;
  }

let table cache bands =
  match Atomic.get cache with
  | Some t -> t
  | None ->
      let t = build bands in
      Atomic.set cache (Some t);
      t

let rec clip_intervals cols = function
  | [] -> []
  | (lo, hi) :: tl ->
      let lo = max 0 lo and hi = min cols hi in
      if lo < hi then (lo, hi) :: clip_intervals cols tl else clip_intervals cols tl

let clipped tb cols ivs =
  if tb.col_min >= 0 && tb.col_max <= cols then ivs else clip_intervals cols ivs

(* Number of entries of the ascending [edges] that are [<= r]. *)
let upper_bound (edges : int array) r =
  let lo = ref 0 and hi = ref (Array.length edges) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if edges.(mid) <= r then lo := mid + 1 else hi := mid
  done;
  !lo

let col_intervals ~cols t =
  if cols <= 0 then []
  else
    match t with
    | Full -> [ (0, cols) ]
    | _ when not enabled -> [ (0, cols) ]
    | Bands { bands = []; _ } -> []
    | Bands { bands; table = cache } ->
        let tb = table cache bands in
        clipped tb cols tb.all

let repeat_intervals ~times ~cols t =
  let ivs = col_intervals ~cols t in
  List.concat_map
    (fun j -> List.map (fun (lo, hi) -> ((j * cols) + lo, (j * cols) + hi)) ivs)
    (List.init times Fun.id)

(* Slabs [k0, k1] are those meeting rows [lo, hi): slab k meets them iff
   edges.(k) < hi and lo < edges.(k + 1). *)
let slab_range tb ~lo ~hi =
  let k = upper_bound tb.edges lo - 1 in
  ( max 0 k,
    min (Array.length tb.slabs - 1)
      (if hi = lo + 1 then k else upper_bound tb.edges (hi - 1) - 1) )

(* The union of the column lists of slabs [k0, k1], unclipped: each
   list is sorted, so merging them by [lo] two at a time keeps the
   running list sorted for [merge_sorted]. *)
let union_slabs tb (k0, k1) =
  if k0 > k1 then []
  else begin
    let ivs = ref tb.slabs.(k0) in
    for k = k0 + 1 to k1 do
      ivs := List.merge (fun (a, _) (b, _) -> icmp a b) !ivs tb.slabs.(k)
    done;
    if k0 = k1 then !ivs else merge_sorted !ivs
  end

(* The unions over the row blocks [i * h, (i + 1) * h) that meet a band,
   built on the first block query of height [h] and cached until one of
   another height replaces them. *)
let blocks tb h =
  match Atomic.get tb.blocks with
  | Some (h', bs) when h' = h -> bs
  | _ ->
      let last = tb.edges.(Array.length tb.edges - 1) in
      let bs =
        Array.init
          (max 0 ((last + h - 1) / h))
          (fun i -> union_slabs tb (slab_range tb ~lo:(i * h) ~hi:((i + 1) * h)))
      in
      Atomic.set tb.blocks (Some (h, bs));
      bs

(* A single row reads its slab's list. A block of rows aligned to its
   height (the kernels' per-value-row queries) reads its cached union,
   any other range merges the lists of the slabs it meets. *)
let row_intervals ~lo ~hi ~cols t =
  if cols <= 0 then []
  else
    match t with
    | Full -> [ (0, cols) ]
    | _ when not enabled -> [ (0, cols) ]
    | Bands { bands = []; _ } -> []
    | Bands { bands; table = cache } ->
        if lo >= hi then []
        else
          let tb = table cache bands in
          let h = hi - lo in
          let ivs =
            if h > 1 && lo >= 0 && lo mod h = 0 then
              let bs = blocks tb h in
              if lo / h < Array.length bs then bs.(lo / h) else []
            else union_slabs tb (slab_range tb ~lo ~hi)
          in
          clipped tb cols ivs

let dead_cols ~cols t =
  let n = max 0 cols in
  match t with
  | Full -> Array.make n false
  | _ when not enabled -> Array.make n false
  | Bands { bands; _ } ->
      let dead = Array.make n true in
      List.iter
        (fun b ->
          for c = max 0 b.col_lo to min n b.col_hi - 1 do
            dead.(c) <- false
          done)
        bands;
      dead

let remap_cols f t =
  match t with
  | Full -> Full
  | Bands { bands; _ } ->
      of_bands
        (List.filter_map
           (fun b ->
             (* f is monotone on kept columns, so the image of a
                contiguous range is contiguous: min/max of the kept
                images bound it exactly. *)
             let nlo = ref max_int and nhi = ref min_int in
             for c = b.col_lo to b.col_hi - 1 do
               match f c with
               | Some c' ->
                   if c' < !nlo then nlo := c';
                   if c' + 1 > !nhi then nhi := c' + 1
               | None -> ()
             done;
             if !nlo < !nhi then Some { b with col_lo = !nlo; col_hi = !nhi }
             else None)
           bands)

(* A band meeting the gap is split there rather than stretched across it
   (remap_cols's contiguous image would do that): the inserted columns
   stay dead, and a band that merged with its neighbour across [at]
   comes apart as the two bands it was built from. *)
let insert_gap ~rows ~cols ~at ~by t =
  if by <= 0 then t
  else
    let shift b = { b with col_lo = b.col_lo + by; col_hi = b.col_hi + by } in
    let bs =
      match t with
      | Full -> to_bands ~rows ~cols Full
      | Bands { bands; _ } -> bands
    in
    of_bands
      (List.concat_map
         (fun b ->
           if b.col_hi <= at then [ b ]
           else if b.col_lo >= at then [ shift b ]
           else [ { b with col_hi = at }; shift { b with col_lo = at } ])
         bs)

let mem t ~row ~col =
  match t with
  | Full -> true
  | _ when not enabled -> true
  | Bands { bands; _ } ->
      List.exists
        (fun b ->
          b.col_lo <= col && col < b.col_hi && b.row_lo <= row && row < b.row_hi)
        bands

(* Each slab clipped to [0, rows) contributes its height times the
   length of its column union clipped to [0, cols); overlaps count
   once. *)
let area ~rows ~cols t =
  match t with
  | Full -> max 0 rows * max 0 cols
  | Bands { bands = []; _ } -> 0
  | Bands { bands; table = cache } ->
      let tb = table cache bands in
      let acc = ref 0 in
      Array.iteri
        (fun k ivs ->
          let h = min rows tb.edges.(k + 1) - max 0 tb.edges.(k) in
          if h > 0 then
            acc :=
              !acc
              + h
                * List.fold_left (fun w (lo, hi) -> w + hi - lo) 0 (clip_intervals cols ivs))
        tb.slabs;
      !acc

let density ~rows ~cols t =
  let total = rows * cols in
  if total <= 0 then 1.0
  else
    match t with
    | Full -> 1.0
    | Bands _ -> float_of_int (area ~rows ~cols t) /. float_of_int total

let pp ppf = function
  | Full -> Format.fprintf ppf "full"
  | Bands { bands; _ } ->
      Format.fprintf ppf "@[<h>%d band(s):" (List.length bands);
      List.iter
        (fun b ->
          Format.fprintf ppf " c[%d,%d)r[%d,%d)" b.col_lo b.col_hi b.row_lo
            b.row_hi)
        bands;
      Format.fprintf ppf "@]"
