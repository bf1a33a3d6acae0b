(* Column-band occupancy: a small over-approximation of the nonzero
   support of a coefficient matrix. See bands.mli for the invariant
   (outside the band union |x| = 0.0; inside, no promise) and for why
   [full] is always a sound fallback.

   Everything here is shape-relative: a [t] carries no matrix
   dimensions of its own, and [Full] means "all of whatever matrix this
   annotates". Extractors take the concrete shape and clip. *)

type band = { col_lo : int; col_hi : int; row_lo : int; row_hi : int }
type t = Full | Bands of band list

let enabled =
  match Sys.getenv_opt "DEEPT_NO_SPARSE" with
  | None | Some "" | Some "0" -> true
  | Some _ -> false

let full = Full
let empty = Bands []

(* Bands are maintained per value row of the op that minted the
   symbols, so a deep network accumulates one band per (nonlinear op x
   value row). Past this cap neighbouring bands (sorted by column) are
   coalesced into bounding boxes — coarser but still sound, and it
   keeps every kernel-side scan O(1)-ish. *)
let max_bands = 128

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
   rows) — those merges lose nothing. *)
let try_merge a b =
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

let rec cap bs =
  if List.length bs <= max_bands then bs
  else
    let rec pairup = function
      | a :: b :: tl -> bbox a b :: pairup tl
      | l -> l
    in
    cap (pairup bs)

let normalize bs =
  let bs = List.filter (fun b -> not (degenerate b)) bs in
  let bs =
    List.sort
      (fun a b ->
        if a.col_lo <> b.col_lo then compare a.col_lo b.col_lo
        else if a.row_lo <> b.row_lo then compare a.row_lo b.row_lo
        else if a.col_hi <> b.col_hi then compare a.col_hi b.col_hi
        else compare a.row_hi b.row_hi)
      bs
  in
  (* Linear merge against the accumulator head; a merged band keeps the
     head's col_lo, so the list stays sorted and two passes catch the
     chains one pass leaves behind. *)
  let pass bs =
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

let of_bands bs = Bands (normalize bs)

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
  | Bands bs ->
      List.filter
        (fun b -> not (degenerate b))
        (List.map (clip ~rows ~cols) bs)

let is_full = function Full -> true | Bands _ -> false

let is_empty t = enabled && match t with Bands [] -> true | _ -> false

let add t b =
  match t with Full -> Full | Bands bs -> of_bands (b :: bs)

let union a b =
  match (a, b) with
  | Full, _ | _, Full -> Full
  | Bands xs, Bands ys -> of_bands (xs @ ys)

let map_bands f = function
  | Full -> Full
  | Bands bs -> of_bands (List.map f bs)

let shift_rows d t =
  map_bands (fun b -> { b with row_lo = b.row_lo + d; row_hi = b.row_hi + d }) t

let restrict_rows ~lo ~hi t =
  match t with
  | Full -> Full
  | Bands bs ->
      of_bands
        (List.filter_map
           (fun b ->
             let rlo = max lo b.row_lo and rhi = min hi b.row_hi in
             if rlo < rhi then
               Some { b with row_lo = rlo - lo; row_hi = rhi - lo }
             else None)
           bs)

let widen_rows ~rows t =
  map_bands (fun b -> { b with row_lo = 0; row_hi = rows }) t

let block_rows ~bin ~bout t =
  if bin <= 0 || bout <= 0 then Full
  else
    map_bands
      (fun b ->
        {
          b with
          row_lo = b.row_lo / bin * bout;
          row_hi = (b.row_hi + bin - 1) / bin * bout;
        })
      t

(* Sorted, disjoint union of half-open intervals. *)
let merge_intervals ivs =
  let ivs = List.sort compare ivs in
  List.rev
    (List.fold_left
       (fun acc (lo, hi) ->
         match acc with
         | (plo, phi) :: tl when lo <= phi -> (plo, max phi hi) :: tl
         | _ -> (lo, hi) :: acc)
       [] ivs)

let col_intervals ~cols t =
  if cols <= 0 then []
  else
    match t with
    | Full -> [ (0, cols) ]
    | _ when not enabled -> [ (0, cols) ]
    | Bands bs ->
        merge_intervals
          (List.filter_map
             (fun b ->
               let lo = max 0 b.col_lo and hi = min cols b.col_hi in
               if lo < hi then Some (lo, hi) else None)
             bs)

let repeat_intervals ~times ~cols t =
  let ivs = col_intervals ~cols t in
  List.concat_map
    (fun j -> List.map (fun (lo, hi) -> ((j * cols) + lo, (j * cols) + hi)) ivs)
    (List.init times Fun.id)

let row_intervals ~lo ~hi ~cols t =
  if cols <= 0 then []
  else
    match t with
    | Full -> [ (0, cols) ]
    | _ when not enabled -> [ (0, cols) ]
    | Bands bs ->
        merge_intervals
          (List.filter_map
             (fun b ->
               if b.row_lo < hi && lo < b.row_hi then begin
                 let clo = max 0 b.col_lo and chi = min cols b.col_hi in
                 if clo < chi then Some (clo, chi) else None
               end
               else None)
             bs)

let dead_cols ~cols t =
  let n = max 0 cols in
  match t with
  | Full -> Array.make n false
  | _ when not enabled -> Array.make n false
  | Bands bs ->
      let dead = Array.make n true in
      List.iter
        (fun b ->
          for c = max 0 b.col_lo to min n b.col_hi - 1 do
            dead.(c) <- false
          done)
        bs;
      dead

let remap_cols f t =
  match t with
  | Full -> Full
  | Bands bs ->
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
           bs)

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
      | Bands bs -> bs
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
  | Bands bs ->
      List.exists
        (fun b ->
          b.col_lo <= col && col < b.col_hi && b.row_lo <= row && row < b.row_hi)
        bs

let area ~rows ~cols t =
  match t with
  | Full -> max 0 rows * max 0 cols
  | Bands bs -> (
      match to_bands ~rows ~cols (Bands bs) with
      | [] -> 0
      | bs ->
          (* Coordinate-compressed sweep over row slabs: slab edges
             include every band's row boundaries, so within a slab each
             band either covers it fully or misses it, and the live
             width is the merged column-interval length. Overlaps count
             once. *)
          let edges =
            List.sort_uniq compare
              (List.concat_map (fun b -> [ b.row_lo; b.row_hi ]) bs)
          in
          let rec slabs acc = function
            | r0 :: (r1 :: _ as tl) ->
                let width =
                  List.fold_left
                    (fun w (lo, hi) -> w + hi - lo)
                    0
                    (merge_intervals
                       (List.filter_map
                          (fun b ->
                            if b.row_lo <= r0 && r1 <= b.row_hi then
                              Some (b.col_lo, b.col_hi)
                            else None)
                          bs))
                in
                slabs (acc + ((r1 - r0) * width)) tl
            | _ -> acc
          in
          slabs 0 edges)

let density ~rows ~cols t =
  let total = rows * cols in
  if total <= 0 then 1.0
  else
    match t with
    | Full -> 1.0
    | Bands _ -> float_of_int (area ~rows ~cols t) /. float_of_int total

let pp ppf = function
  | Full -> Format.fprintf ppf "full"
  | Bands bs ->
      Format.fprintf ppf "@[<h>%d band(s):" (List.length bs);
      List.iter
        (fun b ->
          Format.fprintf ppf " c[%d,%d)r[%d,%d)" b.col_lo b.col_hi b.row_lo
            b.row_hi)
        bs;
      Format.fprintf ppf "@]"
