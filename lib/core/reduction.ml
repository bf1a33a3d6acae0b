open Tensor

let scores (z : Zonotope.t) =
  let nv = Zonotope.num_vars z and w = Zonotope.num_eps z in
  let s = Array.make w 0.0 in
  let data = z.Zonotope.eps.Mat.data in
  (* Columns outside every occupancy band hold only ±0.0: the dense scan
     accumulates [abs (±0.0) = +0.0] there, leaving the initial 0.0 —
     skipping them is unconditionally bit-identical. *)
  let live = Bands.col_intervals ~cols:w z.Zonotope.eps_occ in
  for v = 0 to nv - 1 do
    let base = v * w in
    List.iter
      (fun (lo, hi) ->
        for j = lo to hi - 1 do
          s.(j) <- s.(j) +. Float.abs (Array.unsafe_get data (base + j))
        done)
      live
  done;
  s

(* [top_k_indices s k] selects the [k] indices of [s] with the highest
   scores, ties broken towards the smaller index, and returns them sorted
   ascending. Equivalent to sorting all [w] indices by
   (score desc, index asc) and keeping the prefix — the top-k set under
   that total order is unique, so this matches the full sort bit-for-bit —
   but runs in O(w log k) with a k-element min-heap instead of O(w log w).
   At a transformer layer input w is the accumulated symbol count
   (thousands) while k is the retention budget (tens), so the partial
   selection is what keeps [decorrelate_min_k] cheap. *)
let top_k_indices (s : float array) k =
  let w = Array.length s in
  if k <= 0 then [||]
  else if k >= w then Array.init w (fun j -> j)
  else begin
    (* Min-heap of the current keep set, rooted at its worst element:
       [worse a b] is the strict order "a would be dropped before b". *)
    let heap = Array.make k 0 in
    let size = ref 0 in
    let worse a b =
      s.(a) < s.(b) || (s.(a) = s.(b) && a > b)
    in
    let swap i j =
      let t = heap.(i) in
      heap.(i) <- heap.(j);
      heap.(j) <- t
    in
    let rec sift_up i =
      if i > 0 then begin
        let parent = (i - 1) / 2 in
        if worse heap.(i) heap.(parent) then begin
          swap i parent;
          sift_up parent
        end
      end
    in
    let rec sift_down i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let m = ref i in
      if l < !size && worse heap.(l) heap.(!m) then m := l;
      if r < !size && worse heap.(r) heap.(!m) then m := r;
      if !m <> i then begin
        swap i !m;
        sift_down !m
      end
    in
    for j = 0 to w - 1 do
      if !size < k then begin
        heap.(!size) <- j;
        incr size;
        sift_up (!size - 1)
      end
      else if worse heap.(0) j then begin
        heap.(0) <- j;
        sift_down 0
      end
    done;
    Array.sort compare heap;
    heap
  end

let decorrelate_min_k ctx (z : Zonotope.t) k =
  if k < 0 then invalid_arg "Reduction.decorrelate_min_k: negative k";
  let w = Zonotope.num_eps z in
  if w <= k then begin
    (* Under budget, but coverage-empty columns are still dead weight for
       every downstream op: drop them physically (no-op without bands). *)
    let z = Zonotope.compact z in
    Zonotope.reset_symbols ctx (Zonotope.num_eps z);
    z
  end
  else begin
    let s = scores z in
    let keep = top_k_indices s k in
    let dropped = Array.make w true in
    Array.iter (fun j -> dropped.(j) <- false) keep;
    let nv = Zonotope.num_vars z in
    (* Per-variable folded mass of the dropped symbols, each v folded in
       j-ascending order. *)
    let fold = Array.make nv 0.0 in
    let data = z.Zonotope.eps.Mat.data in
    (* Dead columns contribute [abs (±0.0)] to the fold — skipping them
       is bit-identical, same argument as in [scores]. *)
    let live_row v =
      Bands.row_intervals ~lo:v ~hi:(v + 1) ~cols:w z.Zonotope.eps_occ
    in
    for v = 0 to nv - 1 do
      let base = v * w in
      let acc = ref 0.0 in
      List.iter
        (fun (lo, hi) ->
          for j = lo to hi - 1 do
            if dropped.(j) then acc := !acc +. Float.abs data.(base + j)
          done)
        (live_row v);
      fold.(v) <- !acc
    done;
    let fresh = Array.make nv (-1) in
    let n_new = ref 0 in
    Array.iteri
      (fun v m ->
        if m > 0.0 then begin
          fresh.(v) <- !n_new;
          incr n_new
        end)
      fold;
    let new_w = k + !n_new in
    let eps = Mat.create nv new_w in
    for v = 0 to nv - 1 do
      let base = v * w and obase = v * new_w in
      Array.iteri (fun t j -> eps.Mat.data.(obase + t) <- data.(base + j)) keep;
      if fresh.(v) >= 0 then eps.Mat.data.(obase + k + fresh.(v)) <- fold.(v)
    done;
    (* [keep] is sorted ascending, so old column j -> its keep position
       is a monotone remap; fold symbols get per-value-row bands. Then
       compact: zero-score kept columns are coverage-empty and can be
       dropped outright (identical radii — they are ±0.0 everywhere). *)
    let pos = Array.make w (-1) in
    Array.iteri (fun t j -> pos.(j) <- t) keep;
    let occ =
      Bands.union
        (Bands.remap_cols
           (fun j -> if j < w && pos.(j) >= 0 then Some pos.(j) else None)
           z.Zonotope.eps_occ)
        (Zonotope.fresh_bands ~fresh ~base:k ~rows:z.Zonotope.vrows
           ~per_row:z.Zonotope.vcols)
    in
    let out =
      Zonotope.make ~p:z.Zonotope.p ~center:(Mat.copy z.Zonotope.center)
        ~phi:(Mat.copy z.Zonotope.phi) ~eps
      |> Zonotope.with_eps_occ occ |> Zonotope.compact
    in
    Zonotope.reset_symbols ctx (Zonotope.num_eps out);
    out
  end
