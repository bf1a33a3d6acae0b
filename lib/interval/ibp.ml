open Tensor

(* Row-wise softmax on an interval matrix using the stable form
   sigma_i = 1 / sum_j exp(nu_j - nu_i); the j = i difference is exactly 0. *)
let softmax_rows (s : Imat.t) =
  let n, c = Imat.dims s in
  let out = Imat.create n c in
  for r = 0 to n - 1 do
    for i = 0 to c - 1 do
      let denom = ref Itv.zero in
      for j = 0 to c - 1 do
        let d =
          if i = j then Itv.zero else Itv.sub (Imat.get s r j) (Imat.get s r i)
        in
        denom := Itv.add !denom (Itv.exp_ d)
      done;
      Imat.set out r i (Itv.recip !denom)
    done
  done;
  out

let attention (att : Ir.attention) x =
  let adk = Mat.cols att.wq and adv = Mat.cols att.wv in
  let dk = adk / att.heads and dv = adv / att.heads in
  let q = Imat.add_row_const (Imat.matmul_const x att.wq) att.bq in
  let k = Imat.add_row_const (Imat.matmul_const x att.wk) att.bk in
  let v = Imat.add_row_const (Imat.matmul_const x att.wv) att.bv in
  let n, _ = Imat.dims x in
  let sub_cols (m : Imat.t) start len =
    Imat.make (Mat.sub_cols m.Imat.lo start len) (Mat.sub_cols m.Imat.hi start len)
  in
  let scale = 1.0 /. sqrt (float_of_int dk) in
  let heads =
    Array.init att.heads (fun h ->
        let qh = sub_cols q (h * dk) dk in
        let kh = sub_cols k (h * dk) dk in
        let vh = sub_cols v (h * dv) dv in
        let khT =
          Imat.make (Mat.transpose kh.Imat.lo) (Mat.transpose kh.Imat.hi)
        in
        let scores = Imat.matmul qh khT in
        let scores =
          Imat.make (Mat.scale scale scores.Imat.lo) (Mat.scale scale scores.Imat.hi)
        in
        Imat.matmul (softmax_rows scores) vh)
  in
  let z =
    Array.fold_left
      (fun acc (h : Imat.t) ->
        match acc with
        | None -> Some h
        | Some (a : Imat.t) ->
            Some (Imat.make (Mat.hcat a.Imat.lo h.Imat.lo) (Mat.hcat a.Imat.hi h.Imat.hi)))
      None heads
    |> Option.get
  in
  ignore n;
  Imat.add_row_const (Imat.matmul_const z att.wo) att.bo

let center_norm ~gamma ~beta ~divide_std (x : Imat.t) =
  let n, c = Imat.dims x in
  let fc = float_of_int c in
  let out = Imat.create n c in
  for i = 0 to n - 1 do
    (* Interval of the row mean. *)
    let mean = ref Itv.zero in
    for j = 0 to c - 1 do
      mean := Itv.add !mean (Imat.get x i j)
    done;
    let mean = Itv.scale (1.0 /. fc) !mean in
    let sigma =
      if not divide_std then Itv.point 1.0
      else begin
        let var = ref Itv.zero in
        for j = 0 to c - 1 do
          var := Itv.add !var (Itv.sq (Itv.sub (Imat.get x i j) mean))
        done;
        Itv.sqrt_ (Itv.add_const 1e-5 (Itv.scale (1.0 /. fc) !var))
      end
    in
    for j = 0 to c - 1 do
      let centered = Itv.sub (Imat.get x i j) mean in
      let scaled = if divide_std then Itv.div centered sigma else centered in
      Imat.set out i j (Itv.add_const beta.(j) (Itv.scale gamma.(j) scaled))
    done
  done;
  out

(* The interval walk is an instance of the shared interpreter: the
   DOMAIN below supplies only the per-op transfer; deadlines, size
   budgets, the poison scan and tracing come from Interp's checkpoint
   loop (run_box arms the deadline so the ladder's interval rung is
   cooperatively preemptible — PR 1 could only notice a timeout after
   the fact). *)
module Domain = struct
  type state = unit
  type value = Imat.t

  let name = "interval"

  let transfer () ~op_index:_ (op : Ir.op) ~get ~set:_ =
    match op with
    | Linear { src; w; b } -> Imat.add_row_const (Imat.matmul_const (get src) w) b
    | Relu src -> Imat.map Itv.relu (get src)
    | Tanh src -> Imat.map Itv.tanh_ (get src)
    | Add (a, b) -> Imat.add (get a) (get b)
    | Center_norm { src; gamma; beta; divide_std } ->
        center_norm ~gamma ~beta ~divide_std (get src)
    | Self_attention { src; att } -> attention att (get src)
    | Pool_first src ->
        let v = get src in
        Imat.make (Mat.sub_rows v.Imat.lo 0 1) (Mat.sub_rows v.Imat.hi 0 1)
    | Positional { src; pos } ->
        let v = get src in
        let add_pos m = Mat.mapi (fun i j e -> e +. Mat.get pos i j) m in
        Imat.make (add_pos v.Imat.lo) (add_pos v.Imat.hi)

  let transfer_pair () ~op_index:_ _ _ ~get:_ = None
  let is_poisoned (v : Imat.t) =
    match (Mat.finite_class v.Imat.lo, Mat.finite_class v.Imat.hi) with
    | `Nan, _ | _, `Nan -> `Nan
    | `Inf, _ | _, `Inf -> `Inf
    | `Finite, `Finite -> `Finite

  let size () (v : Imat.t) =
    let n, c = Imat.dims v in
    n * c

  let width () (v : Imat.t) =
    let n, c = Imat.dims v in
    let w = ref 0.0 in
    for i = 0 to n - 1 do
      for j = 0 to c - 1 do
        let iv = Imat.get v i j in
        let d = iv.Itv.hi -. iv.Itv.lo in
        if Float.is_nan d || d > !w then w := d
      done
    done;
    !w

  (* Dense storage, no sparsity tracking. *)
  let density () _ = 1.0
end

module I = Interp.Make (Domain)

let run_all ?checks (p : Ir.program) x =
  let _, c = Imat.dims x in
  if c <> p.input_dim then invalid_arg "Ibp.run: input dim mismatch";
  I.run_all ?checks () p x

let run ?checks p x = (run_all ?checks p x).(Ir.output_id p)

let margin ?checks p region ~true_class =
  let out = run ?checks p region in
  let n, c = Imat.dims out in
  if n <> 1 then invalid_arg "Ibp.margin: output is not a single row";
  if true_class < 0 || true_class >= c then invalid_arg "Ibp.margin: bad class";
  (* NaN-poisoned bounds must surface as a NaN margin, never as a
     certification: min is computed with explicit NaN propagation because
     float comparisons silently drop NaN. *)
  let m = ref infinity in
  for j = 0 to c - 1 do
    if j <> true_class then begin
      let diff = Itv.sub (Imat.get out 0 true_class) (Imat.get out 0 j) in
      if Float.is_nan !m || Float.is_nan diff.Itv.lo then m := Float.nan
      else if diff.Itv.lo < !m then m := diff.Itv.lo
    end
  done;
  !m

let certify ?checks p region ~true_class = margin ?checks p region ~true_class > 0.0
