open Tensor

let softmax_rows m =
  Mat.of_rows (Array.init (Mat.rows m) (fun i -> Vecops.softmax (Mat.row m i)))

let attention (att : Ir.attention) x =
  let adk = Mat.cols att.wq and adv = Mat.cols att.wv in
  let dk = adk / att.heads and dv = adv / att.heads in
  let q = Mat.add_row_broadcast (Mat.matmul x att.wq) att.bq in
  let k = Mat.add_row_broadcast (Mat.matmul x att.wk) att.bk in
  let v = Mat.add_row_broadcast (Mat.matmul x att.wv) att.bv in
  let scale = 1.0 /. sqrt (float_of_int dk) in
  let heads =
    Array.init att.heads (fun h ->
        let qh = Mat.sub_cols q (h * dk) dk in
        let kh = Mat.sub_cols k (h * dk) dk in
        let vh = Mat.sub_cols v (h * dv) dv in
        let scores = Mat.scale scale (Mat.gemm ~tb:true qh kh) in
        Mat.matmul (softmax_rows scores) vh)
  in
  let z = Array.fold_left Mat.hcat heads.(0) (Array.sub heads 1 (att.heads - 1)) in
  Mat.add_row_broadcast (Mat.matmul z att.wo) att.bo

let center_norm ~gamma ~beta ~divide_std x =
  let n = Mat.rows x and c = Mat.cols x in
  let fc = float_of_int c in
  let means = Mat.row_means x in
  let out = Mat.create n c in
  for i = 0 to n - 1 do
    let sigma =
      if divide_std then begin
        let var = ref 0.0 in
        for j = 0 to c - 1 do
          let u = Mat.get x i j -. means.(i) in
          var := !var +. (u *. u)
        done;
        sqrt ((!var /. fc) +. 1e-5)
      end
      else 1.0
    in
    for j = 0 to c - 1 do
      Mat.set out i j
        ((((Mat.get x i j -. means.(i)) /. sigma) *. gamma.(j)) +. beta.(j))
    done
  done;
  out

let positional pos x =
  if Mat.rows x > Mat.rows pos then
    invalid_arg "Forward: sequence longer than positional table";
  Mat.mapi (fun i j v -> v +. Mat.get pos i j) x

(* Concrete execution is the trivial instance of the shared interpreter:
   abstract value = float matrix. Checks default off, but a caller can
   still install a trace sink (per-op wall time) or the poison scan. *)
module Domain = struct
  type state = unit
  type value = Mat.t

  let name = "concrete"

  let transfer () ~op_index:_ (op : Ir.op) ~get ~set:_ =
    match op with
    | Linear { src; w; b } -> Mat.add_row_broadcast (Mat.matmul (get src) w) b
    | Relu src -> Mat.map (fun v -> if v > 0.0 then v else 0.0) (get src)
    | Tanh src -> Mat.map tanh (get src)
    | Add (a, b) -> Mat.add (get a) (get b)
    | Center_norm { src; gamma; beta; divide_std } ->
        center_norm ~gamma ~beta ~divide_std (get src)
    | Self_attention { src; att } -> attention att (get src)
    | Pool_first src -> Mat.sub_rows (get src) 0 1
    | Positional { src; pos } -> positional pos (get src)

  let transfer_pair () ~op_index:_ _ _ ~get:_ = None
  let is_poisoned = Mat.finite_class
  let size () m = Mat.rows m * Mat.cols m

  (* A concrete value is a point: its bound width is zero. *)
  let width () _ = 0.0

  (* Dense storage, no sparsity tracking. *)
  let density () _ = 1.0
end

module I = Interp.Make (Domain)

let run_all ?checks (p : Ir.program) x =
  if Mat.cols x <> p.input_dim then invalid_arg "Forward.run: input dim mismatch";
  I.run_all ?checks () p x

let run ?checks p x = (run_all ?checks p x).(Ir.output_id p)

let logits p x =
  let out = run p x in
  if Mat.rows out <> 1 then invalid_arg "Forward.logits: output is not a single row";
  Mat.row out 0

let predict p x = Vecops.argmax (logits p x)
