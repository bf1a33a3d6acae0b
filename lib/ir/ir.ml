open Tensor

type value_id = int

type attention = {
  heads : int;
  wq : Mat.t;
  bq : float array;
  wk : Mat.t;
  bk : float array;
  wv : Mat.t;
  bv : float array;
  wo : Mat.t;
  bo : float array;
}

type op =
  | Linear of { src : value_id; w : Mat.t; b : float array }
  | Relu of value_id
  | Tanh of value_id
  | Add of value_id * value_id
  | Center_norm of {
      src : value_id;
      gamma : float array;
      beta : float array;
      divide_std : bool;
    }
  | Self_attention of { src : value_id; att : attention }
  | Pool_first of value_id
  | Positional of { src : value_id; pos : Mat.t }

type program = { input_dim : int; ops : op array }

let output_id p = Array.length p.ops
let num_values p = Array.length p.ops + 1

let op_src_ids = function
  | Linear { src; _ } | Relu src | Tanh src
  | Center_norm { src; _ }
  | Self_attention { src; _ }
  | Positional { src; _ }
  | Pool_first src ->
      [ src ]
  | Add (a, b) -> [ a; b ]

(* Column count of each value; row counts are dynamic. *)
let dims_of p =
  let n = num_values p in
  let d = Array.make n 0 in
  d.(0) <- p.input_dim;
  Array.iteri
    (fun i op ->
      let v = i + 1 in
      d.(v) <-
        (match op with
        | Linear { w; _ } -> Mat.cols w
        | Relu src | Tanh src | Pool_first src -> d.(src)
        | Add (a, _) -> d.(a)
        | Center_norm { src; _ } | Positional { src; _ } -> d.(src)
        | Self_attention { att; _ } -> Mat.cols att.wo))
    p.ops;
  d

let out_dim p v =
  if v < 0 || v >= num_values p then invalid_arg "Ir.out_dim";
  (dims_of p).(v)

let kind_name = function
  | Linear _ -> "linear"
  | Relu _ -> "relu"
  | Tanh _ -> "tanh"
  | Add _ -> "add"
  | Center_norm _ -> "center_norm"
  | Self_attention _ -> "self_attention"
  | Pool_first _ -> "pool_first"
  | Positional _ -> "positional"

(* First non-finite entry of an array, with its class. *)
let nonfinite_at (a : float array) =
  let n = Array.length a in
  let rec go i =
    if i >= n then None
    else
      let x = Array.unsafe_get a i in
      if Float.is_nan x then Some (i, "nan")
      else if x = infinity || x = neg_infinity then Some (i, "inf")
      else go (i + 1)
  in
  go 0

let validate p =
  let ( let* ) r f = Result.bind r f in
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  (* Weight finiteness: a corrupt model file must fail here, at load
     time, with the op path — not deep inside a propagation as a
     confusing Numerical_fault. *)
  let finite_vec i op what (v : float array) =
    match nonfinite_at v with
    | None -> Ok ()
    | Some (k, cls) ->
        fail "op %d (%s): weight %s has %s at index %d" i (kind_name op) what
          cls k
  in
  let finite_mat i op what (m : Mat.t) =
    match nonfinite_at m.Mat.data with
    | None -> Ok ()
    | Some (k, cls) ->
        fail "op %d (%s): weight %s has %s at (%d, %d)" i (kind_name op) what
          cls (k / Mat.cols m) (k mod Mat.cols m)
  in
  let finite_op i op =
    match op with
    | Relu _ | Tanh _ | Add _ | Pool_first _ -> Ok ()
    | Linear { w; b; _ } ->
        let* () = finite_mat i op "w" w in
        finite_vec i op "b" b
    | Positional { pos; _ } -> finite_mat i op "pos" pos
    | Center_norm { gamma; beta; _ } ->
        let* () = finite_vec i op "gamma" gamma in
        finite_vec i op "beta" beta
    | Self_attention { att; _ } ->
        let* () = finite_mat i op "wq" att.wq in
        let* () = finite_vec i op "bq" att.bq in
        let* () = finite_mat i op "wk" att.wk in
        let* () = finite_vec i op "bk" att.bk in
        let* () = finite_mat i op "wv" att.wv in
        let* () = finite_vec i op "bv" att.bv in
        let* () = finite_mat i op "wo" att.wo in
        finite_vec i op "bo" att.bo
  in
  let check_src i src =
    if src < 0 || src > i then fail "op %d reads future or invalid value %d" i src
    else Ok ()
  in
  (* All source ids must be valid before shape inference can run. *)
  let srcs_ok = ref (Ok ()) in
  Array.iteri
    (fun i op ->
      List.iter
        (fun src ->
          if Result.is_ok !srcs_ok then
            srcs_ok := check_src i src)
        (op_src_ids op))
    p.ops;
  match !srcs_ok with
  | Error _ as e -> e
  | Ok () ->
  let dims = dims_of p in
  let rec go i =
    if i >= Array.length p.ops then Ok ()
    else
      let op = p.ops.(i) in
      let* () =
        List.fold_left
          (fun acc src -> Result.bind acc (fun () -> check_src i src))
          (Ok ()) (op_src_ids op)
      in
      let* () =
        match op with
        | Linear { src; w; b } ->
            if Mat.rows w <> dims.(src) then
              fail "op %d: Linear weight rows %d <> input dim %d" i (Mat.rows w)
                dims.(src)
            else if Array.length b <> Mat.cols w then
              fail "op %d: Linear bias length %d <> weight cols %d" i
                (Array.length b) (Mat.cols w)
            else Ok ()
        | Relu _ | Tanh _ | Pool_first _ -> Ok ()
        | Positional { src; pos } ->
            if Mat.cols pos <> dims.(src) then
              fail "op %d: Positional width %d <> value dim %d" i (Mat.cols pos)
                dims.(src)
            else Ok ()
        | Add (a, b) ->
            if dims.(a) <> dims.(b) then
              fail "op %d: Add dims %d <> %d" i dims.(a) dims.(b)
            else Ok ()
        | Center_norm { src; gamma; beta; _ } ->
            if Array.length gamma <> dims.(src) || Array.length beta <> dims.(src)
            then fail "op %d: Center_norm parameter length mismatch" i
            else Ok ()
        | Self_attention { src; att } ->
            let d = dims.(src) in
            let adk = Mat.cols att.wq and adv = Mat.cols att.wv in
            if Mat.rows att.wq <> d || Mat.rows att.wk <> d || Mat.rows att.wv <> d
            then fail "op %d: attention projection input dim mismatch" i
            else if Mat.cols att.wk <> adk then
              fail "op %d: wq/wk width mismatch" i
            else if att.heads <= 0 || adk mod att.heads <> 0 || adv mod att.heads <> 0
            then fail "op %d: head count %d does not divide widths" i att.heads
            else if Mat.rows att.wo <> adv then
              fail "op %d: wo rows %d <> A*dv %d" i (Mat.rows att.wo) adv
            else if
              Array.length att.bq <> adk
              || Array.length att.bk <> adk
              || Array.length att.bv <> adv
              || Array.length att.bo <> Mat.cols att.wo
            then fail "op %d: attention bias length mismatch" i
            else Ok ()
      in
      let* () = finite_op i op in
      go (i + 1)
  in
  go 0

let validate_exn p =
  match validate p with Ok () -> () | Error msg -> invalid_arg ("Ir.validate: " ^ msg)

let attention_params att =
  Mat.(rows att.wq * cols att.wq)
  + Mat.(rows att.wk * cols att.wk)
  + Mat.(rows att.wv * cols att.wv)
  + Mat.(rows att.wo * cols att.wo)
  + Array.length att.bq + Array.length att.bk + Array.length att.bv
  + Array.length att.bo

let num_params p =
  Array.fold_left
    (fun acc op ->
      acc
      +
      match op with
      | Linear { w; b; _ } -> Mat.(rows w * cols w) + Array.length b
      | Relu _ | Tanh _ | Add _ | Pool_first _ -> 0
      | Positional { pos; _ } -> Mat.(rows pos * cols pos)
      | Center_norm { gamma; beta; _ } -> Array.length gamma + Array.length beta
      | Self_attention { att; _ } -> attention_params att)
    0 p.ops

let depth_of_kind p kind =
  Array.fold_left (fun acc op -> if kind_name op = kind then acc + 1 else acc) 0 p.ops

let pp ppf p =
  let dims = dims_of p in
  Format.fprintf ppf "@[<v>program: input dim %d, %d ops, %d params" p.input_dim
    (Array.length p.ops) (num_params p);
  Array.iteri
    (fun i op ->
      let srcs = String.concat "," (List.map string_of_int (op_src_ids op)) in
      Format.fprintf ppf "@,%%%d = %s(%s) : d=%d" (i + 1) (kind_name op) srcs
        dims.(i + 1))
    p.ops;
  Format.fprintf ppf "@]"
