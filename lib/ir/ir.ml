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

module Serialize = struct
let magic = "deept-model v1"

let write_floats oc (a : float array) =
  Array.iteri
    (fun i x ->
      if i > 0 then output_char oc ' ';
      Printf.fprintf oc "%h" x)
    a;
  output_char oc '\n'

let write_mat oc name (m : Mat.t) =
  Printf.fprintf oc "mat %s %d %d\n" name (Mat.rows m) (Mat.cols m);
  write_floats oc m.Mat.data

let write_vec oc name (v : float array) =
  Printf.fprintf oc "vec %s %d\n" name (Array.length v);
  write_floats oc v

let write_att oc (a : attention) =
  Printf.fprintf oc "heads %d\n" a.heads;
  write_mat oc "wq" a.wq;
  write_vec oc "bq" a.bq;
  write_mat oc "wk" a.wk;
  write_vec oc "bk" a.bk;
  write_mat oc "wv" a.wv;
  write_vec oc "bv" a.bv;
  write_mat oc "wo" a.wo;
  write_vec oc "bo" a.bo

let to_channel oc (p : program) =
  Printf.fprintf oc "%s\n" magic;
  Printf.fprintf oc "input_dim %d\n" p.input_dim;
  Printf.fprintf oc "ops %d\n" (Array.length p.ops);
  Array.iter
    (fun (op : op) ->
      match op with
      | Linear { src; w; b } ->
          Printf.fprintf oc "op linear %d\n" src;
          write_mat oc "w" w;
          write_vec oc "b" b
      | Relu src -> Printf.fprintf oc "op relu %d\n" src
      | Tanh src -> Printf.fprintf oc "op tanh %d\n" src
      | Add (a, b) -> Printf.fprintf oc "op add %d %d\n" a b
      | Center_norm { src; gamma; beta; divide_std } ->
          Printf.fprintf oc "op center_norm %d %b\n" src divide_std;
          write_vec oc "gamma" gamma;
          write_vec oc "beta" beta
      | Self_attention { src; att } ->
          Printf.fprintf oc "op self_attention %d\n" src;
          write_att oc att
      | Pool_first src -> Printf.fprintf oc "op pool_first %d\n" src
      | Positional { src; pos } ->
          Printf.fprintf oc "op positional %d\n" src;
          write_mat oc "pos" pos)
    p.ops

(* ------------------------------------------------------------------ *)

let fail fmt = Printf.ksprintf failwith fmt

let read_line_exn ic =
  match In_channel.input_line ic with
  | Some l -> l
  | None -> fail "Serialize: unexpected end of file"

let split_ws s =
  String.split_on_char ' ' s |> List.filter (fun t -> t <> "")

let read_floats ic n =
  let toks = split_ws (read_line_exn ic) in
  if List.length toks <> n then fail "Serialize: expected %d floats" n;
  Array.of_list (List.map float_of_string toks)

let read_mat ic name =
  match split_ws (read_line_exn ic) with
  | [ "mat"; n; r; c ] when n = name ->
      let r = int_of_string r and c = int_of_string c in
      Mat.of_array ~rows:r ~cols:c (read_floats ic (r * c))
  | _ -> fail "Serialize: expected matrix %s" name

let read_vec ic name =
  match split_ws (read_line_exn ic) with
  | [ "vec"; n; len ] when n = name -> read_floats ic (int_of_string len)
  | _ -> fail "Serialize: expected vector %s" name

let read_att ic : attention =
  let heads =
    match split_ws (read_line_exn ic) with
    | [ "heads"; h ] -> int_of_string h
    | _ -> fail "Serialize: expected heads"
  in
  let wq = read_mat ic "wq" in
  let bq = read_vec ic "bq" in
  let wk = read_mat ic "wk" in
  let bk = read_vec ic "bk" in
  let wv = read_mat ic "wv" in
  let bv = read_vec ic "bv" in
  let wo = read_mat ic "wo" in
  let bo = read_vec ic "bo" in
  { heads; wq; bq; wk; bk; wv; bv; wo; bo }

let read_op ic : op =
  match split_ws (read_line_exn ic) with
  | [ "op"; "linear"; src ] ->
      let src = int_of_string src in
      let w = read_mat ic "w" in
      let b = read_vec ic "b" in
      Linear { src; w; b }
  | [ "op"; "relu"; src ] -> Relu (int_of_string src)
  | [ "op"; "tanh"; src ] -> Tanh (int_of_string src)
  | [ "op"; "add"; a; b ] -> Add (int_of_string a, int_of_string b)
  | [ "op"; "center_norm"; src; ds ] ->
      let src = int_of_string src and divide_std = bool_of_string ds in
      let gamma = read_vec ic "gamma" in
      let beta = read_vec ic "beta" in
      Center_norm { src; gamma; beta; divide_std }
  | [ "op"; "self_attention"; src ] ->
      let src = int_of_string src in
      Self_attention { src; att = read_att ic }
  | [ "op"; "pool_first"; src ] -> Pool_first (int_of_string src)
  | [ "op"; "positional"; src ] ->
      let src = int_of_string src in
      Positional { src; pos = read_mat ic "pos" }
  | toks -> fail "Serialize: bad op line %S" (String.concat " " toks)

let of_channel ic : program =
  if read_line_exn ic <> magic then fail "Serialize: bad magic";
  let input_dim =
    match split_ws (read_line_exn ic) with
    | [ "input_dim"; d ] -> int_of_string d
    | _ -> fail "Serialize: expected input_dim"
  in
  let n_ops =
    match split_ws (read_line_exn ic) with
    | [ "ops"; n ] -> int_of_string n
    | _ -> fail "Serialize: expected ops count"
  in
  let ops = Array.init n_ops (fun _ -> read_op ic) in
  let p : program = { input_dim; ops } in
  validate_exn p;
  p

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let save path p =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_text path (fun oc -> to_channel oc p)

let load path = In_channel.with_open_text path of_channel

end
