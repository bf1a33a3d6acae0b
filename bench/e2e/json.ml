(* Just enough JSON for the benchmark: BENCHMARK.json is nested (lists of
   metric objects) and the result line carries a metrics object, both
   beyond the library's flat Jsonl codec. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

let parse s =
  let n = String.length s in
  let i = ref 0 in
  let fail what = raise (Bad (Printf.sprintf "%s at offset %d" what !i)) in
  let rec ws () =
    if !i < n && (s.[!i] = ' ' || s.[!i] = '\n' || s.[!i] = '\r' || s.[!i] = '\t')
    then (incr i; ws ())
  in
  let expect c = if !i < n && s.[!i] = c then incr i else fail (Printf.sprintf "expected '%c'" c) in
  let lit word v =
    if !i + String.length word <= n && String.sub s !i (String.length word) = word
    then (i := !i + String.length word; v)
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then fail "unterminated string";
      let c = s.[!i] in
      incr i;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !i >= n then fail "bad escape";
          let e = s.[!i] in
          incr i;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !i + 4 > n then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !i 4) in
              i := !i + 4;
              Buffer.add_utf_8_uchar b (Uchar.of_int code)
          | c -> Buffer.add_char b c);
          go ()
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let num () =
    let j = !i in
    while !i < n && String.contains "+-0123456789.eE" s.[!i] do incr i done;
    match float_of_string_opt (String.sub s j (!i - j)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    ws ();
    if !i >= n then fail "unexpected end";
    match s.[!i] with
    | '{' ->
        incr i;
        ws ();
        if !i < n && s.[!i] = '}' then (incr i; Obj [])
        else
          let rec fields acc =
            ws ();
            let k = str () in
            ws ();
            expect ':';
            let v = value () in
            ws ();
            if !i < n && s.[!i] = ',' then (incr i; fields ((k, v) :: acc))
            else (expect '}'; Obj (List.rev ((k, v) :: acc)))
          in
          fields []
    | '[' ->
        incr i;
        ws ();
        if !i < n && s.[!i] = ']' then (incr i; Arr [])
        else
          let rec items acc =
            let v = value () in
            ws ();
            if !i < n && s.[!i] = ',' then (incr i; items (v :: acc))
            else (expect ']'; Arr (List.rev (v :: acc)))
          in
          items []
    | '"' -> Str (str ())
    | 't' -> lit "true" (Bool true)
    | 'f' -> lit "false" (Bool false)
    | 'n' -> lit "null" Null
    | _ -> num ()
  in
  let v = value () in
  ws ();
  if !i <> n then fail "trailing characters";
  v

let of_file path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  try parse s with Bad m -> raise (Bad (path ^ ": " ^ m))

let member k = function
  | Obj fs -> (
      match List.assoc_opt k fs with Some v -> v | None -> raise (Bad ("missing key " ^ k)))
  | _ -> raise (Bad ("not an object looking up " ^ k))

let to_list = function Arr l -> l | _ -> raise (Bad "expected an array")
let to_string = function Str s -> s | _ -> raise (Bad "expected a string")
let to_num = function Num f -> f | _ -> raise (Bad "expected a number")
let to_bool = function Bool b -> b | _ -> raise (Bad "expected a boolean")

let quote s = "\"" ^ Deept.Jsonl.escape s ^ "\""

(* %.17g keeps every digit of a measured value; JSON has no inf/nan. *)
let num_lit f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let rec show = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> num_lit f
  | Str s -> quote s
  | Arr l -> "[" ^ String.concat ", " (List.map show l) ^ "]"
  | Obj fs -> "{" ^ String.concat ", " (List.map (fun (k, v) -> quote k ^ ": " ^ show v) fs) ^ "}"
