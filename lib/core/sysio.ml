(* Injectable syscall shim — see sysio.mli for the contract.

   Layering: each public wrapper owns the POSIX retry discipline
   (restart EINTR, loop partial writes) and calls a [raw_*] primitive
   underneath. Fault injection happens in the primitives, *below* the
   retry loops, so an injected EINTR storm or short write exercises
   exactly the code that would face the real thing. *)

type op = Write | Send | Fsync | Truncate

let op_name = function
  | Write -> "write"
  | Send -> "send"
  | Fsync -> "fsync"
  | Truncate -> "truncate"

let op_of_name = function
  | "write" -> Some Write
  | "send" -> Some Send
  | "fsync" -> Some Fsync
  | "truncate" -> Some Truncate
  | _ -> None

type action = Err of Unix.error | Short of int | Eintr of int | Torn of int | Crash

type plan = {
  nth : int;
  op : op option;
  site : string option;
  action : action;
  persist : bool;
}

let plan ?op ?site ?(persist = false) ~nth action =
  if nth < 0 then invalid_arg "Sysio.plan: nth < 0";
  (match action with
  | Short k when k < 1 -> invalid_arg "Sysio.plan: Short k < 1"
  | Eintr n when n < 1 -> invalid_arg "Sysio.plan: Eintr n < 1"
  | Torn k when k < 0 -> invalid_arg "Sysio.plan: Torn k < 0"
  | _ -> ());
  (* A persistent EINTR storm would livelock the restart loops, and a
     persistent crash is indistinguishable from a one-shot one. *)
  (match action with
  | (Eintr _ | Crash | Torn _) when persist ->
      invalid_arg "Sysio.plan: persist only composes with Err and Short"
  | _ -> ());
  { nth; op; site; action; persist }

(* The errno names the drills use; anything else round-trips through
   Unix.EUNKNOWNERR and is not accepted by the parser. *)
let errno_names =
  [
    ("enospc", Unix.ENOSPC);
    ("eio", Unix.EIO);
    ("epipe", Unix.EPIPE);
    ("econnreset", Unix.ECONNRESET);
    ("eacces", Unix.EACCES);
  ]

let action_to_string = function
  | Err e -> (
      match List.find_opt (fun (_, e') -> e' = e) errno_names with
      | Some (n, _) -> n
      | None -> (
          match e with
          | Unix.EUNKNOWNERR n -> "errno:" ^ string_of_int n
          | _ -> "errno:?"))
  | Short k -> Printf.sprintf "short:%d" k
  | Eintr n -> Printf.sprintf "eintr:%d" n
  | Torn k -> Printf.sprintf "torn:%d" k
  | Crash -> "crash"

let plan_to_string p =
  String.concat ""
    [
      action_to_string p.action;
      Printf.sprintf "@%d" p.nth;
      (match p.op with Some o -> ":op=" ^ op_name o | None -> "");
      (match p.site with Some s -> ":site=" ^ s | None -> "");
      (if p.persist then ":persist" else "");
    ]

let plan_of_string s =
  let ( let* ) = Result.bind in
  let* action_s, rest =
    match String.index_opt s '@' with
    | Some i ->
        Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> Error (Printf.sprintf "chaos plan %S: missing '@NTH'" s)
  in
  let* action =
    let int_suffix prefix k =
      let pl = String.length prefix in
      if
        String.length action_s > pl + 1
        && String.sub action_s 0 (pl + 1) = prefix ^ ":"
      then
        match
          int_of_string_opt
            (String.sub action_s (pl + 1) (String.length action_s - pl - 1))
        with
        | Some n -> Some (k n)
        | None -> None
      else None
    in
    match
      List.filter_map
        (fun x -> x)
        [
          (if action_s = "crash" then Some Crash else None);
          int_suffix "torn" (fun k -> Torn k);
          int_suffix "short" (fun k -> Short k);
          int_suffix "eintr" (fun k -> Eintr k);
          Option.map
            (fun (_, e) -> Err e)
            (List.find_opt (fun (n, _) -> n = action_s) errno_names);
        ]
    with
    | [ a ] -> Ok a
    | _ ->
        Error
          (Printf.sprintf
             "chaos plan: bad action %S (use crash, torn:K, short:K, eintr:N \
              or an errno: %s)"
             action_s
             (String.concat ", " (List.map fst errno_names)))
  in
  let parts = String.split_on_char ':' rest in
  let* nth =
    match parts with
    | n :: _ -> (
        match int_of_string_opt n with
        | Some n when n >= 0 -> Ok n
        | _ -> Error (Printf.sprintf "chaos plan: bad op index %S" n))
    | [] -> Error "chaos plan: missing op index"
  in
  let* op, site, persist =
    List.fold_left
      (fun acc part ->
        let* (op, site, persist) = acc in
        if part = "persist" then Ok (op, site, true)
        else
          match String.index_opt part '=' with
          | Some i -> (
              let k = String.sub part 0 i in
              let v = String.sub part (i + 1) (String.length part - i - 1) in
              match k with
              | "op" -> (
                  match op_of_name v with
                  | Some o -> Ok (Some o, site, persist)
                  | None -> Error (Printf.sprintf "chaos plan: bad op %S" v))
              | "site" when v <> "" -> Ok (op, Some v, persist)
              | "site" -> Error "chaos plan: empty site filter"
              | _ -> Error (Printf.sprintf "chaos plan: unknown filter %S" k))
          | None -> Error (Printf.sprintf "chaos plan: unknown part %S" part))
      (Ok (None, None, false))
      (List.tl parts)
  in
  match plan ?op ?site ~persist ~nth action with
  | p -> Ok p
  | exception Invalid_argument m -> Error m

(* ---------------- state ---------------- *)

type event = { index : int; eop : op; esite : string; len : int }

type armed_state = {
  aplan : plan option;
  recorder : (event -> unit) option;
  mutable count : int;
  mutable fired : bool;  (* a one-shot plan already went off *)
  mutable storm : (string * int) ref option;  (* EINTR storm: site, left *)
}

type mode = Off | On of armed_state

let state = ref Off

let arm p =
  state :=
    On { aplan = Some p; recorder = None; count = 0; fired = false; storm = None }

let record f =
  state :=
    On { aplan = None; recorder = Some f; count = 0; fired = false; storm = None }

let disarm () = state := Off
let armed () = match !state with On _ -> true | Off -> false
let ops () = match !state with On a -> a.count | Off -> 0

let contains ~sub s =
  let ls = String.length sub and l = String.length s in
  let rec go i = i + ls <= l && (String.sub s i ls = sub || go (i + 1)) in
  go 0

(* Abrupt process death, as a kill signal would leave it: no at_exit,
   no channel flushes. The return type lets [die] end any branch. *)
let die () : 'a =
  Unix.kill (Unix.getpid ()) Sys.sigkill;
  assert false

exception Injected_eintr

(* Count one operation; decide what the primitive must do. Returns the
   byte budget for writes: [None] = full, [Some k] = transfer at most k
   then (for Torn) die after the transfer. *)
type verdict = Proceed | Cap of int | Cap_then_die of int

let observe eop ~site ~len =
  match !state with
  | Off -> Proceed
  | On a -> (
      (* an in-progress EINTR storm swallows calls at its site without
         consuming plan matches *)
      (match a.storm with
      | Some s when snd !s > 0 && contains ~sub:(fst !s) site ->
          s := (fst !s, snd !s - 1);
          raise Injected_eintr
      | _ -> ());
      let matches_filters p =
        (match p.op with Some o -> o = eop | None -> true)
        && match p.site with Some sub -> contains ~sub site | None -> true
      in
      match a.aplan with
      | None ->
          let i = a.count in
          a.count <- a.count + 1;
          (match a.recorder with
          | Some f -> f { index = i; eop; esite = site; len }
          | None -> ());
          Proceed
      | Some p when not (matches_filters p) -> Proceed
      | Some p ->
          let i = a.count in
          a.count <- a.count + 1;
          let fire = if p.persist then i >= p.nth else i = p.nth && not a.fired in
          if not fire then Proceed
          else begin
            a.fired <- true;
            match p.action with
            | Crash -> die ()
            | Err e -> raise (Unix.Unix_error (e, op_name eop, site))
            | Eintr n ->
                a.storm <- Some (ref (site, n - 1));
                raise Injected_eintr
            | Short k -> if eop = Write || eop = Send then Cap k else Proceed
            | Torn k ->
                if eop = Write || eop = Send then Cap_then_die k else die ()
          end)

(* ---------------- primitives ---------------- *)

(* One counted write attempt; may transfer fewer bytes than asked. *)
let raw_write eop ~site fd buf pos len =
  match observe eop ~site ~len with
  | Proceed -> Unix.write fd buf pos len
  | Cap k -> Unix.write fd buf pos (min k len)
  | Cap_then_die k ->
      (* The prefix really lands (a killed process's page-cache writes
         survive it); the suffix never exists — the torn-append shape. *)
      if min k len > 0 then ignore (Unix.write fd buf pos (min k len));
      die ()

let raw_plain eop ~site f =
  match observe eop ~site ~len:0 with Proceed | Cap _ | Cap_then_die _ -> f ()

(* ---------------- wrappers ---------------- *)

let rec write_all_op eop ~site fd buf pos len =
  if len > 0 then
    match raw_write eop ~site fd buf pos len with
    | n -> write_all_op eop ~site fd buf (pos + n) (len - n)
    | exception Injected_eintr -> write_all_op eop ~site fd buf pos len
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        write_all_op eop ~site fd buf pos len

let write_all ~site fd buf pos len = write_all_op Write ~site fd buf pos len

let write_string ~site fd s =
  write_all_op Write ~site fd (Bytes.unsafe_of_string s) 0 (String.length s)

let send_string ~site fd s =
  write_all_op Send ~site fd (Bytes.unsafe_of_string s) 0 (String.length s)

let rec single_write ~site fd s pos len =
  match raw_write Send ~site fd (Bytes.unsafe_of_string s) pos len with
  | n -> n
  | exception Injected_eintr -> single_write ~site fd s pos len
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      single_write ~site fd s pos len

let rec retry_plain eop ~site f =
  match raw_plain eop ~site f with
  | x -> x
  | exception Injected_eintr -> retry_plain eop ~site f
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> retry_plain eop ~site f

let fsync ~site fd = retry_plain Fsync ~site (fun () -> Unix.fsync fd)
let ftruncate ~site fd n = retry_plain Truncate ~site (fun () -> Unix.ftruncate fd n)
