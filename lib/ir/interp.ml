(* Generic abstract interpreter over Ir programs. See interp.mli for the
   contract. The checkpoint order after each op is load-bearing and must
   not change — it pins the observational behavior the certification
   tests rely on:

     transfer (+ fault injection) -> trace -> deadline
       -> size budget -> poison scan -> store

   In particular the trace event fires before any abort so a run that
   dies at op i still reports op i, and the poison scan runs last so a
   deadline hit on an already-poisoned value reports Timeout, exactly as
   the pre-functor Propagate loop did.

   A pair of ops the domain can compute in one pass ([transfer_pair])
   runs as one transfer when nothing needs the first op's output on its
   own: the second op is its only reader, no fault is armed at either
   op and no sink listens. The checkpoints then run twice on the pair's
   output, first op's then second op's, in the order above, except that
   the value is scanned for poison once, at the first op's checkpoints:
   a second scan of the same value could only repeat the first one's
   verdict. That verdict is the one two ops would reach: the domains'
   pairs poison their output whenever the first op's output was
   poisoned. *)

type finiteness = [ `Finite | `Nan | `Inf ]

type event = {
  op_index : int;
  kind : string;
  wall_s : float;
  size : int;
  width : float;
  density : float;
}

type sink = event -> unit

type abort =
  | Timeout
  | Size_budget
  | Poison of [ `Nan | `Inf ]

type 'v checks = {
  deadline : float option;
  max_size : int option;
  poison : bool;
  fault : (int * ('v -> unit)) option;
  trace : sink option;
  abort : abort -> exn;
}

let no_checks =
  {
    deadline = None;
    max_size = None;
    poison = false;
    fault = None;
    trace = None;
    abort = (fun _ -> Failure "Interp: checkpoint tripped without an abort handler");
  }

module type DOMAIN = sig
  type state
  type value

  val name : string

  val transfer :
    state ->
    op_index:int ->
    Ir.op ->
    get:(Ir.value_id -> value) ->
    set:(Ir.value_id -> value -> unit) ->
    value

  val transfer_pair :
    state ->
    op_index:int ->
    Ir.op ->
    Ir.op ->
    get:(Ir.value_id -> value) ->
    value option

  val is_poisoned : value -> finiteness
  val size : state -> value -> int
  val width : state -> value -> float
  val density : state -> value -> float
end

module Make (D : DOMAIN) = struct
  (* The checkpoints after an op, in their pinned order. [scan:false]
     skips the poison scan, for a value an earlier scan already read as
     finite. *)
  let check ?(scan = true) checks st out =
    (match checks.deadline with
    | Some dl when Unix.gettimeofday () > dl -> raise (checks.abort Timeout)
    | _ -> ());
    (match checks.max_size with
    | Some cap when D.size st out > cap -> raise (checks.abort Size_budget)
    | _ -> ());
    if scan && checks.poison then
      match D.is_poisoned out with
      | `Finite -> ()
      | (`Nan | `Inf) as bad -> raise (checks.abort (Poison bad))

  let step checks st (p : Ir.program) (vals : D.value array) i =
    let op = p.Ir.ops.(i) in
    (* Timing only matters when someone is listening. *)
    let t_op = match checks.trace with
      | Some _ -> Unix.gettimeofday ()
      | None -> 0.0
    in
    let out =
      D.transfer st ~op_index:i op
        ~get:(fun v -> vals.(v))
        ~set:(fun v x -> vals.(v) <- x)
    in
    (match checks.fault with
    | Some (at, action) when at = i -> action out
    | _ -> ());
    (match checks.trace with
    | Some sink ->
        sink
          {
            op_index = i;
            kind = Ir.kind_name op;
            wall_s = Unix.gettimeofday () -. t_op;
            size = D.size st out;
            width = D.width st out;
            density = D.density st out;
          }
    | None -> ());
    check checks st out;
    vals.(i + 1) <- out

  (* [readers.(v)]: how many source operands name value [v], plus one
     for the program output, which the caller reads. *)
  let readers (p : Ir.program) =
    let r = Array.make (Ir.num_values p) 0 in
    Array.iter
      (fun op -> List.iter (fun v -> r.(v) <- r.(v) + 1) (Ir.op_src_ids op))
      p.Ir.ops;
    r.(Ir.output_id p) <- r.(Ir.output_id p) + 1;
    r

  (* Ops [i] and [i + 1] as one transfer, when op [i + 1] is the only
     reader of op [i]'s output and nothing else observes that output.
     Its slot in [vals] is then left as it was. *)
  let step_pair checks st (p : Ir.program) (vals : D.value array) readers i =
    let op = p.Ir.ops.(i) and next = p.Ir.ops.(i + 1) in
    let armed =
      match checks.fault with Some (at, _) -> at = i || at = i + 1 | None -> false
    in
    if
      armed || Option.is_some checks.trace || readers.(i + 1) <> 1
      || Ir.op_src_ids next <> [ i + 1 ]
    then false
    else
      match D.transfer_pair st ~op_index:i op next ~get:(fun v -> vals.(v)) with
      | None -> false
      | Some out ->
          (* op i's checkpoints, then op i + 1's. The second poison scan
             would read the value the first one read: the first either
             raised or found it finite. *)
          check checks st out;
          check ~scan:false checks st out;
          vals.(i + 2) <- out;
          true

  let run_values ?(checks = no_checks) ?(start = 0) ?stop st (p : Ir.program)
      (vals : D.value array) =
    let n = Array.length p.Ir.ops in
    let stop = match stop with Some s -> s | None -> n in
    if Array.length vals <> Ir.num_values p then
      invalid_arg
        (Printf.sprintf "Interp(%s).run_values: %d values for %d-op program"
           D.name (Array.length vals) n);
    if start < 0 || stop > n || start > stop then
      invalid_arg
        (Printf.sprintf "Interp(%s).run_values: bad op range [%d, %d) of %d"
           D.name start stop n);
    let readers = readers p in
    let i = ref start in
    while !i < stop do
      if !i + 1 < stop && step_pair checks st p vals readers !i then i := !i + 2
      else begin
        step checks st p vals !i;
        incr i
      end
    done

  let run_all ?checks st (p : Ir.program) (input : D.value) =
    let vals = Array.make (Ir.num_values p) input in
    run_values ?checks st p vals;
    vals

  let run ?checks st (p : Ir.program) (input : D.value) =
    (run_all ?checks st p input).(Ir.output_id p)
end
