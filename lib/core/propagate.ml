let use_precise (cfg : Config.t) ~layer ~total =
  match cfg.Config.variant with
  | Config.Fast -> false
  | Config.Precise -> true
  | Config.Combined -> layer = total - 1

(* Deterministic fault injection (Config.fault). Runs inside the per-op
   Unbounded guard so Raise_unbounded exercises the same catch path a
   genuinely collapsed transformer would take. *)
let apply_fault (f : Config.fault_spec) (out : Zonotope.t) =
  match f.Config.action with
  | Config.Inject_nan -> out.Zonotope.center.Tensor.Mat.data.(0) <- Float.nan
  | Config.Inject_inf -> out.Zonotope.center.Tensor.Mat.data.(0) <- infinity
  | Config.Stall s -> if s > 0.0 then Unix.sleepf s
  | Config.Raise_unbounded -> raise Zonotope.Unbounded

(* NaN dominates Inf: a NaN means arithmetic already went through an
   undefined form; an Inf (e.g. an overflowed dot-product remainder) is
   still a sound, if vacuous, bound — but poisons everything downstream,
   so both abort the run. *)
let poison_scan (z : Zonotope.t) =
  match
    ( Tensor.Mat.finite_class z.Zonotope.center,
      Tensor.Mat.finite_class z.Zonotope.phi,
      Tensor.Mat.finite_class z.Zonotope.eps )
  with
  | `Nan, _, _ | _, `Nan, _ | _, _, `Nan -> `Nan
  | `Inf, _, _ | _, `Inf, _ | _, _, `Inf -> `Inf
  | `Finite, `Finite, `Finite -> `Finite

(* One lazily-created domain pool per (process, size). Spawned domains do
   not survive a fork, and Supervisor workers fork after the parent may
   already have certified something — so the cache is keyed by pid and a
   forked child transparently builds its own pool on first use, leaving
   the inherited (stale) entry unused. *)
let pool_cache : (int * int, Tensor.Dpool.t) Hashtbl.t = Hashtbl.create 4
let pool_mutex = Mutex.create ()

let shared_pool n =
  if n <= 1 then None
  else
    let key = (Unix.getpid (), n) in
    Some
      (Mutex.protect pool_mutex (fun () ->
           match Hashtbl.find_opt pool_cache key with
           | Some p -> p
           | None ->
               let p = Tensor.Dpool.create n in
               Hashtbl.add pool_cache key p;
               p))

let abort_of : Interp.abort -> exn = function
  | Interp.Timeout -> Verdict.Abort Verdict.Timeout
  | Interp.Size_budget -> Verdict.Abort Verdict.Symbol_budget
  | Interp.Poison _ -> Verdict.Abort Verdict.Numerical_fault

(* A resume point: the op to resume at and the values that ops at or
   after it read, by id. Zonotopes are never mutated in place outside
   fault injection (the reduction re-stores a new value), so holding
   them is enough; a run that resumes copies them into its own array. *)
type checkpoint = { start : int; live : (Ir.value_id * Zonotope.t) list }

let checkpoint_op c = c.start

(* [last_use.(v)]: the last op that reads value [v] ([max_int] for the
   program output, which the caller reads; [-1] when nothing does). *)
let last_uses (p : Ir.program) =
  let lu = Array.make (Ir.num_values p) (-1) in
  Array.iteri
    (fun i op -> List.iter (fun v -> lu.(v) <- max lu.(v) i) (Ir.op_src_ids op))
    p.Ir.ops;
  lu.(Ir.output_id p) <- max_int;
  lu

let checkpoint_at last_use ~start get =
  let live = ref [] in
  for v = start downto 0 do
    if last_use.(v) >= start then live := (v, get v) :: !live
  done;
  { start; live = !live }

(* The Multi-norm Zonotope DOMAIN instance (Section 5). The shared
   interpreter owns the per-op loop and checkpoints; the transformer
   dispatch below is all that is zonotope-specific. *)
module Domain = struct
  type state = {
    cfg : Config.t;
    ctx : Zonotope.ctx;
    total_layers : int;
    mutable layer : int;
  }

  type value = Zonotope.t

  let name = "zonotope"

  let transfer st ~op_index:_ (op : Ir.op) ~get ~set =
    let { cfg; ctx; total_layers; _ } = st in
    try
      match op with
      | Ir.Linear { src; w; b } ->
          (* Every op's output passed the poison scan before it was
             stored, and the scan after this op aborts on a NaN as on an
             infinity: the NaN -> inf widening, and the scan of the
             source that decides it, cannot change the outcome. *)
          Zonotope.linear_map ~scan:false (get src) w b
      | Ir.Relu src -> Elementwise.relu ctx (get src)
      | Ir.Tanh src -> Elementwise.tanh_ ctx (get src)
      | Ir.Add (a, b) -> Zonotope.add (get a) (get b)
      | Ir.Center_norm { src; gamma; beta; divide_std } ->
          if divide_std then Std_norm.apply ctx (get src) ~gamma ~beta
          else Zonotope.center_rows (get src) ~gamma ~beta
      | Ir.Self_attention { src; att } ->
          (* Layer input: reduce noise symbols before the residual split
             (Section 5.1), updating the stored value so the residual
             Add sees the reduced zonotope too. *)
          if cfg.Config.reduction_k > 0 then
            set src (Reduction.decorrelate_min_k ctx (get src) cfg.Config.reduction_k);
          let precise = use_precise cfg ~layer:st.layer ~total:total_layers in
          st.layer <- st.layer + 1;
          Attention_t.apply ~cfg ~precise ctx att (get src)
      | Ir.Pool_first src -> Zonotope.pool_first (get src)
      | Ir.Positional { src; pos } -> Zonotope.positional (get src) pos
    with Zonotope.Unbounded -> raise (Verdict.Abort Verdict.Unbounded)

  (* A post-LN layer's residual sum and its mean-only normalization:
     [Zonotope.add_center_rows] is [center_rows (add a b)] bit for bit.
     Its output is poisoned whenever the sum is (a NaN or inf in a
     column spreads to the column's mean). *)
  let transfer_pair _ ~op_index:_ (op : Ir.op) (next : Ir.op) ~get =
    match (op, next) with
    | ( Ir.Add (a, b),
        Ir.Center_norm { src = _; gamma; beta; divide_std = false } ) ->
        Some (Zonotope.add_center_rows (get a) (get b) ~gamma ~beta)
    | _ -> None

  let is_poisoned = poison_scan
  let size st _ = Zonotope.ctx_symbols st.ctx

  let width _ z =
    match Zonotope.bounds z with
    | b ->
        Tensor.Mat.max_abs (Tensor.Mat.sub b.Interval.Imat.hi b.Interval.Imat.lo)
    | exception Zonotope.Unbounded -> nan

  let density _ z = Zonotope.eps_density z
end

module I = Interp.Make (Domain)

(* DEEPT_TRACE compatibility shim: the old env var becomes a stderr sink
   on the interpreter's trace stream, installed only when the config has
   no explicit sink. Output format is unchanged (incl. the historical
   "pool" abbreviation). *)
let stderr_sink (e : Interp.event) =
  Printf.eprintf "op %-3d %-16s width %.4g eps=%d\n%!" e.Interp.op_index
    (match e.Interp.kind with "pool_first" -> "pool" | k -> k)
    e.Interp.width e.Interp.size

let trace_of (cfg : Config.t) =
  match cfg.Config.trace with
  | Some _ as s -> s
  | None -> if Sys.getenv_opt "DEEPT_TRACE" <> None then Some stderr_sink else None

let checks_of ~t0 (cfg : Config.t) : Zonotope.t Interp.checks =
  let budget = cfg.Config.budget in
  {
    Interp.deadline = Option.map (fun l -> t0 +. l) budget.Config.time_limit_s;
    max_size = budget.Config.max_eps;
    poison = true;
    fault =
      Option.map
        (fun f ->
          ( f.Config.fault_op,
            fun out ->
              try apply_fault f out
              with Zonotope.Unbounded -> raise (Verdict.Abort Verdict.Unbounded) ))
        cfg.Config.fault;
    trace = trace_of cfg;
    abort = abort_of;
  }

(* Indices of the ops that take a Transformer layer's input, ascending. *)
let layer_ops (p : Ir.program) =
  List.filter
    (fun i -> match p.Ir.ops.(i) with Ir.Self_attention _ -> true | _ -> false)
    (List.init (Array.length p.Ir.ops) Fun.id)

(* [start] and [width] place the run: ops before [start] are done, and
   [width] symbols are live. The layer counter is derived from [start]
   so Combined still finds its Precise last layer. *)
let state_of ~t0 ?(start = 0) ~width (cfg : Config.t) (p : Ir.program) =
  let ctx = Zonotope.ctx () in
  (* Arm the intra-op deadline: long transformers (the dot product) poll it
     inside their hot loops, so one giant op cannot blow past the budget
     that the per-op checkpoints only enforce between ops. *)
  Zonotope.set_deadline ctx
    (Option.map (fun l -> t0 +. l) cfg.Config.budget.Config.time_limit_s);
  (* Arm the domain pool the same way: the dot product's row blocks pick
     it up from the ctx, with bit-identical results. *)
  Zonotope.set_pool ctx (shared_pool cfg.Config.domains);
  ignore (Zonotope.alloc_eps ctx width);
  {
    Domain.cfg;
    ctx;
    total_layers = Ir.depth_of_kind p "self_attention";
    layer = List.length (List.filter (fun i -> i < start) (layer_ops p));
  }

let affine_prefix_len (p : Ir.program) =
  let n = Array.length p.Ir.ops in
  let rec go i =
    if i >= n then i
    else
      match p.Ir.ops.(i) with
      | Ir.Linear _ | Ir.Add _ | Ir.Positional _ | Ir.Pool_first _
      | Ir.Center_norm { divide_std = false; _ } ->
          go (i + 1)
      | Ir.Center_norm _ | Ir.Relu _ | Ir.Tanh _ | Ir.Self_attention _ -> i
  in
  go 0

let check_input (p : Ir.program) input =
  if input.Zonotope.vcols <> p.Ir.input_dim then
    invalid_arg "Propagate.run: input dim mismatch"

let run_prefix (cfg : Config.t) (p : Ir.program) input ~len =
  check_input p input;
  if len < 0 || len > affine_prefix_len p then
    invalid_arg "Propagate.run_prefix: not an affine prefix";
  let t0 = Unix.gettimeofday () in
  let st = state_of ~t0 ~width:(Zonotope.num_eps input) cfg p in
  let vals = Array.make (Ir.num_values p) input in
  I.run_values ~checks:(checks_of ~t0 cfg) ~stop:len st p vals;
  checkpoint_at (last_uses p) ~start:len (Array.get vals)

let run ?from ?on_budget (cfg : Config.t) (p : Ir.program) input =
  check_input p input;
  let t0 = Unix.gettimeofday () in
  let vals = Array.make (Ir.num_values p) input in
  let start, width =
    match from with
    | None -> (0, Zonotope.num_eps input)
    | Some c ->
        List.iter (fun (v, z) -> vals.(v) <- z) c.live;
        ( c.start,
          List.fold_left (fun w (_, z) -> max w (Zonotope.num_eps z)) 0 c.live )
  in
  let st = state_of ~t0 ~start ~width cfg p in
  match I.run_values ~checks:(checks_of ~t0 cfg) ~start st p vals with
  | () -> vals.(Ir.output_id p)
  | exception (Verdict.Abort Verdict.Symbol_budget as e) ->
      (* Hand on the input of the last layer this run entered. Its slot
         holds that input as this run reduced it; the resumed run
         reduces it again with its own k. *)
      (match on_budget with
      | Some f when st.Domain.layer > 0 ->
          let r = List.nth (layer_ops p) (st.Domain.layer - 1) in
          if r >= start then f (checkpoint_at (last_uses p) ~start:r (Array.get vals))
      | _ -> ());
      raise e
