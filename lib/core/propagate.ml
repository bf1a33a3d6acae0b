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
      | Ir.Linear { src; w; b } -> Zonotope.linear_map (get src) w b
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

  let widen _ ~op_index:_ z = z
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

let state_of ~t0 (cfg : Config.t) (p : Ir.program) input =
  let ctx = Zonotope.ctx () in
  (* Arm the intra-op deadline: long transformers (the dot product) poll it
     inside their hot loops, so one giant op cannot blow past the budget
     that the per-op checkpoints only enforce between ops. *)
  Zonotope.set_deadline ctx
    (Option.map (fun l -> t0 +. l) cfg.Config.budget.Config.time_limit_s);
  (* Arm the domain pool the same way: the dot product's row blocks pick
     it up from the ctx, with bit-identical results. *)
  Zonotope.set_pool ctx (shared_pool cfg.Config.domains);
  ignore (Zonotope.alloc_eps ctx (Zonotope.num_eps input));
  {
    Domain.cfg;
    ctx;
    total_layers = Ir.depth_of_kind p "self_attention";
    layer = 0;
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
  let st = state_of ~t0 cfg p input in
  let vals = Array.make (Ir.num_values p) input in
  I.run_values ~checks:(checks_of ~t0 cfg) ~stop:len st p vals;
  vals

let run_all ?prefix (cfg : Config.t) (p : Ir.program) input =
  check_input p input;
  let t0 = Unix.gettimeofday () in
  let st = state_of ~t0 cfg p input in
  let checks = checks_of ~t0 cfg in
  match prefix with
  | None -> I.run_all ~checks st p input
  | Some (pvals, start) ->
      (* The reduction step mutates the layer-input slot in place, so a
         rung must work on its own copy of the shared prefix values. *)
      let vals = Array.copy pvals in
      I.run_values ~checks ~start st p vals;
      vals

let run ?prefix cfg p input = (run_all ?prefix cfg p input).(Ir.output_id p)
