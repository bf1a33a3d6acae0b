type dot_variant = Fast | Precise | Combined
type dual_order = Linf_first | Lp_first
type softmax_form = Stable | Direct

type fault_action =
  | Inject_nan
  | Inject_inf
  | Stall of float
  | Raise_unbounded

type fault_spec = { fault_op : int; action : fault_action; persist : int }

type budget = { time_limit_s : float option; max_eps : int option }

let no_budget = { time_limit_s = None; max_eps = None }

type pool = {
  workers : int;
  hard_deadline_s : float option;
  grace_s : float;
  mem_limit_mb : int option;
  max_retries : int;
  backoff_s : float;
  max_backoff_s : float;
}

let default_pool =
  {
    workers = 1;
    hard_deadline_s = None;
    grace_s = 1.0;
    mem_limit_mb = None;
    max_retries = 1;
    backoff_s = 0.05;
    max_backoff_s = 5.0;
  }

let pool ?(workers = default_pool.workers) ?hard_deadline_s
    ?(grace_s = default_pool.grace_s) ?mem_limit_mb
    ?(max_retries = default_pool.max_retries)
    ?(backoff_s = default_pool.backoff_s)
    ?(max_backoff_s = default_pool.max_backoff_s) () =
  if workers < 1 then invalid_arg "Config.pool: workers < 1";
  if grace_s < 0.0 then invalid_arg "Config.pool: negative grace";
  if max_retries < 0 then invalid_arg "Config.pool: negative max_retries";
  if backoff_s < 0.0 then invalid_arg "Config.pool: negative backoff";
  if max_backoff_s < backoff_s then
    invalid_arg "Config.pool: max_backoff below backoff";
  (match hard_deadline_s with
  | Some d when d <= 0.0 -> invalid_arg "Config.pool: non-positive deadline"
  | _ -> ());
  (match mem_limit_mb with
  | Some m when m < 1 -> invalid_arg "Config.pool: mem limit < 1 MB"
  | _ -> ());
  {
    workers;
    hard_deadline_s;
    grace_s;
    mem_limit_mb;
    max_retries;
    backoff_s;
    max_backoff_s;
  }

type refine = { top_k : int; max_branches : int; depth : int }

let default_refine = { top_k = 2; max_branches = 8; depth = 2 }

let refine ?(top_k = default_refine.top_k)
    ?(max_branches = default_refine.max_branches)
    ?(depth = default_refine.depth) () =
  if top_k < 1 || top_k > 6 then
    invalid_arg "Config.refine: need 1 <= top_k <= 6";
  if max_branches < 2 || max_branches > 256 then
    invalid_arg "Config.refine: need 2 <= max_branches <= 256";
  if depth < 1 || depth > 8 then
    invalid_arg "Config.refine: need 1 <= depth <= 8";
  { top_k; max_branches; depth }

type t = {
  variant : dot_variant;
  order : dual_order;
  softmax : softmax_form;
  refine_softmax_sum : bool;
  reduction_k : int;
  budget : budget;
  fault : fault_spec option;
  domains : int;
  trace : Interp.sink option;
  refine : refine option;
}

let default =
  {
    variant = Fast;
    order = Linf_first;
    softmax = Stable;
    refine_softmax_sum = true;
    reduction_k = 128;
    budget = no_budget;
    fault = None;
    domains = 1;
    trace = None;
    refine = None;
  }

let fast = default
let precise = { default with variant = Precise; reduction_k = 96 }
let combined = { default with variant = Combined; reduction_k = 128 }

let fault ?(persist = max_int) fault_op action =
  if fault_op < 0 then invalid_arg "Config.fault: negative op index";
  if persist < 1 then invalid_arg "Config.fault: persist < 1";
  { fault_op; action; persist }

let with_budget ?deadline ?max_eps cfg =
  { cfg with budget = { time_limit_s = deadline; max_eps } }

let with_domains n cfg =
  if n < 1 || n > 128 then invalid_arg "Config.with_domains: need 1 <= n <= 128";
  { cfg with domains = n }

let with_trace sink cfg = { cfg with trace = sink }
let with_refine r cfg = { cfg with refine = r }

let variant_name = function Fast -> "fast" | Precise -> "precise" | Combined -> "combined"

let refine_key = function
  | None -> "-"
  | Some r -> Printf.sprintf "k%d.b%d.d%d" r.top_k r.max_branches r.depth

let policy_key c =
  Printf.sprintf "%s:o%s:s%s:ss%d:k%d:rf%s"
    (variant_name c.variant)
    (match c.order with Linf_first -> "linf" | Lp_first -> "lp")
    (match c.softmax with Stable -> "stable" | Direct -> "direct")
    (if c.refine_softmax_sum then 1 else 0)
    c.reduction_k
    (refine_key c.refine)

let fault_action_name = function
  | Inject_nan -> "nan"
  | Inject_inf -> "inf"
  | Stall s -> Printf.sprintf "stall:%g" s
  | Raise_unbounded -> "unbounded"

let pp ppf c =
  let b = Buffer.create 16 in
  (match c.budget.time_limit_s with
  | Some s -> Buffer.add_string b (Printf.sprintf ", deadline=%gs" s)
  | None -> ());
  (match c.budget.max_eps with
  | Some n -> Buffer.add_string b (Printf.sprintf ", max_eps=%d" n)
  | None -> ());
  (match c.fault with
  | Some f ->
      Buffer.add_string b
        (Printf.sprintf ", fault=%s@%d" (fault_action_name f.action) f.fault_op)
  | None -> ());
  if c.domains > 1 then
    Buffer.add_string b (Printf.sprintf ", domains=%d" c.domains);
  (match c.refine with
  | Some r ->
      Buffer.add_string b
        (Printf.sprintf ", refine=k%d/b%d/d%d" r.top_k r.max_branches r.depth)
  | None -> ());
  Format.fprintf ppf "deept(%s, %s, softmax=%s, refine=%b, k=%d%s)"
    (variant_name c.variant)
    (match c.order with Linf_first -> "linf-first" | Lp_first -> "lp-first")
    (match c.softmax with Stable -> "stable" | Direct -> "direct")
    c.refine_softmax_sum c.reduction_k (Buffer.contents b)
