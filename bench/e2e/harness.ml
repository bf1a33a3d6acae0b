(* What the four workloads share: the run context, model loading, seeded
   input pools, set-up timing, times at nominal machine speed (Speed),
   the closed loop and the correctness checks. *)

type ctx = {
  workload : string;
  seed : int;
  seconds : float;  (** length of the measured phase *)
  trace : bool;  (** the traced run: per-layer metrics instead of end-to-end *)
  quick : bool;  (** smoke mode: a few queries, correctness checks only *)
  dir : string;  (** run directory for sockets, journals and traces *)
}

type outcome = {
  attempted : int;
  failed : int;
  problems : string list;  (** failed correctness checks; empty = correct *)
  metrics : (string * float) list;
      (** end-to-end metrics (untraced run) or per-layer metrics (traced
          run), by the names BENCHMARK.json gives them *)
  digest : string;  (** hash of the radii and verdicts of a fixed query prefix *)
  spans : Trace.span list;
  report : string list;  (** human-readable lines printed before the result *)
}

let now = Unix.gettimeofday

(* ---------------- inputs ---------------- *)

type sentence = { index : int; toks : int array; label : int }

type model = {
  name : string;
  net : Nn.Model.t;
  program : Ir.program;
  corpus : Text.Corpus.t;
  correct : (int, sentence array) Hashtbl.t;
      (** test sentences the model classifies correctly, by token count
          ([CLS] included) *)
  wrong : sentence array;  (** test sentences it misclassifies *)
}

(* A zoo model, which must already be trained: training one would take
   longer than any run. *)
let load name =
  let path = Zoo.path (Zoo.entry name) in
  if not (Sys.file_exists path) then failwith (path ^ " is missing");
  let net = Zoo.load_or_train name in
  let corpus = Zoo.corpus_of (Zoo.entry name).Zoo.corpus in
  let program = Nn.Model.to_ir net in
  let correct = Hashtbl.create 16 and wrong = ref [] in
  List.iteri
    (fun index (toks, label) ->
      let s = { index; toks; label } in
      if Nn.Forward.predict program (Nn.Model.embed_tokens net toks) = label then
        Hashtbl.replace correct (Array.length toks)
          (s :: Option.value ~default:[] (Hashtbl.find_opt correct (Array.length toks)))
      else wrong := s :: !wrong)
    corpus.Text.Corpus.test;
  let correct' = Hashtbl.create 16 in
  Hashtbl.iter (fun len l -> Hashtbl.replace correct' len (Array.of_list (List.rev l))) correct;
  { name; net; program; corpus; correct = correct'; wrong = Array.of_list (List.rev !wrong) }

let rng ctx = Random.State.make [| ctx.seed; Hashtbl.hash ctx.workload |]
let pick st a = a.(Random.State.int st (Array.length a))

let sentence_of_len st m len =
  match Hashtbl.find_opt m.correct len with
  | Some a when Array.length a > 0 -> pick st a
  | _ ->
      failwith
        (Printf.sprintf "%s classifies no test sentence of length %d correctly" m.name len)

(* A word position other than [CLS]. *)
let word_of st (s : sentence) = 1 + Random.State.int st (Array.length s.toks - 1)

(* Reference radius of a model, verifier and norm: the median certified
   radius of a few test sentences of the lengths the workloads use. Radii
   are reported in multiples of it (so ℓ1, ℓ2 and ℓ∞ balls and small and
   large models weigh alike in a mean) and query radii are drawn around
   it. *)
let reference_radius name (variant : Deept.Config.dot_variant) (p : Deept.Lp.t) =
  match (name, variant, p) with
  | "sst_3", Fast, L1 -> 0.30
  | "sst_3", Fast, L2 -> 0.13
  | "sst_3", Fast, Linf -> 0.030
  | "sst_6", Fast, L1 -> 0.065
  | "sst_6", Fast, L2 -> 0.028
  | "sst_6", Fast, Linf -> 0.0059
  | "small_3", Fast, L1 -> 0.39
  | "small_3", Fast, L2 -> 0.185
  | "small_3", Fast, Linf -> 0.051
  | "small_3", Precise, L1 -> 0.38
  | "small_3", Precise, L2 -> 0.176
  | "small_3", Precise, Linf -> 0.059
  | "small_6", Combined, L1 -> 0.076
  | "small_6", Combined, L2 -> 0.036
  | "small_6", Combined, Linf -> 0.0098
  | _ -> invalid_arg ("no reference radius for " ^ name)

(* Query radii: [ref / f] or [ref * f] with [f] log-uniform in [1.6,
   2.2], below or above the reference radius. A sentence's own certified
   radius is rarely that far from the reference, so a verdict follows
   from the band: how many queries certify depends on the verifier's
   precision and hardly on which sentences a seed picks. *)
type band = Below | Above

let radius_in st band ~reference =
  let f = exp (0.47 +. Random.State.float st 0.32) in
  match band with Below -> reference /. f | Above -> reference *. f

let embed m (s : sentence) = Nn.Model.embed_tokens m.net s.toks

let norm_name = Deept.Lp.to_string

(* ---------------- measurement helpers ---------------- *)

(* Words allocated by this process so far. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1e6

(* Peak resident set size (VmHWM) of a process, in MB; 0 when the
   kernel does not report it. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f" (fun kb -> kb /. 1024.0)
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

let fsum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let count p l = List.length (List.filter p l)
let frac n d = if d = 0 then 0.0 else float_of_int n /. float_of_int d

let load_all names = List.map (fun n -> (n, load n)) names

(* A timed piece of work and the machine's slowness around it
   ({!Speed.sample}); [scaled] is its time at nominal speed. *)
type timed = { raw : float; slow : float }

let scaled t = t.raw /. t.slow

(* [timed_unit f] runs [f], then samples the machine's speed. *)
let timed_unit f =
  let t0 = now () in
  let x = f () in
  let raw = now () -. t0 in
  (x, { raw; slow = Speed.sample () })

(* One cold set-up in a fresh process — this program re-run with
   --setup-sample, which loads [names] and prints how long that took —
   so that nothing an earlier set-up cached or allocated is reused. *)
let setup_sample names =
  let raw = Speed.run_self [ "--setup-sample"; String.concat "," names; "--data"; !Zoo.data_dir ] in
  { raw; slow = Speed.sample () }

(* Set-up is short, so a slow moment of the machine would swing a single
   sample: the set-up time is the median of cold set-ups taken before
   the measured phase (the parent's own included) and after it. [setup]
   loads [names] and returns them with the samples so far; [setup_s]
   adds the later ones and returns the median at nominal speed and the
   unscaled median. *)
let setup names =
  let before = List.init 4 (fun _ -> setup_sample names) in
  let models, own = timed_unit (fun () -> load_all names) in
  (models, own :: before)

let setup_s names samples =
  let all = samples @ List.init 4 (fun _ -> setup_sample names) in
  (Stats.median (List.map scaled all), Stats.median (List.map (fun t -> t.raw) all))

(* ---------------- closed loop ---------------- *)

type ('q, 'r) done_query = { q : 'q; r : 'r; wall : timed }

(* One client, next query only after the previous answered, in whole
   cycles of [cycle] queries [gen 0], [gen 1], ...: the workloads
   stratify their inputs by cycle position, so whole cycles give every
   run the same mix of input costs. Cycles run until the next one would
   end more than half a cycle past [seconds] (always at least one).
   The machine's speed is sampled before the first query and after each
   one; a query's slowness is the mean of the samples on either side.
   Returns the answered queries in order. *)
let closed_loop ~seconds ~cycle ~gen ~run =
  let start = now () in
  let before = ref (Speed.sample ()) in
  let rec go k acc =
    let spent = now () -. start in
    if k > 0 && spent +. (spent /. float_of_int k /. 2.0) >= seconds then List.rev acc
    else
      let acc =
        List.fold_left
          (fun acc i ->
            let q = gen i in
            let r, w = timed_unit (fun () -> run q) in
            let slow = (!before +. w.slow) /. 2.0 in
            before := w.slow;
            { q; r; wall = { w with slow } } :: acc)
          acc
          (List.init cycle (fun j -> (k * cycle) + j))
      in
      go (k + 1) acc
  in
  go 0 []


(* Typical query latency of a stratified mix: each stratum's median
   latency, averaged over strata. Unlike the median of the pooled
   latencies it does not jump when two strata of similar cost trade
   places around the middle rank. *)
let strata_p50 (lats : (int * float) list) =
  let strata = List.sort_uniq compare (List.map fst lats) in
  Stats.mean
    (List.map
       (fun k ->
         Stats.median (List.filter_map (fun (k', l) -> if k = k' then Some l else None) lats))
       strata)

(* ---------------- correctness ---------------- *)

(* Soundness spot check of a Certified verdict: 64 seeded concrete
   points of the region must all keep the label. *)
let samples_agree program region ~true_class ~seed =
  let g = Tensor.Rng.create seed in
  let rec go k =
    k = 0
    || (Nn.Forward.predict program (Deept.Zonotope.sample g region) = true_class
       && go (k - 1))
  in
  go 64

let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* ---------------- traced-run metrics ---------------- *)

let op_kinds = [ "self_attention"; "linear"; "add"; "center_norm"; "relu" ]

(* The interp.* metrics over [spans], per query of [queries]. *)
let interp_metrics ~queries spans =
  let q = float_of_int (max 1 queries) in
  let self = Trace.self_times spans in
  let of_kind k = List.filter (fun ((s : Trace.span), _) -> s.Trace.name = "op." ^ k) self in
  List.concat_map
    (fun k ->
      let ops = of_kind k in
      [
        (Printf.sprintf "interp.%s.self_s" k, fsum snd ops /. q);
        (Printf.sprintf "interp.%s.calls" k, float_of_int (List.length ops) /. q);
      ])
    op_kinds
  @
  let att = List.map fst (of_kind "self_attention") in
  [
    ( "interp.self_attention.eps_mean",
      Stats.mean (List.map (fun s -> float_of_int s.Trace.size) att) );
    ("interp.self_attention.density_mean", Stats.mean (List.map (fun s -> s.Trace.density) att));
  ]

(* Self time of the spans named [name], per span. *)
let self_per_span name spans =
  let own =
    List.filter (fun ((s : Trace.span), _) -> s.Trace.name = name) (Trace.self_times spans)
  in
  fsum snd own /. float_of_int (max 1 (List.length own))

(* ---------------- in-process closed-loop workloads ---------------- *)

type ('q, 'r) closed = {
  runs : ('q, 'r * float) done_query list;
      (** the measured phase: each answer with the words it allocated *)
  prefix : ('q * 'r) list;
      (** the first [digest_n] queries and answers — finished untimed
          when an untraced run answered fewer *)
  traced : (('q * 'r) list * Trace.span list * float list) option;
      (** traced run: the measured queries replayed with a sink, their
          spans, and per query the traced over the untraced time *)
}

(* Drives [call sink q] (one public library call per query) as a closed
   loop. A traced run measures for a third of [seconds] untraced, then
   replays exactly those queries, each once untraced and once with a
   "certify" span per call and the op spans of [Interp.sink] beneath
   it: traced and untraced time compare on the same input, moments
   apart. A quick run answers the first three queries. *)
let run_closed ctx ~cycle ~digest_n ~gen ~call =
  let st = rng ctx in
  let gen i = gen st i in
  let seconds = if ctx.quick then 0.0 else if ctx.trace then ctx.seconds /. 3.0 else ctx.seconds in
  let cycle = if ctx.quick then 3 else cycle in
  let run q =
    let a0 = alloc_words () in
    let r = call None q in
    (r, alloc_words () -. a0)
  in
  let runs = closed_loop ~seconds ~cycle ~gen ~run in
  let n = List.length runs in
  let extra =
    List.init (if ctx.trace then 0 else max 0 (digest_n - n)) (fun k ->
        let q = gen (n + k) in
        (q, call None q))
  in
  let prefix =
    List.filteri (fun i _ -> i < digest_n) (List.map (fun d -> (d.q, fst d.r)) runs @ extra)
  in
  let traced =
    if not ctx.trace then None
    else
      let t = Trace.create () in
      let replay =
        List.mapi
          (fun i d ->
            let query = i + 1 in
            let t0 = now () in
            ignore (call None d.q);
            let t1 = now () in
            let r =
              Trace.span t ~parent:0 ~query "certify" (fun id ->
                  call (Some (Trace.sink t ~parent:id ~query)) d.q)
            in
            ((d.q, r), (now () -. t1) /. (t1 -. t0)))
          runs
      in
      Some (List.map fst replay, Trace.spans t, List.map snd replay)
  in
  { runs; prefix; traced }

(* The closed-loop timing metrics, at nominal speed and unscaled:
   queries_per_s (queries over their summed time; the loop runs whole
   cycles, so every run weighs the strata alike) and lat_ms_p50 (per
   [stratum] the median query time, averaged over strata). *)
let closed_timing ~stratum runs =
  let at time =
    ( float_of_int (List.length runs) /. fsum time runs,
      1000.0 *. strata_p50 (List.map (fun d -> (stratum d.q, time d)) runs) )
  in
  (at (fun d -> scaled d.wall), at (fun d -> d.wall.raw))

(* Median over queries of traced over untraced time, minus 1. *)
let overhead_frac ratios = Stats.median ratios -. 1.0

(* Report line: the machine's slowness over the run's units of work and
   the timing metrics before scaling. *)
let unscaled_line slows metrics =
  Printf.sprintf "  machine slowness %.3f (median of %d units); unscaled: %s" (Stats.median slows)
    (List.length slows)
    (String.concat ", " (List.map (fun (n, v) -> Printf.sprintf "%s %.5g" n v) metrics))
