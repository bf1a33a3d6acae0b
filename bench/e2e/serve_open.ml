(* serve-open: certifyd under an open-loop load. A forked Server.run (two
   pre-forked workers, journal on local disk, queue_cap 64) serves
   small_3 DeepT-Fast requests sent as raw Protocol lines over one
   Unix-socket connection. Requests go out on a fixed schedule whether
   or not earlier ones were answered, as independent users would send
   them, so a stall delays every later request; latency is timed from
   each request's due time. This is the only workload with admission,
   the intake and journal fsyncs, queue wait and the result cache.

   small_3 keeps compute near 40 ms a request, so queueing and service
   overhead are visible. Fresh requests cycle through sentence lengths 4
   to 6, both norms and radius bands below and above the reference
   radius; 3 in every 10 requests repeat an earlier one, so cache reads
   sit beside journal writes, and every seed sends the same mix. The
   schedule is two steady steps (10 and 20 requests/s, evenly spaced)
   and an overload step at 120 requests/s, more than twice what two
   workers serve, so the queue reaches its cap and admission sheds;
   between steps the backlog drains untimed.

   Latency and capacity are not scaled to nominal machine speed
   (Speed): part of a request's latency is fsync and socket time that
   the processor's speed does not set, and the reference loop cannot run
   during a step without competing with the daemon's workers. *)

open Harness

let limit_s = 0.5

type step = { rate : float; duration : float; steady : bool }

let steps ctx =
  if ctx.quick then [ { rate = 10.0; duration = 1.0; steady = true } ]
  else
    let s = ctx.seconds in
    [
      { rate = 10.0; duration = 0.36 *. s; steady = true };
      { rate = 20.0; duration = 0.36 *. s; steady = true };
      { rate = 120.0; duration = 0.2 *. s; steady = false };
    ]

(* ---------------- daemon ---------------- *)

type daemon = { pid : int; fd : Unix.file_descr; buf : Buffer.t }

let socket_path ctx = Filename.concat ctx.dir "certifyd.sock"
let journal_path ctx = Filename.concat ctx.dir "certifyd.jsonl"

let remove path = try Sys.remove path with Sys_error _ -> ()

(* Fork a fresh daemon and connect to it; returns once the first
   connect succeeds. *)
let start ctx =
  List.iter remove [ socket_path ctx; journal_path ctx; journal_path ctx ^ ".intake" ];
  flush_all ();
  match Unix.fork () with
  | 0 -> (
      try
        Service.Server.run
          (Service.Server.opts
             ~pool:(Deept.Config.pool ~workers:2 ())
             ~queue_cap:64 ~journal:(journal_path ctx) ~socket:(socket_path ctx) [ "small_3" ]);
        Unix._exit 0
      with e ->
        prerr_endline ("e2e daemon: " ^ Printexc.to_string e);
        Unix._exit 1)
  | pid ->
      let deadline = now () +. 60.0 in
      let rec connect () =
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match Unix.connect fd (Unix.ADDR_UNIX (socket_path ctx)) with
        | () -> fd
        | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
          when now () < deadline ->
            Unix.close fd;
            (match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ -> ()
            | _ -> failwith "certifyd exited during start-up");
            Unix.sleepf 0.002;
            connect ()
      in
      { pid; fd = connect (); buf = Buffer.create 4096 }

let send d req =
  let line = Service.Protocol.request_to_json req ^ "\n" in
  let rec go off =
    if off < String.length line then
      go (off + Unix.write_substring d.fd line off (String.length line - off))
  in
  go 0

(* Complete response lines available within [timeout] seconds. *)
let recv d ~timeout =
  match Unix.select [ d.fd ] [] [] (Float.max 0.0 timeout) with
  | [], _, _ -> []
  | _ ->
      let chunk = Bytes.create 65536 in
      let k = Unix.read d.fd chunk 0 (Bytes.length chunk) in
      if k = 0 then failwith "certifyd closed the connection";
      Buffer.add_subbytes d.buf chunk 0 k;
      let s = Buffer.contents d.buf in
      let lines = String.split_on_char '\n' s in
      let rest = List.nth lines (List.length lines - 1) in
      Buffer.clear d.buf;
      Buffer.add_string d.buf rest;
      List.filter_map
        (fun l ->
          if l = "" then None
          else
            match Service.Protocol.response_of_json l with
            | Ok r -> Some r
            | Error e -> failwith ("unparsable certifyd response: " ^ e))
        (List.filteri (fun i _ -> i < List.length lines - 1) lines)

(* VmHWM of the daemon and of the workers it forked. *)
let daemon_rss_mb d =
  let children =
    let path = Printf.sprintf "/proc/%d/task/%d/children" d.pid d.pid in
    match open_in path with
    | exception Sys_error _ -> []
    | ic ->
        let l = try input_line ic with End_of_file -> "" in
        close_in ic;
        List.filter (( <> ) "") (String.split_on_char ' ' l)
  in
  List.fold_left
    (fun acc pid -> Float.max acc (peak_rss_mb pid))
    (peak_rss_mb (string_of_int d.pid))
    children

(* Orderly drain; SIGKILL only when the daemon does not go within 30 s.
   Its workers exit on EOF of their job pipes either way. *)
let stop d =
  (try send d Service.Protocol.Shutdown with Unix.Unix_error _ -> ());
  let deadline = now () +. 30.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  wait ();
  Unix.close d.fd

(* ---------------- load ---------------- *)

type req = { tag : int; c : Service.Protocol.certify; len : int  (** sentence length *) }

type answer = {
  req : req;
  due : float;
  sent : float;
  got : float;
  resp : Service.Protocol.response;
}

type step_out = {
  step : step;
  sent_n : int;
  answers : answer list;
  errors : int;  (** Error lines, which carry no tag *)
  late_max : float;  (** how late the generator sent, worst case *)
  drain_s : float;  (** last answer after the last send *)
  depth_max : int;  (** queue depth from Stats, polled once a second *)
  first_due : float;
}

let run_step d step reqs =
  let n = Array.length reqs in
  let t0 = now () +. 0.01 in
  let due i = t0 +. (float_of_int i /. step.rate) in
  let sent_at = Array.make n nan in
  let answers = ref [] and errors = ref 0 and depth_max = ref 0 and late = ref 0.0 in
  let pending = Hashtbl.create 256 in
  let next = ref 0 and next_poll = ref t0 in
  let last_send = ref t0 and last_got = ref t0 in
  let stop_at = ref infinity in
  let outstanding () = Hashtbl.length pending > 0 || !next < n in
  while outstanding () && now () < !stop_at do
    let t = now () in
    if !next < n && t >= due !next then begin
      let r = reqs.(!next) in
      Hashtbl.replace pending r.tag (!next, r);
      send d (Service.Protocol.Certify r.c);
      sent_at.(!next) <- now ();
      late := Float.max !late (sent_at.(!next) -. due !next);
      last_send := sent_at.(!next);
      incr next;
      if !next = n then stop_at := !last_send +. 20.0
    end
    else if t >= !next_poll then begin
      send d Service.Protocol.Stats;
      next_poll := !next_poll +. 1.0
    end
    else
      let wake = Float.min !next_poll (if !next < n then due !next else infinity) in
      List.iter
        (fun resp ->
          let got = now () in
          let tagged tag =
            match Option.bind tag (Hashtbl.find_opt pending) with
            | Some (i, r) ->
                Hashtbl.remove pending r.tag;
                last_got := got;
                answers := { req = r; due = due i; sent = sent_at.(i); got; resp } :: !answers
            | None -> incr errors
          in
          match resp with
          | Service.Protocol.Result r -> tagged r.Service.Protocol.tag
          | Overloaded { tag; _ } | Quarantined { tag; _ } -> tagged tag
          | Stats_r s -> depth_max := max !depth_max s.Service.Protocol.queue_depth
          | Error _ -> incr errors
          | Ok_ack -> ())
        (recv d ~timeout:(Float.min 0.05 (wake -. t)))
  done;
  {
    step;
    sent_n = !next;
    answers = List.rev !answers;
    errors = !errors;
    late_max = !late;
    drain_s = !last_got -. !last_send;
    depth_max = !depth_max;
    first_due = t0;
  }

let results o =
  List.filter_map
    (fun a -> match a.resp with Service.Protocol.Result r -> Some (a, r) | _ -> None)
    o.answers

let latency a = a.got -. a.due

let shed o =
  count (fun a -> match a.resp with Service.Protocol.Result _ -> false | _ -> true) o.answers

(* ---------------- the workload ---------------- *)

let run ctx =
  let models, setup_samples = setup [ "small_3" ] in
  let m = List.assoc "small_3" models in
  (* daemon fork, warm load and first connect *)
  let start_times = ref [] in
  let start ctx =
    let d, t = timed_unit (fun () -> start ctx) in
    start_times := t :: !start_times;
    d
  in
  let start_sample () = stop (start ctx) in
  start_sample ();
  start_sample ();
  let fresh st ~len j =
    let s = sentence_of_len st m len in
    let p = if j / 3 mod 2 = 0 then Deept.Lp.L2 else Deept.Lp.Linf in
    let band = if j / 6 mod 2 = 0 then Below else Above in
    let reference = reference_radius "small_3" Deept.Config.Fast p in
    (s, word_of st s, p, radius_in st band ~reference)
  in
  let request tag (s, word, p, radius) =
    {
      tag;
      c =
        Service.Protocol.certify ~word ~p ~tag ~model:"small_3" ~radius
          (Service.Protocol.Index s.index);
      len = Array.length s.toks;
    }
  in
  let st = rng ctx in
  (* Sentence lengths take turns, and 3 in every 10 requests repeat an
     earlier one of the same length, so every length sees the same share
     of cache hits. *)
  let stream = ref [] and made = ref 0 in
  let make k =
    let reqs =
      Array.init k (fun i ->
          let tag = !made + i in
          let len = 4 + (tag mod 3) in
          match List.filter (fun r -> r.len = len) !stream with
          | _ :: _ as earlier when tag mod 10 = 2 || tag mod 10 = 5 || tag mod 10 = 8 ->
              let r = pick st (Array.of_list earlier) in
              { r with tag; c = { r.c with Service.Protocol.tag = Some tag } }
          | _ ->
              let r = request tag (fresh st ~len (List.length !stream)) in
              stream := r :: !stream;
              r)
    in
    made := !made + k;
    reqs
  in
  let schedule =
    List.map (fun s -> (s, make (int_of_float (Float.round (s.rate *. s.duration))))) (steps ctx)
  in
  let run_schedule () =
    let d = start ctx in
    Fun.protect
      ~finally:(fun () -> stop d)
      (fun () ->
        (* untimed warm-up: one request through admission, a worker and the journal *)
        let w = request 1_000_000 (fresh (Random.State.make [| 0 |]) ~len:4 0) in
        ignore (run_step d { rate = 1.0; duration = 1.0; steady = true } [| w |]);
        let outs = List.map (fun (s, reqs) -> run_step d s reqs) schedule in
        (outs, Float.max (peak_rss_mb "self") (daemon_rss_mb d)))
  in
  let outs, rss = run_schedule () in
  start_sample ();
  start_sample ();
  let load_s, load_raw = setup_s [ "small_3" ] setup_samples in
  let daemon_s = Stats.median (List.map scaled !start_times) in
  let daemon_raw = Stats.median (List.map (fun t -> t.raw) !start_times) in
  let setup_s = load_s +. daemon_s in
  let steady = List.filter (fun o -> o.step.steady) outs in
  let overload = List.filter (fun o -> not o.step.steady) outs in
  let steady_results = List.concat_map results steady in
  let steady_sent = List.fold_left (fun acc o -> acc + o.sent_n) 0 steady in
  (* at the steady rates every request must come back as a result *)
  let steady_failed =
    List.fold_left (fun acc o -> acc + o.sent_n - List.length (results o)) 0 steady
    + count (fun (_, r) -> Deept.Verdict.is_fault r.Service.Protocol.verdict) steady_results
  in
  let certified (_, r) = r.Service.Protocol.verdict = Deept.Verdict.Certified in
  (* ---- correctness, outside the timed region ---- *)
  let all_results = List.concat_map results outs in
  let by_key = Hashtbl.create 256 in
  let key (a : answer) =
    Service.Protocol.request_to_json (Service.Protocol.Certify { a.req.c with tag = None })
  in
  let problems = ref [] in
  List.iter
    (fun (a, r) ->
      let v = r.Service.Protocol.verdict in
      match Hashtbl.find_opt by_key (key a) with
      | Some v0 when not (Deept.Verdict.equal v0 v) ->
          problems :=
            Printf.sprintf "request %d (%s) answered %s, an earlier identical one %s" a.req.tag
              (if r.Service.Protocol.cached then "cached" else "recomputed")
              (Deept.Verdict.to_string v) (Deept.Verdict.to_string v0)
            :: !problems
      | Some _ -> ()
      | None -> Hashtbl.replace by_key (key a) v)
    all_results;
  (* 20 sampled answers against an in-process Engine.certify *)
  let checked =
    let a = Array.of_list steady_results in
    let g = Random.State.make [| ctx.seed; 20 |] in
    if Array.length a = 0 then []
    else List.init (min 20 (Array.length a)) (fun _ -> a.(Random.State.int g (Array.length a)))
  in
  List.iter
    (fun (a, r) ->
      let c = a.req.c in
      let index =
        match c.Service.Protocol.input with
        | Service.Protocol.Index i -> i
        | Sentence _ -> assert false
      in
      let toks, label = List.nth m.corpus.Text.Corpus.test index in
      let word = max 0 (min c.Service.Protocol.word (Array.length toks - 1)) in
      let region =
        Deept.Region.lp_ball ~p:c.Service.Protocol.p (Nn.Model.embed_tokens m.net toks) ~word
          ~radius:c.Service.Protocol.radius
      in
      let cfg = Service.Protocol.base_config c in
      let o = Deept.Engine.certify cfg m.program region ~true_class:label in
      if not (Deept.Verdict.equal o.Deept.Engine.verdict r.Service.Protocol.verdict) then
        problems :=
          Printf.sprintf "request %d: certifyd answered %s, Engine.certify in process %s" a.req.tag
            (Deept.Verdict.to_string r.Service.Protocol.verdict)
            (Deept.Verdict.to_string o.Deept.Engine.verdict)
          :: !problems)
    checked;
  let lat_ms os = List.map (fun (a, _) -> 1000.0 *. latency a) (List.concat_map results os) in
  let step_line o =
    let rs = results o in
    let l = List.map (fun (a, _) -> 1000.0 *. latency a) rs in
    Printf.sprintf
      "  %5.0f req/s  sent %4d  results %4d  shed %3d  errors %d  p50 %7.1f ms  p95 %7.1f ms \
       (n=%d)  within %.0f ms %4d  late max %.1f ms  drained %.2f s"
      o.step.rate o.sent_n (List.length rs) (shed o) o.errors (Stats.percentile l 0.5)
      (Stats.percentile l 0.95) (List.length l) (1000.0 *. limit_s)
      (count (fun x -> x <= 1000.0 *. limit_s) l)
      (1000.0 *. o.late_max) o.drain_s
  in
  (* a step is met when its p95 is within the limit, nothing was shed
     and the backlog drained within a second of the last send *)
  let met o =
    shed o = 0 && o.errors = 0
    && Stats.percentile (lat_ms [ o ]) 0.95 <= 1000.0 *. limit_s
    && o.drain_s <= 1.0
  in
  let max_rate =
    List.fold_left (fun acc o -> if met o then Float.max acc o.step.rate else acc) 0.0 outs
  in
  (* completed results per second while saturated: the server's capacity *)
  let capacity os =
    let rs = List.concat_map results os in
    let t0 = List.fold_left (fun acc o -> Float.min acc o.first_due) infinity os in
    let t1 = List.fold_left (fun acc (a, _) -> Float.max acc a.got) t0 rs in
    if t1 > t0 then float_of_int (List.length rs) /. (t1 -. t0) else 0.0
  in
  let goodput os =
    let within = count (fun x -> x <= 1000.0 *. limit_s) (lat_ms os) in
    float_of_int within /. Float.max 1e-9 (fsum (fun o -> o.step.duration) os)
  in
  let computed = List.filter (fun (_, r) -> not r.Service.Protocol.cached) steady_results in
  let metrics =
    if not ctx.trace then
        [
          ("setup_s", setup_s);
          ("queries_per_s", capacity overload);
          (* Cache hits (3 in 10, about a millisecond each) are left out:
             mixed in, they put the median low in the computed requests'
             wide spread of costs, where it moved more from seed to seed
             (a spread of 9% against 6% over ten seeds). The per-layer
             service.hit_* metrics report them. *)
          ( "lat_ms_p50",
            1000.0 *. strata_p50 (List.map (fun (a, _) -> (a.req.len, latency a)) computed) );
          ("certified_frac", frac (count certified steady_results) (List.length steady_results));
          ( "radius_mean",
            Stats.mean
              (List.map
                 (fun ((a : answer), r) ->
                   let c = a.req.c in
                   if certified (a, r) then
                     c.Service.Protocol.radius
                     /. reference_radius "small_3" Deept.Config.Fast c.Service.Protocol.p
                   else 0.0)
                 steady_results) );
          ("ok_frac", 1.0 -. frac steady_failed steady_sent);
          ("peak_rss_mb", rss);
        ]
    else
      let hits = List.filter (fun (_, r) -> r.Service.Protocol.cached) steady_results in
      let overhead =
        List.map (fun (a, r) -> 1000.0 *. (latency a -. r.Service.Protocol.wall_s)) computed
      in
      [
        ( "service.compute_ms_p50",
          Stats.median (List.map (fun (_, r) -> 1000.0 *. r.Service.Protocol.wall_s) computed) );
        ("service.hit_frac", frac (List.length hits) (List.length steady_results));
        ("service.hit_ms_p50", Stats.median (List.map (fun (a, _) -> 1000.0 *. latency a) hits));
        ("service.overhead_ms_p50", Stats.percentile overhead 0.5);
        ("service.overhead_ms_p95", Stats.percentile overhead 0.95);
        ("service.lat_ms_p95", Stats.percentile (lat_ms steady) 0.95);
        ( "service.queue_depth_max",
          float_of_int (List.fold_left (fun acc o -> max acc o.depth_max) 0 outs) );
        ( "service.shed_frac",
          frac
            (List.fold_left (fun acc o -> acc + shed o) 0 overload)
            (List.fold_left (fun acc o -> acc + o.sent_n) 0 overload) );
        ( "service.gen_late_ms_max",
          1000.0 *. List.fold_left (fun acc o -> Float.max acc o.late_max) 0.0 outs );
        (* The spans are built after the run from timestamps the untraced
           run takes as well, so tracing adds nothing to the timed part. *)
        ("trace.overhead_frac", 0.0);
      ]
  in
  let spans =
    if not ctx.trace then []
    else
      let t = Trace.create () in
      List.iter
        (fun (a, r) ->
          let query = a.req.tag in
          let id = Trace.add t ~parent:0 ~query "service.request" ~start:a.due ~stop:a.got in
          ignore (Trace.add t ~parent:id ~query "gen.late" ~start:a.due ~stop:a.sent);
          if not r.Service.Protocol.cached then
            ignore
              (Trace.add t ~parent:id ~query "service.compute"
                 ~start:(a.got -. r.Service.Protocol.wall_s) ~stop:a.got))
        (List.concat_map results outs);
      Trace.spans t
  in
  {
    attempted = steady_sent;
    failed = steady_failed;
    problems = List.rev !problems;
    metrics;
    digest =
      digest
        (List.concat_map
           (fun o ->
             List.map
               (fun a ->
                 Printf.sprintf "%d %s" a.req.tag
                   (match a.resp with
                   | Service.Protocol.Result r -> Deept.Verdict.to_string r.Service.Protocol.verdict
                   | _ -> "not answered"))
               (List.sort (fun a b -> compare a.req.tag b.req.tag) o.answers))
           steady);
    spans;
    report =
      Printf.sprintf "serve-open: setup %.3f s (model load %.3f s, daemon start %.3f s)" setup_s
        load_s daemon_s
      :: unscaled_line
           (List.map (fun t -> t.slow) (setup_samples @ !start_times))
           [ ("setup_s", load_raw +. daemon_raw) ]
      :: List.map step_line outs
      @ [
          Printf.sprintf
            "  max rate meeting p95 <= %.0f ms: %.0f req/s; overload: %.1f results/s, \
             goodput %.1f req/s"
            (1000.0 *. limit_s) max_rate (capacity overload) (goodput overload);
        ];
  }
