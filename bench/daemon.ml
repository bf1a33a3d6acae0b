(* Reproducible benchmark of the certifyd service path: a forked daemon
   serving real certification jobs on the recorded sst_3 model.

     dune exec bench/daemon.exe -- --data data          # table on stdout
     dune exec bench/daemon.exe -- --data data --json   # + BENCH_service.json

   Three phases over one daemon:

   - steady: a closed loop with as many outstanding requests as the
     daemon has workers — every request must come back as a result
     (shedding at steady load is a bug, exit 4), p50/p95/p99 latency
     recorded. 40 requests by default: with 12, p95 and p99 were both
     the slowest request, so one outlier set the gated number;
   - cache replay: the same requests again — every one must be a cache
     hit with a verdict bit-identical to the cold run (exit 4
     otherwise), hit rate recorded;
   - overload: a burst of distinct (cache-missing) requests several
     times the admission cap, fired open-loop — the daemon must shed
     with `overloaded' rather than queue without bound (exit 4 if the
     shed rate is under 25%), shed rate recorded.

   When a previous BENCH_service.json exists it is rotated to
   BENCH_service.prev.json so check_regress.exe can compare runs: p95
   latency relatively (lower is better), shed and hit rates by absolute
   drift. *)

let percentile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(min (n - 1) (max 0 (int_of_float (ceil (q *. float_of_int n)) - 1)))

type phase = {
  name : string;
  lat_ms : float list;  (** client-observed latency per completed request *)
  shed : int;
  hits : int;
  total : int;
}

let json_of_phase ~jobs ~workers ~queue_cap p =
  let pc q = percentile p.lat_ms q in
  match p.name with
  | "service_steady" ->
      Printf.sprintf
        "{\"name\":\"service_steady\",\"jobs\":%d,\"workers\":%d,\"p50_ms\":%.3f,\"p95_ms\":%.3f,\"p99_ms\":%.3f}"
        jobs workers (pc 0.50) (pc 0.95) (pc 0.99)
  | "service_cache" ->
      Printf.sprintf
        "{\"name\":\"service_cache\",\"jobs\":%d,\"hit_rate\":%.4f,\"hit_p95_ms\":%.3f}"
        p.total
        (float_of_int p.hits /. float_of_int (max 1 p.total))
        (pc 0.95)
  | _ ->
      Printf.sprintf
        "{\"name\":\"service_overload\",\"burst\":%d,\"queue_cap\":%d,\"shed_rate\":%.4f}"
        p.total queue_cap
        (float_of_int p.shed /. float_of_int (max 1 p.total))

let write_json path rows =
  if Sys.file_exists path then begin
    let prev = Filename.remove_extension path ^ ".prev.json" in
    (try Sys.remove prev with Sys_error _ -> ());
    Sys.rename path prev;
    Printf.printf "rotated previous %s -> %s\n" path prev
  end;
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i r ->
      output_string oc r;
      if i < List.length rows - 1 then output_string oc ",";
      output_string oc "\n")
    rows;
  output_string oc "]\n";
  close_out oc;
  Printf.printf "wrote %s\n" path

let () =
  let data = ref "data" in
  let workers = ref 2 in
  let steady = ref 40 in
  let burst = ref 48 in
  let queue_cap = ref 4 in
  let json = ref false in
  let out = ref "BENCH_service.json" in
  Arg.parse
    [
      ("--data", Arg.Set_string data, "DIR  model directory (default data)");
      ("--workers", Arg.Set_int workers, "N  daemon worker processes (default 2)");
      ("--steady", Arg.Set_int steady, "N  steady-phase requests (default 40)");
      ("--burst", Arg.Set_int burst, "N  overload-phase burst size (default 48)");
      ("--queue-cap", Arg.Set_int queue_cap, "N  daemon admission cap (default 4)");
      ("--json", Arg.Set json, "  write the results to --out as JSON");
      ("--out", Arg.Set_string out, "PATH  JSON output path (default BENCH_service.json)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "daemon [--data DIR] [--json] [--out PATH]";
  Zoo.data_dir := !data;
  let socket = Filename.concat (Sys.getcwd ()) "certifyd_bench.sock" in
  let journal = Filename.concat (Sys.getcwd ()) "certifyd_bench.jsonl" in
  let daemon_pid =
    match Unix.fork () with
    | 0 -> (
        try
          Service.Server.run
            (Service.Server.opts
               ~pool:(Deept.Config.pool ~workers:!workers ())
               ~deadline_s:20.0 ~queue_cap:!queue_cap ~journal ~socket
               [ "sst_3" ]);
          exit 0
        with e ->
          Printf.eprintf "bench daemon: %s\n%!" (Printexc.to_string e);
          exit 1)
    | pid -> pid
  in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "daemon bench: %s\n%!" msg;
        (try Unix.kill daemon_pid Sys.sigkill with Unix.Unix_error _ -> ());
        exit 4)
      fmt
  in
  let conn = Service.Client.connect_retry ~timeout_s:120.0 socket in
  let req k radius =
    Service.Protocol.certify ~word:1 ~tag:k ~model:"sst_3" ~radius
      (Service.Protocol.Index (k mod 100))
  in
  (* --- steady: closed loop, [workers] outstanding ------------------- *)
  let send_t = Hashtbl.create 64 in
  let send k radius =
    Hashtbl.replace send_t k (Unix.gettimeofday ());
    Service.Client.send conn (Service.Protocol.Certify (req k radius))
  in
  let steady_radius = 0.02 in
  let cold = Hashtbl.create 64 in
  let run_steady () =
    let lats = ref [] in
    let next = ref 0 in
    let prime = min !workers !steady in
    for _ = 1 to prime do
      send !next steady_radius;
      incr next
    done;
    for _ = 1 to !steady do
      match Service.Client.recv conn with
      | Some (Service.Protocol.Result r) ->
          let tag = match r.Service.Protocol.tag with Some t -> t | None -> -1 in
          let t0 =
            match Hashtbl.find_opt send_t tag with Some t -> t | None -> 0.0
          in
          lats := ((Unix.gettimeofday () -. t0) *. 1000.0) :: !lats;
          if r.Service.Protocol.cached then
            fail "steady phase served from cache (tag %d)" tag;
          Hashtbl.replace cold tag
            (Deept.Verdict.to_string r.Service.Protocol.verdict);
          if !next < !steady then begin
            send !next steady_radius;
            incr next
          end
      | Some _ -> fail "steady phase shed or errored"
      | None -> fail "daemon closed the connection in steady phase"
    done;
    { name = "service_steady"; lat_ms = !lats; shed = 0; hits = 0; total = !steady }
  in
  (* --- cache replay: same requests, all must hit -------------------- *)
  let run_cache () =
    let lats = ref [] in
    let hits = ref 0 in
    for k = 0 to !steady - 1 do
      let t0 = Unix.gettimeofday () in
      match Service.Client.request conn (Service.Protocol.Certify (req k steady_radius)) with
      | Some (Service.Protocol.Result r) ->
          lats := ((Unix.gettimeofday () -. t0) *. 1000.0) :: !lats;
          if not r.Service.Protocol.cached then
            fail "replay of tag %d was not served from cache" k;
          incr hits;
          let v = Deept.Verdict.to_string r.Service.Protocol.verdict in
          let expect = Hashtbl.find cold k in
          if v <> expect then
            fail "cached verdict for tag %d is %s, cold run said %s" k v expect
      | Some _ -> fail "cache replay shed or errored"
      | None -> fail "daemon closed the connection in cache replay"
    done;
    { name = "service_cache"; lat_ms = !lats; shed = 0; hits = !hits; total = !steady }
  in
  (* --- overload: open-loop burst of distinct requests --------------- *)
  let run_overload () =
    (* distinct radii -> guaranteed cache misses, so every request faces
       admission control *)
    for k = 0 to !burst - 1 do
      send (1000 + k) (0.03 +. (float_of_int k *. 1e-9))
    done;
    let shed = ref 0 and served = ref 0 in
    for _ = 1 to !burst do
      match Service.Client.recv conn with
      | Some (Service.Protocol.Overloaded _) -> incr shed
      | Some (Service.Protocol.Result _) -> incr served
      | Some _ -> fail "overload phase: unexpected response"
      | None -> fail "daemon closed the connection in overload phase"
    done;
    if !shed + !served <> !burst then fail "overload phase lost responses";
    { name = "service_overload"; lat_ms = []; shed = !shed; hits = 0; total = !burst }
  in
  let steady_p = run_steady () in
  let cache_p = run_cache () in
  let overload_p = run_overload () in
  (* correctness gates, radius-bench style: the numbers only mean
     something if the daemon behaved *)
  let shed_rate =
    float_of_int overload_p.shed /. float_of_int overload_p.total
  in
  if shed_rate < 0.25 then
    fail "overload phase shed only %.0f%% — admission control asleep"
      (shed_rate *. 100.0);
  (match Service.Client.request conn Service.Protocol.Stats with
  | Some (Service.Protocol.Stats_r s) ->
      if s.Service.Protocol.queue_depth > !queue_cap then
        fail "queue depth %d exceeds cap %d" s.Service.Protocol.queue_depth
          !queue_cap
  | _ -> fail "stats request failed");
  ignore (Service.Client.request conn Service.Protocol.Shutdown);
  Service.Client.close conn;
  (match Unix.waitpid [] daemon_pid with
  | _, Unix.WEXITED 0 -> ()
  | _, _ -> fail "daemon did not exit cleanly");
  Printf.printf
    "certifyd service bench: sst_3, %d worker(s), queue cap %d\n\n" !workers
    !queue_cap;
  Printf.printf "%-18s %8s %8s %8s %10s %10s\n" "phase" "p50 ms" "p95 ms"
    "p99 ms" "shed rate" "hit rate";
  List.iter
    (fun p ->
      Printf.printf "%-18s %8.1f %8.1f %8.1f %10.3f %10.3f\n" p.name
        (percentile p.lat_ms 0.50) (percentile p.lat_ms 0.95)
        (percentile p.lat_ms 0.99)
        (float_of_int p.shed /. float_of_int (max 1 p.total))
        (float_of_int p.hits /. float_of_int (max 1 p.total)))
    [ steady_p; cache_p; overload_p ];
  if !json then
    write_json !out
      (List.map
         (json_of_phase ~jobs:!steady ~workers:!workers ~queue_cap:!queue_cap)
         [ steady_p; cache_p; overload_p ])
